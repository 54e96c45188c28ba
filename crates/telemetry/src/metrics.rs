//! Named counters, gauges, and log-bucketed histograms.
//!
//! Handles come from the global registry via [`counter`], [`gauge`], and
//! [`histogram`]. While telemetry is disabled each of those costs one
//! relaxed atomic load and returns an inert handle whose operations are
//! plain branches — no locks, no allocation, no atomics. While enabled,
//! the hot paths (`add`, `set`, `record`) are lock-free: the registry
//! mutex is only taken when a handle is created or a snapshot is built.
//!
//! [`Histogram`] buckets values on a logarithmic grid — 16 sub-buckets
//! per octave, taken straight from the top four mantissa bits of the
//! `f64` — so quantile queries have a bounded relative error of about
//! 2.2 % over the full positive range with a fixed 1 344-slot table.
//! The first `EXACT_SAMPLES` observations are additionally kept
//! verbatim, so quantiles over small counts (most per-experiment
//! histograms) are exact sorted-sample quantiles, not bucket midpoints.
//!
//! # Handle lifetime and the enable switch
//!
//! A handle fetched **while telemetry is disabled** is permanently inert:
//! it does not re-resolve when [`crate::set_enabled`] later turns
//! collection on. Enable telemetry *before* fetching handles (the usual
//! pattern — look handles up at the instrumented site, as this whole
//! workspace does — gets this for free, since lookup is cheap and
//! per-call). Using an inert handle's write path after telemetry was
//! enabled trips a debug assertion naming this contract; release builds
//! keep the write path assertion-free and branch-only.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::json::Json;

/// Sub-buckets per octave (power of two); 4 mantissa bits → 16.
const SUB: usize = 16;
/// Smallest representable octave: 2^-44 ≈ 5.7e-14, far below a nanosecond.
const MIN_EXP: i32 = -44;
/// Largest representable octave: 2^39 ≈ 5.5e11, far above any wall time.
const MAX_EXP: i32 = 39;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const BUCKETS: usize = OCTAVES * SUB;

/// Observations kept verbatim for the exact small-count quantile path.
/// Histograms at or below this count answer quantile queries from the
/// sorted samples themselves (zero approximation error); above it they
/// fall back to the log-bucketed grid.
const EXACT_SAMPLES: usize = 256;

struct HistogramCore {
    counts: Vec<AtomicU64>,
    /// The first [`EXACT_SAMPLES`] observations, as `f64` bit patterns.
    /// A zero slot is unwritten (0.0 never lands here: non-positive
    /// values are rejected before sampling), which lets the quantile
    /// path detect a racing writer and fall back to the grid.
    samples: Vec<AtomicU64>,
    /// Values rejected from the grid: zero, negative, or non-finite.
    nonpositive: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            samples: (0..EXACT_SAMPLES).map(|_| AtomicU64::new(0)).collect(),
            nonpositive: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Bucket index for a positive finite value: octave from the biased
    /// exponent, sub-bucket from the top four mantissa bits.
    fn index(v: f64) -> usize {
        let bits = v.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        if biased == 0 {
            return 0; // subnormal: below the grid, clamp to the first slot
        }
        let exp = biased - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        if exp > MAX_EXP {
            return BUCKETS - 1;
        }
        let sub = ((bits >> 48) & 0xf) as usize;
        (exp - MIN_EXP) as usize * SUB + sub
    }

    /// Lower and upper bounds of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let exp = MIN_EXP + (i / SUB) as i32;
        let sub = (i % SUB) as f64;
        let base = (exp as f64).exp2();
        (
            base * (1.0 + sub / SUB as f64),
            base * (1.0 + (sub + 1.0) / SUB as f64),
        )
    }

    fn record(&self, v: f64) {
        if !(v > 0.0 && v.is_finite()) {
            self.nonpositive.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counts[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        let bits = v.to_bits();
        // fetch_add hands every observation a unique arrival index; the
        // first EXACT_SAMPLES of them claim a verbatim sample slot.
        let arrival = self.count.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.samples.get(arrival as usize) {
            slot.store(bits, Ordering::Relaxed);
        }
        // For positive finite f64 the bit pattern orders like the value.
        self.min_bits.fetch_min(bits, Ordering::Relaxed);
        self.max_bits.fetch_max(bits, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn min(&self) -> Option<f64> {
        (self.count.load(Ordering::Relaxed) > 0)
            .then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed)))
    }

    fn max(&self) -> Option<f64> {
        (self.count.load(Ordering::Relaxed) > 0)
            .then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed)))
    }

    /// Quantile over the recorded values: exact (sorted-sample, linear
    /// interpolation) while the count is at most [`EXACT_SAMPLES`];
    /// otherwise nearest-rank over the buckets, where the returned
    /// representative is the bucket's geometric midpoint clamped to the
    /// observed [min, max], so q = 0 and q = 1 stay exact.
    fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if let Some(exact) = self.exact_quantile(n, q) {
            return Some(exact);
        }
        let rank = (q * (n - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, slot) in self.counts.iter().enumerate() {
            cum += slot.load(Ordering::Relaxed);
            if cum > rank {
                let (lo, hi) = Self::bounds(i);
                let rep = (lo * hi).sqrt();
                let lo_clamp = self.min().unwrap_or(rep);
                let hi_clamp = self.max().unwrap_or(rep);
                return Some(rep.clamp(lo_clamp, hi_clamp));
            }
        }
        self.max()
    }

    /// The exact small-count path: reads back the first `n` verbatim
    /// samples and interpolates the quantile on the sorted values.
    /// Returns `None` when the count exceeds the sample buffer or when a
    /// racing writer has claimed a slot but not yet stored into it (an
    /// unwritten slot reads as 0 bits, which no accepted value produces);
    /// the caller then falls back to the bucketed estimate.
    fn exact_quantile(&self, n: u64, q: f64) -> Option<f64> {
        if n as usize > EXACT_SAMPLES {
            return None;
        }
        let mut values = Vec::with_capacity(n as usize);
        for slot in &self.samples[..n as usize] {
            let bits = slot.load(Ordering::Relaxed);
            if bits == 0 {
                return None;
            }
            values.push(f64::from_bits(bits));
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("accepted samples are finite"));
        varstats::quantile::quantile_sorted(&values, q, varstats::quantile::QuantileMethod::Linear)
            .ok()
    }
}

/// Monotonically increasing event counter. Inert when obtained while
/// telemetry is disabled.
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        match &self.0 {
            Some(cell) => {
                cell.fetch_add(n, Ordering::Relaxed);
            }
            None => debug_assert!(
                !crate::enabled(),
                "inert Counter written after telemetry was enabled; \
                 fetch handles after set_enabled(true) (see metrics module docs)"
            ),
        }
    }
}

/// Last-write-wins instantaneous value. Inert when obtained while
/// telemetry is disabled.
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the gauge with `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        match &self.0 {
            Some(cell) => cell.store(v.to_bits(), Ordering::Relaxed),
            None => debug_assert!(
                !crate::enabled(),
                "inert Gauge written after telemetry was enabled; \
                 fetch handles after set_enabled(true) (see metrics module docs)"
            ),
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value — a
    /// monotone high-water mark (used by the streaming data path for
    /// peak-residency gauges). Writes race benignly: every update only
    /// moves the value upward, so concurrent `set_max` calls converge on
    /// the true maximum.
    #[inline]
    pub fn set_max(&self, v: f64) {
        match &self.0 {
            Some(cell) => {
                let mut cur = cell.load(Ordering::Relaxed);
                while v > f64::from_bits(cur) {
                    match cell.compare_exchange_weak(
                        cur,
                        v.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
            }
            None => debug_assert!(
                !crate::enabled(),
                "inert Gauge written after telemetry was enabled; \
                 fetch handles after set_enabled(true) (see metrics module docs)"
            ),
        }
    }
}

/// Log-bucketed distribution of positive values with quantile queries.
/// Inert when obtained while telemetry is disabled.
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation. Zero, negative, and non-finite values go
    /// to a separate rejection counter instead of the grid.
    #[inline]
    pub fn record(&self, v: f64) {
        match &self.0 {
            Some(core) => core.record(v),
            None => debug_assert!(
                !crate::enabled(),
                "inert Histogram written after telemetry was enabled; \
                 fetch handles after set_enabled(true) (see metrics module docs)"
            ),
        }
    }

    /// Number of values on the grid.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Quantile (`0.0 ..= 1.0`): exact while at most `EXACT_SAMPLES`
    /// values have been recorded, nearest-rank with ≈2.2 % relative
    /// bucket error above that; `None` when empty or for an inert handle.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.as_ref().and_then(|c| c.quantile(q))
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Looks up (registering on first use) the counter named `name`.
/// Returns an inert handle while telemetry is disabled.
pub fn counter(name: &str) -> Counter {
    if !crate::enabled() {
        return Counter(None);
    }
    Counter(Some(
        registry()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone(),
    ))
}

/// Looks up (registering on first use) the gauge named `name`.
/// Returns an inert handle while telemetry is disabled.
pub fn gauge(name: &str) -> Gauge {
    if !crate::enabled() {
        return Gauge(None);
    }
    Gauge(Some(
        registry()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone(),
    ))
}

/// Looks up (registering on first use) the histogram named `name`.
/// Returns an inert handle while telemetry is disabled.
pub fn histogram(name: &str) -> Histogram {
    if !crate::enabled() {
        return Histogram(None);
    }
    Histogram(Some(
        registry()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()))
            .clone(),
    ))
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterValue {
    /// Registered name.
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeValue {
    /// Registered name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Registered name.
    pub name: String,
    /// Observations on the grid.
    pub count: u64,
    /// Observations rejected (zero, negative, or non-finite).
    pub rejected: u64,
    /// Sum of gridded observations.
    pub total: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
    /// Median (p50), if any.
    pub p50: Option<f64>,
    /// 90th percentile, if any.
    pub p90: Option<f64>,
    /// 95th percentile, if any.
    pub p95: Option<f64>,
    /// 99th percentile, if any.
    pub p99: Option<f64>,
}

/// Point-in-time view of every registered metric.
///
/// **Ordering contract:** each vector is sorted by metric name in
/// ascending byte order (the registry is a `BTreeMap`). The `repro
/// --metrics` summary table, `metrics.json`, and the regression
/// sentinel's history records all inherit this order, so equal runs
/// render and serialize identically; reordering it is a breaking change
/// to those consumers ([`crate::manifest::MANIFEST_SCHEMA_VERSION`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterValue>,
    /// All gauges.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, summarized.
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Summary of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The snapshot as JSON (`metrics.json`), keys in field-declaration
    /// order; absent histogram statistics are `null`.
    pub fn to_json(&self) -> Json {
        let named =
            |name: &String, value: Json| Json::object([("name", name.into()), ("value", value)]);
        Json::object([
            (
                "counters",
                self.counters
                    .iter()
                    .map(|c| named(&c.name, c.value.into()))
                    .collect(),
            ),
            (
                "gauges",
                self.gauges
                    .iter()
                    .map(|g| named(&g.name, g.value.into()))
                    .collect(),
            ),
            (
                "histograms",
                self.histograms
                    .iter()
                    .map(|h| {
                        Json::object([
                            ("name", (&h.name).into()),
                            ("count", h.count.into()),
                            ("rejected", h.rejected.into()),
                            ("total", h.total.into()),
                            ("min", h.min.into()),
                            ("max", h.max.into()),
                            ("p50", h.p50.into()),
                            ("p90", h.p90.into()),
                            ("p95", h.p95.into()),
                            ("p99", h.p99.into()),
                        ])
                    })
                    .collect(),
            ),
        ])
    }
}

/// Captures the current value of every registered metric, sorted by
/// name (see the [`MetricsSnapshot`] ordering contract).
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(name, cell)| CounterValue {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(name, cell)| GaugeValue {
                name: name.clone(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(name, core)| HistogramSummary {
                name: name.clone(),
                count: core.count.load(Ordering::Relaxed),
                rejected: core.nonpositive.load(Ordering::Relaxed),
                total: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                min: core.min(),
                max: core.max(),
                p50: core.quantile(0.50),
                p90: core.quantile(0.90),
                p95: core.quantile(0.95),
                p99: core.quantile(0.99),
            })
            .collect(),
    }
}

/// Unregisters every metric. Live handles keep their cells but the cells
/// no longer appear in snapshots.
pub fn reset() {
    let mut reg = registry();
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        reset();
        let c = counter("off.counter");
        c.inc();
        c.add(10);
        let g = gauge("off.gauge");
        g.set(3.5);
        let h = histogram("off.hist");
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        counter("t.requests").add(3);
        counter("t.requests").inc();
        gauge("t.depth").set(2.0);
        gauge("t.depth").set(7.5);
        let snap = snapshot();
        crate::set_enabled(false);
        reset();
        assert_eq!(snap.counter("t.requests"), Some(4));
        assert_eq!(snap.gauge("t.depth"), Some(7.5));
    }

    #[test]
    fn set_max_is_a_high_water_mark() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let g = gauge("t.peak");
        g.set_max(5.0);
        g.set_max(2.0); // lower values never pull the peak down
        assert_eq!(snapshot().gauge("t.peak"), Some(5.0));
        g.set_max(9.5);
        let snap = snapshot();
        crate::set_enabled(false);
        reset();
        assert_eq!(snap.gauge("t.peak"), Some(9.5));
    }

    #[test]
    fn histogram_rejects_nonpositive_and_tracks_extremes() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let h = histogram("t.span");
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(0.25);
        h.record(4.0);
        let snap = snapshot();
        crate::set_enabled(false);
        reset();
        let s = snap.histogram("t.span").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.rejected, 3);
        assert_eq!(s.min, Some(0.25));
        assert_eq!(s.max, Some(4.0));
        assert!((s.total - 4.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_match_varstats_exact_quantiles() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        // Log-uniform-ish spread over six orders of magnitude.
        let values: Vec<f64> = (1..=2000)
            .map(|i| 1e-6 * (1.0 + i as f64 / 7.0) * (i as f64))
            .collect();
        let h = histogram("t.quant");
        for &v in &values {
            h.record(v);
        }
        crate::set_enabled(false);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let approx = h.quantile(q).unwrap();
            let exact = varstats::quantile::quantile_sorted(
                &sorted,
                q,
                varstats::quantile::QuantileMethod::Linear,
            )
            .unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.05,
                "q={q}: approx {approx} vs exact {exact} (rel err {rel:.4})"
            );
        }
        reset();
    }

    #[test]
    fn small_count_quantiles_are_exact() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let h = histogram("t.exact");
        // Values deliberately placed so bucket midpoints would NOT match.
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            h.record(v);
        }
        crate::set_enabled(false);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        // Linear interpolation between order statistics, like varstats.
        assert_eq!(h.quantile(0.25), Some(2.0));
        assert_eq!(h.quantile(0.125), Some(1.5));
        reset();
    }

    #[test]
    fn quantiles_stay_exact_up_to_the_sample_threshold() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let h = histogram("t.exact.threshold");
        for i in 1..=EXACT_SAMPLES {
            h.record(i as f64);
        }
        crate::set_enabled(false);
        // At exactly EXACT_SAMPLES observations the path is still exact.
        let sorted: Vec<f64> = (1..=EXACT_SAMPLES).map(|i| i as f64).collect();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = varstats::quantile::quantile_sorted(
                &sorted,
                q,
                varstats::quantile::QuantileMethod::Linear,
            )
            .unwrap();
            assert_eq!(h.quantile(q), Some(exact), "q={q}");
        }
        reset();
    }

    #[test]
    fn quantiles_past_the_threshold_fall_back_to_buckets() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let h = histogram("t.exact.overflow");
        for i in 1..=(EXACT_SAMPLES + 100) {
            h.record(i as f64);
        }
        crate::set_enabled(false);
        let n = EXACT_SAMPLES + 100;
        let p50 = h.quantile(0.5).unwrap();
        let exact = (n as f64 + 1.0) / 2.0;
        let rel = (p50 - exact).abs() / exact;
        assert!(rel < 0.05, "bucketed p50 {p50} vs exact {exact}");
        // Extremes stay within bucket error (clamped to observed min/max).
        let p0 = h.quantile(0.0).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert!((1.0..1.07).contains(&p0), "p0 {p0}");
        assert!(p100 <= n as f64 && p100 > n as f64 / 1.07, "p100 {p100}");
        reset();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inert Counter written after telemetry was enabled")]
    fn stale_inert_counter_trips_the_debug_assertion() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let stale = counter("t.stale");
        crate::set_enabled(true);
        // Make sure the switch is restored even though this panics.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                crate::set_enabled(false);
                reset();
            }
        }
        let _restore = Restore;
        stale.inc();
    }

    #[test]
    fn snapshot_lists_metrics_in_alphabetical_order() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset();
        // Registered deliberately out of order.
        for name in ["z.last", "a.first", "m.middle"] {
            counter(name).inc();
            gauge(name).set(1.0);
            histogram(name).record(1.0);
        }
        let snap = snapshot();
        crate::set_enabled(false);
        reset();
        let expect = ["a.first", "m.middle", "z.last"];
        let counters: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let gauges: Vec<&str> = snap.gauges.iter().map(|g| g.name.as_str()).collect();
        let hists: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(counters, expect);
        assert_eq!(gauges, expect);
        assert_eq!(hists, expect);
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [1e-9, 3.7e-6, 0.001, 0.5, 1.0, 1.5, 123.456, 9.9e9] {
            let i = HistogramCore::index(v);
            let (lo, hi) = HistogramCore::bounds(i);
            assert!(lo <= v && v < hi, "v={v} not in [{lo}, {hi})");
            assert!(hi / lo < 1.07, "bucket [{lo}, {hi}) too wide");
        }
    }
}
