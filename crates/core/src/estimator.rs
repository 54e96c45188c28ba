//! The CONFIRM estimator.
//!
//! Given an empirical pool of measurements, CONFIRM answers: *how many
//! repetitions does this experiment need so that a non-parametric CI of
//! the statistic is within ±e% at the chosen confidence level?*
//!
//! The procedure (as published):
//!
//! 1. Pick a candidate subset size `s >= 10`.
//! 2. Draw a random subset of size `s` (without replacement) and compute
//!    the non-parametric CI of the statistic on it.
//! 3. Repeat `c = 200` times; average the lower bounds and the upper
//!    bounds separately.
//! 4. If the averaged interval's relative error is within the target, `s`
//!    is the required repetition count; otherwise grow `s` and repeat.
//!
//! If no `s <= n` reaches the target the result is *exhausted* — the
//! paper reports these entries as "> n" (e.g. "> 50").
//!
//! # Implementation
//!
//! The order-statistic CI of the median or a quantile (the default) needs
//! only two order statistics per round, so no round copies or sorts its
//! subset. The pool is sorted once per call, and the partial Fisher–Yates
//! shuffle runs on a permutation that starts at each pool index's *rank*:
//! the same draws and swaps as on pool indices, so `perm[..s]` is the same
//! subset, named by ranks. Each round marks its ranks in an `n`-bit set
//! and a popcount scan finds the `l`-th and `u`-th smallest of them; the
//! bounds are the sorted pool's values at those ranks. The `k`-th smallest
//! value of a subset is the pool value at the subset's `k`-th smallest
//! rank, ties included (tied values occupy adjacent ranks of equal
//! value), and the rounds sum in the same order, so every [`SizePoint`]
//! is bit-identical to sorting each subset. The bootstrap and the mean
//! still copy each subset, but a bootstrap CI of the median or a quantile
//! never copies or sorts a resample: [`Bootstrap::quantile_ci`] counts
//! ranks instead, bit-identical to sorting each one.
//!
//! A run with a looser target makes the same draws at the same sizes and
//! stops at the first size the stricter run's curve satisfies it at, so
//! its curve is a prefix of the stricter one: one run answers every
//! looser target ([`ConfirmResult::requirement_at`]).

use varstats::ci::bootstrap::{Bootstrap, BootstrapKind};
use varstats::ci::nonparametric::{min_samples_for_quantile_ci, quantile_ci_approx_ranks};
use varstats::ci::parametric::mean_ci_t;
use varstats::error::{check_finite, Result, StatsError};
use varstats::quantile::{quantile_sorted, QuantileMethod};
use varstats::rng::Rng;

use crate::config::{CiMethod, ConfirmConfig, ErrorCriterion, Growth, Statistic};

/// One point of the CONFIRM convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizePoint {
    /// Candidate subset size (repetition count).
    pub subset_size: usize,
    /// Average of the CI lower bounds over the rounds.
    pub mean_lower: f64,
    /// Average of the CI upper bounds over the rounds.
    pub mean_upper: f64,
    /// Relative error of the averaged interval under the configured
    /// criterion.
    pub rel_error: f64,
}

/// Whether CONFIRM found a satisfying repetition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requirement {
    /// This many repetitions reach the target error.
    Satisfied(usize),
    /// No subset of the pool (size `n`) reached the target; the true
    /// requirement exceeds `n` (the paper prints "> n").
    Exhausted {
        /// Size of the measurement pool that was exhausted.
        pool: usize,
    },
}

impl Requirement {
    /// The repetition count if satisfied.
    pub(crate) fn count(&self) -> Option<usize> {
        match self {
            Requirement::Satisfied(n) => Some(*n),
            Requirement::Exhausted { .. } => None,
        }
    }

    /// Paper-style rendering: a number, or `> n`.
    pub fn display(&self) -> String {
        match self {
            Requirement::Satisfied(n) => n.to_string(),
            Requirement::Exhausted { pool } => format!(">{pool}"),
        }
    }

    /// A numeric value usable for sorting/CDFs: the count, or `pool + 1`
    /// when exhausted.
    pub fn as_ordinal(&self) -> usize {
        match self {
            Requirement::Satisfied(n) => *n,
            Requirement::Exhausted { pool } => pool + 1,
        }
    }
}

/// Full result of a CONFIRM run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfirmResult {
    /// The repetition requirement.
    pub requirement: Requirement,
    /// The full-pool value of the statistic (the reference the error is
    /// measured against).
    pub reference: f64,
    /// Convergence curve: one point per candidate size tried.
    pub curve: Vec<SizePoint>,
    /// The statistic that was estimated.
    pub statistic: Statistic,
    /// Confidence level used.
    pub confidence: f64,
    /// Target relative error used.
    pub target_rel_error: f64,
}

impl ConfirmResult {
    /// Convenience accessor for the satisfied repetition count.
    pub fn repetitions(&self) -> Option<usize> {
        self.requirement.count()
    }

    /// The requirement the same config with target `target_rel_error`
    /// would report, read off this result's curve: the first size whose
    /// relative error is within it, or this result's exhaustion. Exact,
    /// because that run's curve is a prefix of this one (see the module
    /// docs). `None` for a target stricter than this result's, or outside
    /// `(0, 1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use confirm::{estimate, ConfirmConfig};
    ///
    /// let pool: Vec<f64> = (0..120).map(|i| 100.0 + ((i * 37) % 29) as f64).collect();
    /// let strict = estimate(&pool, &ConfirmConfig::default()).unwrap();
    /// let loose = estimate(&pool, &ConfirmConfig::default().with_target_rel_error(0.05));
    /// assert_eq!(strict.requirement_at(0.05), Some(loose.unwrap().requirement));
    /// assert_eq!(strict.requirement_at(0.005), None);
    /// ```
    pub fn requirement_at(&self, target_rel_error: f64) -> Option<Requirement> {
        if !(target_rel_error >= self.target_rel_error && target_rel_error < 1.0) {
            return None;
        }
        let first = self
            .curve
            .iter()
            .find(|p| p.rel_error <= target_rel_error)
            .map(|p| Requirement::Satisfied(p.subset_size));
        // A satisfied curve ends at a point within every looser target.
        Some(first.unwrap_or(self.requirement))
    }
}

/// The quantile a statistic is, if it is one.
fn quantile_of(statistic: Statistic) -> Option<f64> {
    match statistic {
        Statistic::Median => Some(0.5),
        Statistic::Quantile(q) => Some(q),
        Statistic::Mean => None,
    }
}

/// Computes the statistic on a (small, unsorted) subset.
fn point_estimate(subset: &mut [f64], statistic: Statistic) -> Result<f64> {
    match quantile_of(statistic) {
        Some(q) => {
            subset.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            quantile_sorted(subset, q, QuantileMethod::Linear)
        }
        None => Ok(subset.iter().sum::<f64>() / subset.len() as f64),
    }
}

/// CI of the statistic on one materialized subset: the bootstrap for any
/// statistic, or the t-interval of the mean. The order-statistic CI of a
/// quantile never gets here; [`RankedPool`] reads it from pool ranks.
fn subset_ci(subset: &[f64], config: &ConfirmConfig, round_seed: u64) -> Result<(f64, f64)> {
    let confidence = config.confidence;
    let ci = match config.ci_method {
        CiMethod::Bootstrap { resamples } => {
            let boot = Bootstrap::new(resamples, round_seed);
            let kind = BootstrapKind::Percentile;
            match quantile_of(config.statistic) {
                Some(q) => boot.quantile_ci(subset, q, confidence, kind)?,
                None => boot.ci(
                    subset,
                    |xs| xs.iter().sum::<f64>() / xs.len() as f64,
                    confidence,
                    kind,
                )?,
            }
        }
        CiMethod::OrderStatistic => {
            debug_assert_eq!(config.statistic, Statistic::Mean);
            mean_ci_t(subset, confidence)?
        }
    };
    Ok((ci.lower, ci.upper))
}

/// The pool sorted once, from which each round reads the order-statistic
/// CI of the `q`-quantile by rank (see the module docs).
struct RankedPool {
    q: f64,
    /// The pool in ascending order.
    sorted: Vec<f64>,
    /// One bit per pool rank, marking the current round's subset.
    bits: Vec<u64>,
}

impl RankedPool {
    /// Sorts `pool`, returning it together with each pool index's rank.
    fn new(pool: &[f64], q: f64) -> (Self, Vec<usize>) {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_unstable_by(|&a, &b| pool[a].total_cmp(&pool[b]));
        let mut rank_of = vec![0; pool.len()];
        for (rank, &i) in order.iter().enumerate() {
            rank_of[i] = rank;
        }
        let ranked = RankedPool {
            q,
            sorted: order.iter().map(|&i| pool[i]).collect(),
            bits: vec![0; pool.len().div_ceil(64)],
        };
        (ranked, rank_of)
    }

    /// Marks one pool rank as a member of the current round's subset.
    fn mark(&mut self, rank: usize) {
        self.bits[rank / 64] |= 1 << (rank % 64);
    }

    /// The `lower`-th and `upper`-th smallest (1-based) values of the
    /// marked subset.
    fn bounds(&self, (lower, upper): (usize, usize)) -> (f64, f64) {
        (
            self.sorted[nth_set_bit(&self.bits, lower)],
            self.sorted[nth_set_bit(&self.bits, upper)],
        )
    }
}

/// Partial Fisher-Yates: the first `size` entries of `perm` become a
/// uniform random subset without replacement, each handed to `take` as it
/// is drawn.
fn draw_subset(rng: &mut Rng, perm: &mut [usize], size: usize, mut take: impl FnMut(usize)) {
    let n = perm.len();
    for i in 0..size {
        let j = rng.range(i..n);
        perm.swap(i, j);
        take(perm[i]);
    }
}

/// Position of the `k`-th (1-based) set bit of `bits`.
fn nth_set_bit(bits: &[u64], mut k: usize) -> usize {
    for (w, &word) in bits.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if k <= ones {
            let mut word = word;
            for _ in 1..k {
                word &= word - 1;
            }
            return w * 64 + word.trailing_zeros() as usize;
        }
        k -= ones;
    }
    unreachable!("a rank is at most the subset size")
}

/// Runs CONFIRM over a pool of measurements.
///
/// # Errors
///
/// Returns an error for an invalid config, an invalid pool, a pool smaller
/// than `min_subset`, or a zero-valued reference statistic (relative error
/// undefined).
///
/// # Examples
///
/// ```
/// use confirm::{estimate, ConfirmConfig};
///
/// // A extremely tight pool: even 10 repetitions give a +/-1% CI.
/// let pool: Vec<f64> = (0..60).map(|i| 100.0 + 0.01 * (i % 7) as f64).collect();
/// let result = estimate(&pool, &ConfirmConfig::default()).unwrap();
/// assert_eq!(result.repetitions(), Some(10));
/// ```
pub fn estimate(pool: &[f64], config: &ConfirmConfig) -> Result<ConfirmResult> {
    let _span = telemetry::span("confirm.estimate");
    config.validate()?;
    check_finite(pool)?;
    let n = pool.len();
    if n < config.min_subset {
        return Err(StatsError::TooFewSamples {
            needed: config.min_subset,
            got: n,
        });
    }
    // A two-sided order-statistic CI for quantile q at this confidence
    // only exists from a minimum sample size (e.g. 299 for p99 at 95%).
    // Subsets below that floor would produce clamped, non-covering
    // intervals that fool the width criterion, so CONFIRM never considers
    // them.
    let floor = match quantile_of(config.statistic) {
        Some(q) => min_samples_for_quantile_ci(q, config.confidence)?,
        None => 2,
    };
    let start = config.min_subset.max(floor);

    // Each round's subset is `perm[..size]`: pool ranks when the CI is
    // read from the ranked pool, pool indices otherwise.
    let quantile = match config.ci_method {
        CiMethod::OrderStatistic => quantile_of(config.statistic),
        CiMethod::Bootstrap { .. } => None,
    };
    let (mut ranked, mut perm, reference) = match quantile {
        Some(q) => {
            let (ranked, rank_of) = RankedPool::new(pool, q);
            let reference = quantile_sorted(&ranked.sorted, q, QuantileMethod::Linear)?;
            (Some(ranked), rank_of, reference)
        }
        None => {
            let reference = point_estimate(&mut pool.to_vec(), config.statistic)?;
            (None, (0..n).collect::<Vec<usize>>(), reference)
        }
    };
    if reference == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let result = |requirement, curve| ConfirmResult {
        requirement,
        reference,
        curve,
        statistic: config.statistic,
        confidence: config.confidence,
        target_rel_error: config.target_rel_error,
    };
    if start > n {
        // The pool cannot even carry one valid CI at this size: the paper
        // reports these as "> n".
        telemetry::metrics::counter("confirm.exhausted").inc();
        return Ok(result(Requirement::Exhausted { pool: n }, Vec::new()));
    }

    let mut rng = Rng::seed_from_u64(config.seed);
    let mut subset = Vec::new();
    let mut curve = Vec::new();

    let rounds_run = telemetry::metrics::counter("confirm.rounds");
    let sizes_tried = telemetry::metrics::histogram("confirm.subset_size");
    let mut size = start;
    loop {
        sizes_tried.record(size as f64);
        let ranks = ranked
            .as_ref()
            .map(|r| quantile_ci_approx_ranks(size, r.q, config.confidence))
            .transpose()?;
        let mut sum_lower = 0.0;
        let mut sum_upper = 0.0;
        for round in 0..config.rounds {
            let (lo, hi) = match ranked.as_mut().zip(ranks) {
                Some((r, ranks)) => {
                    r.bits.fill(0);
                    draw_subset(&mut rng, &mut perm, size, |rank| r.mark(rank));
                    r.bounds(ranks)
                }
                None => {
                    subset.clear();
                    draw_subset(&mut rng, &mut perm, size, |i| subset.push(pool[i]));
                    let round_seed = config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((size * 1_000_003 + round) as u64);
                    subset_ci(&subset, config, round_seed)?
                }
            };
            sum_lower += lo;
            sum_upper += hi;
        }
        let mean_lower = sum_lower / config.rounds as f64;
        let mean_upper = sum_upper / config.rounds as f64;
        let rel_error = match config.criterion {
            ErrorCriterion::HalfWidth => (mean_upper - mean_lower) / (2.0 * reference.abs()),
            ErrorCriterion::WorstBound => {
                let lo = (reference - mean_lower).abs();
                let hi = (mean_upper - reference).abs();
                lo.max(hi) / reference.abs()
            }
        };
        rounds_run.add(config.rounds as u64);
        curve.push(SizePoint {
            subset_size: size,
            mean_lower,
            mean_upper,
            rel_error,
        });
        if rel_error <= config.target_rel_error {
            telemetry::metrics::counter("confirm.satisfied").inc();
            return Ok(result(Requirement::Satisfied(size), curve));
        }
        if size >= n {
            telemetry::metrics::counter("confirm.exhausted").inc();
            return Ok(result(Requirement::Exhausted { pool: n }, curve));
        }
        size = match config.growth {
            Growth::Linear(step) => (size + step).min(n),
            Growth::Geometric(f) => (((size as f64) * f).ceil() as usize).clamp(size + 1, n),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix;

    fn uniform_pool(seed: u64, n: usize, center: f64, spread: f64) -> Vec<f64> {
        let mut u = splitmix(seed);
        (0..n).map(|_| center + spread * (u() - 0.5)).collect()
    }

    /// The estimator as it stood before CONFIRM read order-statistic CIs
    /// from pool ranks: every round copies its subset and computes the CI
    /// on it. Frozen here so the rank path is pinned to it bit for bit.
    /// Order-statistic CIs only (the pins never use the bootstrap).
    fn reference_estimate(pool: &[f64], config: &ConfirmConfig) -> Result<ConfirmResult> {
        fn reference_subset_ci(subset: &[f64], config: &ConfirmConfig) -> Result<(f64, f64)> {
            let q = match config.statistic {
                Statistic::Median => 0.5,
                Statistic::Quantile(q) => q,
                Statistic::Mean => {
                    let ci = mean_ci_t(subset, config.confidence)?;
                    return Ok((ci.lower, ci.upper));
                }
            };
            let r = varstats::ci::nonparametric::quantile_ci_approx(subset, q, config.confidence)?;
            Ok((r.ci.lower, r.ci.upper))
        }

        config.validate()?;
        check_finite(pool)?;
        let n = pool.len();
        if n < config.min_subset {
            return Err(StatsError::TooFewSamples {
                needed: config.min_subset,
                got: n,
            });
        }
        let floor = match config.statistic {
            Statistic::Median => min_samples_for_quantile_ci(0.5, config.confidence)?,
            Statistic::Quantile(q) => min_samples_for_quantile_ci(q, config.confidence)?,
            Statistic::Mean => 2,
        };
        let start = config.min_subset.max(floor);
        let mut full = pool.to_vec();
        let reference = point_estimate(&mut full, config.statistic)?;
        if reference == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let result = |requirement, curve| ConfirmResult {
            requirement,
            reference,
            curve,
            statistic: config.statistic,
            confidence: config.confidence,
            target_rel_error: config.target_rel_error,
        };
        if start > n {
            return Ok(result(Requirement::Exhausted { pool: n }, Vec::new()));
        }
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut indices: Vec<usize> = (0..n).collect();
        let mut subset = Vec::with_capacity(n);
        let mut curve = Vec::new();
        let mut size = start;
        loop {
            let mut sum_lower = 0.0;
            let mut sum_upper = 0.0;
            for _ in 0..config.rounds {
                for i in 0..size {
                    let j = rng.range(i..n);
                    indices.swap(i, j);
                }
                subset.clear();
                subset.extend(indices[..size].iter().map(|&i| pool[i]));
                let (lo, hi) = reference_subset_ci(&subset, config)?;
                sum_lower += lo;
                sum_upper += hi;
            }
            let mean_lower = sum_lower / config.rounds as f64;
            let mean_upper = sum_upper / config.rounds as f64;
            let rel_error = match config.criterion {
                ErrorCriterion::HalfWidth => (mean_upper - mean_lower) / (2.0 * reference.abs()),
                ErrorCriterion::WorstBound => {
                    let lo = (reference - mean_lower).abs();
                    let hi = (mean_upper - reference).abs();
                    lo.max(hi) / reference.abs()
                }
            };
            curve.push(SizePoint {
                subset_size: size,
                mean_lower,
                mean_upper,
                rel_error,
            });
            if rel_error <= config.target_rel_error {
                return Ok(result(Requirement::Satisfied(size), curve));
            }
            if size >= n {
                return Ok(result(Requirement::Exhausted { pool: n }, curve));
            }
            size = match config.growth {
                Growth::Linear(step) => (size + step).min(n),
                Growth::Geometric(f) => (((size as f64) * f).ceil() as usize).clamp(size + 1, n),
            };
        }
    }

    /// A continuous, right-skewed pool (shifted exponential), so tail
    /// quantiles have wide CIs and walk long curves.
    fn skewed_pool(seed: u64, n: usize) -> Vec<f64> {
        let mut u = splitmix(seed);
        (0..n).map(|_| 100.0 - 20.0 * (1.0 - u()).ln()).collect()
    }

    /// A pool of only three distinct values, weighted so the median CI's
    /// bounds land on different values from round to round.
    fn tied_pool(seed: u64, n: usize) -> Vec<f64> {
        let mut u = splitmix(seed);
        (0..n)
            .map(|_| match u() {
                x if x < 0.5 => 100.0,
                x if x < 0.97 => 104.0,
                _ => 131.0,
            })
            .collect()
    }

    /// Asserts that `estimate` equals `reference_estimate` bit for bit on
    /// `pool`, over every statistic, error criterion and growth schedule.
    /// Returns the number of curve points compared.
    fn assert_pinned_to_reference(pool: &[f64], seed: u64) -> usize {
        let statistics = [
            Statistic::Median,
            Statistic::Quantile(0.95),
            Statistic::Quantile(0.99),
            Statistic::Mean,
        ];
        let criteria = [ErrorCriterion::HalfWidth, ErrorCriterion::WorstBound];
        let growths = [Growth::Linear(1), Growth::Geometric(1.3)];
        let bits = |p: &SizePoint| {
            (
                p.subset_size,
                p.mean_lower.to_bits(),
                p.mean_upper.to_bits(),
                p.rel_error.to_bits(),
            )
        };
        let mut points = 0;
        for statistic in statistics {
            for criterion in criteria {
                for growth in growths {
                    let config = ConfirmConfig::default()
                        .with_statistic(statistic)
                        .with_criterion(criterion)
                        .with_growth(growth)
                        .with_rounds(10)
                        .with_target_rel_error(0.03)
                        .with_seed(seed);
                    let at = format!("n={} {statistic:?} {criterion:?} {growth:?}", pool.len());
                    let got = estimate(pool, &config).unwrap();
                    let want = reference_estimate(pool, &config).unwrap();
                    assert_eq!(got.requirement, want.requirement, "{at}");
                    assert_eq!(got.reference.to_bits(), want.reference.to_bits(), "{at}");
                    assert_eq!(got.curve.len(), want.curve.len(), "{at}");
                    for (g, w) in got.curve.iter().zip(&want.curve) {
                        assert_eq!(bits(g), bits(w), "{at}");
                    }
                    points += got.curve.len();
                }
            }
        }
        points
    }

    #[test]
    fn rank_path_is_bit_identical_on_small_pools() {
        for (n, seed) in [(10, 21), (60, 22)] {
            assert_pinned_to_reference(&skewed_pool(seed, n), seed);
            assert_pinned_to_reference(&tied_pool(seed, n), seed);
        }
    }

    #[test]
    fn rank_path_is_bit_identical_at_the_p99_floor() {
        assert!(assert_pinned_to_reference(&skewed_pool(23, 299), 23) > 100);
        assert!(assert_pinned_to_reference(&tied_pool(23, 299), 23) > 100);
    }

    #[test]
    fn rank_path_is_bit_identical_on_continuous_f10_sized_pools() {
        assert!(assert_pinned_to_reference(&skewed_pool(24, 800), 24) > 1000);
    }

    #[test]
    fn rank_path_is_bit_identical_on_tied_f10_sized_pools() {
        assert!(assert_pinned_to_reference(&tied_pool(24, 800), 24) > 1000);
    }

    #[test]
    fn looser_targets_are_read_off_the_stricter_curve_exactly() {
        let median = ConfirmConfig::default()
            .with_rounds(20)
            .with_seed(31)
            .with_target_rel_error(0.05);
        let cases = [
            (skewed_pool(31, 150), median),
            (
                skewed_pool(31, 150),
                median.with_growth(Growth::Geometric(1.25)),
            ),
            (tied_pool(32, 90), median.with_target_rel_error(0.002)),
            (
                uniform_pool(3, 50, 100.0, 40.0),
                median
                    .with_target_rel_error(0.001)
                    .with_growth(Growth::Geometric(1.3)),
            ),
            (
                uniform_pool(13, 50, 100.0, 10.0),
                median.with_statistic(Statistic::Quantile(0.99)),
            ),
            (
                skewed_pool(33, 120),
                median.with_ci_method(CiMethod::Bootstrap { resamples: 50 }),
            ),
        ];
        let (mut satisfied, mut exhausted, mut empty) = (0, 0, 0);
        for (pool, config) in &cases {
            let strict = estimate(pool, config).unwrap();
            match (strict.requirement, strict.curve.is_empty()) {
                (Requirement::Satisfied(_), _) => satisfied += 1,
                (Requirement::Exhausted { .. }, false) => exhausted += 1,
                (Requirement::Exhausted { .. }, true) => empty += 1,
            }
            // A point's own error is a target met exactly at it.
            let step = strict.curve.len() / 6 + 1;
            let mut targets: Vec<f64> = strict
                .curve
                .iter()
                .step_by(step)
                .map(|p| p.rel_error)
                .collect();
            targets.extend([config.target_rel_error, 0.003, 0.01, 0.02, 0.05, 0.2, 0.9]);
            for t in targets.into_iter().filter(|&t| t < 1.0) {
                let at = format!("n={} {config:?} t={t}", pool.len());
                if t < config.target_rel_error {
                    assert_eq!(strict.requirement_at(t), None, "{at}");
                    continue;
                }
                let loose = estimate(pool, &config.with_target_rel_error(t)).unwrap();
                assert_eq!(strict.requirement_at(t), Some(loose.requirement), "{at}");
                assert_eq!(loose.curve[..], strict.curve[..loose.curve.len()], "{at}");
            }
            assert_eq!(strict.requirement_at(config.target_rel_error / 2.0), None);
            assert_eq!(strict.requirement_at(1.0), None);
            assert_eq!(strict.requirement_at(f64::NAN), None);
        }
        assert!(
            satisfied >= 2 && exhausted >= 1 && empty >= 1,
            "{satisfied} satisfied, {exhausted} exhausted, {empty} empty"
        );
    }

    #[test]
    fn nth_set_bit_counts_across_words() {
        let mut bits = vec![0u64; 3];
        for rank in [0, 5, 63, 64, 130, 191] {
            bits[rank / 64] |= 1 << (rank % 64);
        }
        let found: Vec<usize> = (1..=6).map(|k| nth_set_bit(&bits, k)).collect();
        assert_eq!(found, [0, 5, 63, 64, 130, 191]);
    }

    #[test]
    fn tight_data_needs_minimum() {
        let pool = uniform_pool(1, 100, 100.0, 0.1); // CoV ~ 0.03%.
        let r = estimate(&pool, &ConfirmConfig::default()).unwrap();
        assert_eq!(r.repetitions(), Some(10));
        assert_eq!(r.requirement.display(), "10");
    }

    #[test]
    fn noisy_data_needs_more_than_tight_data() {
        let tight = uniform_pool(2, 200, 100.0, 1.0);
        let noisy = uniform_pool(2, 200, 100.0, 20.0);
        let cfg = ConfirmConfig::default();
        let rt = estimate(&tight, &cfg).unwrap();
        let rn = estimate(&noisy, &cfg).unwrap();
        assert!(
            rn.requirement.as_ordinal() > rt.requirement.as_ordinal(),
            "noisy {:?} should exceed tight {:?}",
            rn.requirement,
            rt.requirement
        );
    }

    #[test]
    fn impossible_target_exhausts_pool() {
        let pool = uniform_pool(3, 50, 100.0, 40.0); // Large spread, small pool.
        let cfg = ConfirmConfig::default().with_target_rel_error(0.001);
        let r = estimate(&pool, &cfg).unwrap();
        assert_eq!(r.requirement, Requirement::Exhausted { pool: 50 });
        assert_eq!(r.requirement.display(), ">50");
        assert_eq!(r.requirement.as_ordinal(), 51);
        assert_eq!(r.repetitions(), None);
    }

    #[test]
    fn deterministic_given_seed() {
        let pool = uniform_pool(4, 120, 50.0, 5.0);
        let cfg = ConfirmConfig::default().with_seed(7);
        let a = estimate(&pool, &cfg).unwrap();
        let b = estimate(&pool, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn looser_target_needs_fewer_reps() {
        let pool = uniform_pool(5, 300, 100.0, 10.0);
        let strict = estimate(
            &pool,
            &ConfirmConfig::default().with_target_rel_error(0.005),
        )
        .unwrap();
        let loose = estimate(&pool, &ConfirmConfig::default().with_target_rel_error(0.05)).unwrap();
        assert!(loose.requirement.as_ordinal() <= strict.requirement.as_ordinal());
    }

    #[test]
    fn curve_error_is_decreasing_overall() {
        let pool = uniform_pool(6, 200, 100.0, 10.0);
        let cfg = ConfirmConfig::default().with_target_rel_error(0.002);
        let r = estimate(&pool, &cfg).unwrap();
        assert!(r.curve.len() > 5);
        let first = r.curve.first().unwrap().rel_error;
        let last = r.curve.last().unwrap().rel_error;
        assert!(last < first, "error should shrink: {first} -> {last}");
    }

    #[test]
    fn geometric_growth_is_upper_bound_of_linear() {
        let pool = uniform_pool(7, 250, 100.0, 8.0);
        let lin = estimate(&pool, &ConfirmConfig::default()).unwrap();
        let geo = estimate(
            &pool,
            &ConfirmConfig::default().with_growth(Growth::Geometric(1.3)),
        )
        .unwrap();
        assert!(geo.requirement.as_ordinal() >= lin.requirement.as_ordinal());
        assert!(geo.curve.len() <= lin.curve.len());
    }

    #[test]
    fn mean_statistic_runs_and_matches_reference() {
        let pool = uniform_pool(8, 150, 42.0, 2.0);
        let cfg = ConfirmConfig::default().with_statistic(Statistic::Mean);
        let r = estimate(&pool, &cfg).unwrap();
        let mean = pool.iter().sum::<f64>() / pool.len() as f64;
        assert!((r.reference - mean).abs() < 1e-9);
        assert!(r.repetitions().is_some());
    }

    #[test]
    fn tail_quantile_needs_more_than_median() {
        let pool = uniform_pool(9, 400, 100.0, 10.0);
        let med = estimate(&pool, &ConfirmConfig::default().with_target_rel_error(0.02)).unwrap();
        let p99 = estimate(
            &pool,
            &ConfirmConfig::default()
                .with_target_rel_error(0.02)
                .with_statistic(Statistic::Quantile(0.99)),
        )
        .unwrap();
        // A valid two-sided 95% CI for p99 needs at least 299 samples, so
        // the p99 requirement must start there.
        assert!(
            p99.requirement.as_ordinal() >= 299,
            "p99 {:?}",
            p99.requirement
        );
        assert!(p99.requirement.as_ordinal() >= med.requirement.as_ordinal());
    }

    #[test]
    fn tail_quantile_on_small_pool_is_exhausted() {
        let pool = uniform_pool(13, 50, 100.0, 10.0);
        let r = estimate(
            &pool,
            &ConfirmConfig::default().with_statistic(Statistic::Quantile(0.99)),
        )
        .unwrap();
        assert_eq!(r.requirement, Requirement::Exhausted { pool: 50 });
        assert!(r.curve.is_empty());
    }

    #[test]
    fn validation_errors() {
        let pool = uniform_pool(10, 8, 1.0, 0.1);
        assert!(estimate(&pool, &ConfirmConfig::default()).is_err()); // pool < min_subset.
        assert!(estimate(&[], &ConfirmConfig::default()).is_err());
        let zeros = vec![0.0; 50];
        assert!(estimate(&zeros, &ConfirmConfig::default()).is_err()); // reference 0.
        let bad = ConfirmConfig::default().with_rounds(1);
        assert!(estimate(&uniform_pool(11, 50, 1.0, 0.1), &bad).is_err());
    }

    #[test]
    fn bootstrap_ci_method_agrees_with_order_statistic() {
        // The ablation: bootstrap percentile CIs should land in the same
        // ballpark as order-statistic CIs for the median.
        let pool = uniform_pool(14, 150, 100.0, 10.0);
        let os = estimate(&pool, &ConfirmConfig::default().with_rounds(60)).unwrap();
        let boot = estimate(
            &pool,
            &ConfirmConfig::default()
                .with_rounds(60)
                .with_ci_method(CiMethod::Bootstrap { resamples: 100 }),
        )
        .unwrap();
        let a = os.requirement.as_ordinal() as f64;
        let b = boot.requirement.as_ordinal() as f64;
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 4.0, "order-stat {a} vs bootstrap {b}");
    }

    #[test]
    fn worst_bound_criterion_is_no_looser() {
        let pool = uniform_pool(12, 200, 100.0, 12.0);
        let hw = estimate(
            &pool,
            &ConfirmConfig::default().with_criterion(ErrorCriterion::HalfWidth),
        )
        .unwrap();
        let wb = estimate(
            &pool,
            &ConfirmConfig::default().with_criterion(ErrorCriterion::WorstBound),
        )
        .unwrap();
        assert!(wb.requirement.as_ordinal() >= hw.requirement.as_ordinal());
    }
}
