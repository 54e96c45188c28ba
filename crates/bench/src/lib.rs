//! The benches' sampler, built on the repo's own stopping rule.
//!
//! Each bench times a fixed number of iterations per sample: a literal
//! at its call site, chosen once so that one sample lasts about a
//! millisecond, then frozen (SimpleBench found auto-scaled counts drove
//! run-to-run variance up to 105%). After one untimed warm-up sample,
//! each sample's time per iteration goes to a [`SequentialPlanner`] with
//! the paper's defaults, and sampling stops once the median's
//! order-statistic CI is within ±1% at 95% (`confirm`) or at `CAP`
//! samples (`cap`).
//!
//! Each bench prints one stderr line. [`Suite::finish`] prints the
//! suite's [`RunManifest`] (scale `bench`, one experiment per bench) to
//! stdout, and `repro sentinel record --from FILE` records it:
//!
//! ```text
//! cargo bench -p bench --bench serve_throughput > D/manifest.json
//! repro sentinel record --from D
//! ```

use std::hint::black_box;
use std::time::Instant;

use confirm::{ConfirmConfig, PlanStatus, SequentialPlanner};
use telemetry::RunManifest;
use varstats::ci::nonparametric::quantile_ci_approx;
use varstats::ci::ConfidenceInterval;
use varstats::rng::Rng;

/// Most samples a bench takes when its CI never narrows to ±1%.
const CAP: usize = 100;

/// A bench's median time per iteration, in ns, with its 95% CI.
#[derive(Debug)]
pub(crate) struct Estimate {
    ci: ConfidenceInterval,
    /// Samples taken, the warm-up not counted.
    samples: usize,
    /// `confirm` when the CI met ±1%, `cap` when [`CAP`] stopped it.
    stop: &'static str,
}

/// Pushes `sample()`'s times per iteration into the planner until it
/// stops. The clock stays with the caller.
pub(crate) fn sample_until_stop(mut sample: impl FnMut() -> f64) -> Estimate {
    let config = ConfirmConfig::default();
    let mut planner = SequentialPlanner::new(config, CAP);
    loop {
        let status = planner
            .push(sample())
            .expect("a finite, non-zero time per iteration");
        let (ci, stop) = match status {
            PlanStatus::Satisfied { ci, .. } => (ci, "confirm"),
            PlanStatus::CapReached { .. } => {
                let median = quantile_ci_approx(planner.data(), 0.5, config.confidence);
                (median.expect("CAP samples carry a median CI").ci, "cap")
            }
            _ => continue,
        };
        let samples = planner.len();
        return Estimate { ci, samples, stop };
    }
}

/// One bench binary's benches and the manifest they fill.
pub struct Suite {
    name: &'static str,
    started: Instant,
    manifest: RunManifest,
}

impl Suite {
    /// Starts the suite `name`, which prefixes each bench's id.
    pub fn new(name: &'static str) -> Self {
        let manifest = RunManifest::new("bench", env!("CARGO_PKG_VERSION"), 0, "bench");
        Suite {
            name,
            started: Instant::now(),
            manifest,
        }
    }

    /// Times `iters` calls of `f` per sample until the planner stops.
    pub fn bench<R>(&mut self, bench: &str, iters: u32, mut f: impl FnMut() -> R) {
        let mut sample = || {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        };
        sample(); // the warm-up, discarded
        let estimate = sample_until_stop(sample);
        self.record(bench, iters, &estimate);
    }

    /// Prints a bench's line and adds it to the manifest.
    pub(crate) fn record(&mut self, bench: &str, iters: u32, estimate: &Estimate) {
        let id = format!("{}/{bench}", self.name);
        let Estimate { ci, samples, stop } = estimate;
        eprintln!(
            "{id}: median {:.1} ns [{:.1}, {:.1}] 95% CI, {samples} x {iters} iters, stopped by {stop}",
            ci.estimate, ci.lower, ci.upper
        );
        self.manifest.push_experiment(&id, ci.estimate * 1e-9, 0);
    }

    /// The manifest as JSON text, stamped with the suite's wall time.
    pub(crate) fn manifest(&mut self) -> String {
        self.manifest.total_wall_secs = self.started.elapsed().as_secs_f64();
        self.manifest.to_json().pretty()
    }

    /// Prints the manifest to stdout: a bench main's last call.
    pub fn finish(mut self) {
        println!("{}", self.manifest());
    }
}

/// `n` right-skewed values above 100, like benchmark timings: a shifted
/// exponential drawn from [`Rng`] with `seed`.
pub fn skewed_data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| 100.0 * (1.0 - 0.1 * rng.f64().max(1e-12).ln()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_constant_stream_stops_by_confirm_at_the_minimum() {
        let estimate = sample_until_stop(|| 250.0);
        assert_eq!(estimate.stop, "confirm");
        assert_eq!(estimate.samples, ConfirmConfig::default().min_subset);
        assert_eq!((estimate.ci.lower, estimate.ci.upper), (250.0, 250.0));
    }

    #[test]
    fn a_stream_whose_ci_never_narrows_stops_by_cap() {
        let mut i = 0;
        let estimate = sample_until_stop(|| {
            i += 1;
            if i % 2 == 0 {
                100.0
            } else {
                200.0
            }
        });
        assert_eq!(estimate.stop, "cap");
        assert_eq!(estimate.samples, CAP);
        assert_eq!((estimate.ci.lower, estimate.ci.upper), (100.0, 200.0));
    }

    #[test]
    fn the_manifest_records_each_bench_as_a_wall_secs_metric() {
        let mut suite = Suite::new("suite");
        suite.record("fast", 1000, &sample_until_stop(|| 250.0));
        suite.record("slow", 10, &sample_until_stop(|| 4e6));
        let manifest = RunManifest::from_json(&suite.manifest()).expect("manifest JSON");
        assert_eq!(
            (manifest.tool.as_str(), manifest.scale.as_str()),
            ("bench", "bench")
        );
        let record = sentinel::RunRecord::from_manifest(&manifest, "bench", "all")
            .expect("a current manifest");
        assert_eq!(record.metrics["wall_secs.suite/fast"], 250.0 * 1e-9);
        assert_eq!(record.metrics["wall_secs.suite/slow"], 4e6 * 1e-9);
        assert!(record.metrics["total_wall_secs"] >= 0.0);
    }

    #[test]
    fn skewed_data_is_seeded_and_above_100() {
        let data = skewed_data(500, 1);
        assert_eq!(data, skewed_data(500, 1));
        assert_ne!(data, skewed_data(500, 2));
        assert!(data.iter().all(|&v| v >= 100.0));
    }
}
