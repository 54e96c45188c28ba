//! F6: the normality census.
//!
//! Shapiro–Wilk is run on every (machine, benchmark) sample set of the
//! campaign. The paper's headline: a large share of real benchmark data
//! is not normal, and which share depends on the subsystem — eventful,
//! skewed subsystems (disk, network latency) fail most.

use varstats::normality::NormalScores;
use workloads::BenchmarkId;

use crate::artifact::{pct, Artifact, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// Outcome of the census for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct NormalityCensusRow {
    /// Benchmark.
    pub benchmark: BenchmarkId,
    /// Number of (machine) sample sets tested.
    pub sets: usize,
    /// How many passed Shapiro–Wilk at the given alpha.
    pub passed: usize,
}

impl NormalityCensusRow {
    /// Fraction of sets passing.
    fn pass_rate(&self) -> f64 {
        if self.sets == 0 {
            0.0
        } else {
            self.passed as f64 / self.sets as f64
        }
    }
}

/// The census fold: per-benchmark (sets tested, sets passed) counters.
/// Each machine's set is complete within its shard, so the counters
/// accumulate shard by shard. Every set of a campaign has the same size,
/// so one normal-score table serves the whole census.
struct Census {
    alpha: f64,
    tallies: Vec<(usize, usize)>,
    scores: NormalScores,
}

impl Census {
    fn new(alpha: f64) -> Self {
        Census {
            alpha,
            tallies: vec![(0, 0); BenchmarkId::ALL.len()],
            scores: NormalScores::default(),
        }
    }

    fn observe(&mut self, shard: ShardView<'_>) {
        let _span = telemetry::span("f6.census");
        for (&benchmark, tally) in BenchmarkId::ALL.iter().zip(self.tallies.iter_mut()) {
            let sorted = shard.sorted(benchmark);
            if sorted.len() < 20 {
                continue;
            }
            let scores = self.scores.rebuild_for(sorted.len());
            if let Ok(result) = scores.shapiro_wilk_sorted(sorted) {
                tally.0 += 1;
                if result.is_normal(self.alpha) {
                    tally.1 += 1;
                }
            }
        }
    }

    fn rows(self) -> Vec<NormalityCensusRow> {
        BenchmarkId::ALL
            .iter()
            .zip(self.tallies)
            .map(|(&benchmark, (sets, passed))| NormalityCensusRow {
                benchmark,
                sets,
                passed,
            })
            .collect()
    }
}

impl ShardFold for Census {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        self.observe(shard);
        Ok(())
    }

    fn finish(self: Box<Self>, _ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let rows = self.rows();
        let mut t = Table::new(
            "F6",
            "Shapiro-Wilk normality census (alpha = 0.05), per benchmark",
            &["benchmark", "subsystem", "sets", "passed", "pass rate"],
        );
        let mut total_sets = 0usize;
        let mut total_passed = 0usize;
        for row in &rows {
            total_sets += row.sets;
            total_passed += row.passed;
            t.push_row(vec![
                row.benchmark.label().to_string(),
                row.benchmark.subsystem().label().to_string(),
                row.sets.to_string(),
                row.passed.to_string(),
                pct(row.pass_rate()),
            ]);
        }
        t.push_row(vec![
            "TOTAL".to_string(),
            "-".to_string(),
            total_sets.to_string(),
            total_passed.to_string(),
            pct(total_passed as f64 / total_sets.max(1) as f64),
        ]);
        Ok(vec![Artifact::Table(t)])
    }
}

/// Runs the census at significance `alpha`, in one shard pass.
///
/// # Errors
///
/// Fails only if a streaming context cannot read a journal shard.
pub fn census(ctx: &Context, alpha: f64) -> Result<Vec<NormalityCensusRow>, ExperimentError> {
    let mut census = Census::new(alpha);
    ctx.for_each_shard(|shard| census.observe(shard))?;
    Ok(census.rows())
}

/// F6's fold: the census at alpha = 0.05.
pub(crate) fn f6_fold() -> Box<dyn ShardFold> {
    Box::new(Census::new(0.05))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn census_covers_every_benchmark_and_machine() {
        let ctx = Context::new(Scale::Quick, 21);
        let rows = census(&ctx, 0.05).unwrap();
        assert_eq!(rows.len(), BenchmarkId::ALL.len());
        let machines = dataset::selected_machine_ids(&ctx.cluster, &ctx.campaign).len();
        for row in &rows {
            assert_eq!(row.sets, machines, "{:?}", row.benchmark);
            assert!(row.passed <= row.sets);
        }
    }

    #[test]
    fn eventful_subsystems_fail_more_than_memory_bandwidth() {
        // The campaign pools samples across a drifting, event-laden
        // timeline: disk and network-latency sets should pass normality
        // far less often than memory bandwidth (no drift, tiny normal
        // noise).
        let ctx = Context::new(Scale::Quick, 22);
        let rows = census(&ctx, 0.05).unwrap();
        let rate = |b: BenchmarkId| rows.iter().find(|r| r.benchmark == b).unwrap().pass_rate();
        let mem = rate(BenchmarkId::MemCopy);
        let disk = rate(BenchmarkId::DiskRandRead);
        let netlat = rate(BenchmarkId::NetLatency);
        assert!(mem > disk, "mem {mem} vs disk {disk}");
        assert!(mem > netlat, "mem {mem} vs net-lat {netlat}");
        assert!(disk < 0.5, "disk sets should mostly fail, rate {disk}");
    }

    #[test]
    fn f6_table_has_total_row() {
        let ctx = Context::new(Scale::Quick, 23);
        let artifacts = ctx.run_fold(f6_fold()).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), BenchmarkId::ALL.len() + 1);
                assert_eq!(t.rows.last().unwrap()[0], "TOTAL");
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn stricter_alpha_passes_more() {
        let ctx = Context::new(Scale::Quick, 24);
        let r5 = census(&ctx, 0.05).unwrap();
        let r1 = census(&ctx, 0.01).unwrap();
        let total = |rows: &[NormalityCensusRow]| -> usize { rows.iter().map(|r| r.passed).sum() };
        assert!(total(&r1) >= total(&r5));
    }
}
