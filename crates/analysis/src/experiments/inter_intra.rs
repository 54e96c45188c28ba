//! F12: inter- vs intra-machine variability decomposition.
//!
//! For each (type, benchmark) the total variance across all samples is
//! split into the within-machine component (mean of per-machine
//! variances) and the between-machine component (variance of per-machine
//! means). The paper's finding: machine identity explains a substantial
//! share — nominally identical machines differ persistently, by up to
//! ~10% end to end.

use std::collections::BTreeMap;

use varstats::descriptive::Moments;
use varstats::quantile::{quantile_sorted, QuantileMethod};
use workloads::BenchmarkId;

use crate::artifact::{pct, Artifact, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// Variance decomposition of one (type, benchmark) cell.
#[derive(Debug, Clone)]
struct Decomposition {
    /// Machine type.
    pub type_name: String,
    /// Benchmark.
    pub benchmark: BenchmarkId,
    /// Number of machines.
    pub machines: usize,
    /// Fraction of total variance explained by machine identity.
    pub between_fraction: f64,
    /// Relative spread of per-machine medians `(max - min) / max`.
    pub median_spread: f64,
}

/// What the decomposition keeps of one machine's values once its shard
/// is dropped.
struct MachineMoments {
    variance: f64,
    mean: f64,
    median: f64,
}

/// Per-type machine moments for each of a list of benchmarks, folded
/// shard by shard in ascending machine order — the same per-machine
/// vectors the grouped store walk yields, reduced as they stream by.
struct MomentCells {
    benches: Vec<BenchmarkId>,
    per_bench: Vec<BTreeMap<String, Vec<MachineMoments>>>,
}

impl MomentCells {
    fn new(benches: &[BenchmarkId]) -> Self {
        MomentCells {
            benches: benches.to_vec(),
            per_bench: (0..benches.len()).map(|_| BTreeMap::new()).collect(),
        }
    }

    fn observe(&mut self, shard: ShardView<'_>) {
        for (&bench, per_type) in self.benches.iter().zip(self.per_bench.iter_mut()) {
            let values = shard.values(bench);
            if values.is_empty() {
                continue;
            }
            let m: Moments = values.iter().copied().collect();
            per_type
                .entry(shard.type_name.to_string())
                .or_default()
                .push(MachineMoments {
                    variance: m.population_variance(),
                    mean: m.mean(),
                    median: quantile_sorted(shard.sorted(bench), 0.5, QuantileMethod::Linear)
                        .expect("non-empty"),
                });
        }
    }
}

/// Decomposes one (type, benchmark) from its machines' moments, or
/// `None` with fewer than two machines.
fn decomposition(
    type_name: &str,
    bench: BenchmarkId,
    machines: &[MachineMoments],
) -> Option<Decomposition> {
    if machines.len() < 2 {
        return None;
    }
    let within = machines.iter().fold(0.0, |acc, m| acc + m.variance) / machines.len() as f64;
    let between: Moments = machines.iter().map(|m| m.mean).collect();
    let between_var = between.population_variance();
    let total = within + between_var;
    let max = machines
        .iter()
        .map(|m| m.median)
        .fold(f64::NEG_INFINITY, f64::max);
    let min = machines
        .iter()
        .map(|m| m.median)
        .fold(f64::INFINITY, f64::min);
    Some(Decomposition {
        type_name: type_name.to_string(),
        benchmark: bench,
        machines: machines.len(),
        between_fraction: if total > 0.0 {
            between_var / total
        } else {
            0.0
        },
        median_spread: if max > 0.0 { (max - min) / max } else { 0.0 },
    })
}

impl ShardFold for MomentCells {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        let _span = telemetry::span("f12.moments");
        self.observe(shard);
        Ok(())
    }

    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let mut t = Table::new(
            "F12",
            "Inter- vs intra-machine variability (between-machine variance share)",
            &[
                "type",
                "benchmark",
                "machines",
                "between-machine share",
                "median spread",
            ],
        );
        for (bench, per_type) in self.benches.into_iter().zip(self.per_bench) {
            for mtype in ctx.cluster.types() {
                let Some(machines) = per_type.get(&mtype.name) else {
                    continue;
                };
                if let Some(d) = decomposition(&mtype.name, bench, machines) {
                    t.push_row(vec![
                        d.type_name,
                        d.benchmark.label().to_string(),
                        d.machines.to_string(),
                        pct(d.between_fraction),
                        pct(d.median_spread),
                    ]);
                }
            }
        }
        Ok(vec![Artifact::Table(t)])
    }
}

/// F12's fold: the decomposition for memory and disk benchmarks.
pub(crate) fn f12_fold() -> Box<dyn ShardFold> {
    Box::new(MomentCells::new(&[
        BenchmarkId::MemTriad,
        BenchmarkId::DiskSeqRead,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    /// Per-type machine moments for each of `benches`, from one shard pass.
    fn machine_moments(
        ctx: &Context,
        benches: &[BenchmarkId],
    ) -> Result<Vec<BTreeMap<String, Vec<MachineMoments>>>, ExperimentError> {
        let mut cells = MomentCells::new(benches);
        ctx.for_each_shard(|shard| cells.observe(shard))?;
        Ok(cells.per_bench)
    }

    fn decompose(
        ctx: &Context,
        type_name: &str,
        bench: BenchmarkId,
    ) -> Result<Option<Decomposition>, ExperimentError> {
        let per_type = machine_moments(ctx, &[bench])?.remove(0);
        Ok(per_type
            .get(type_name)
            .and_then(|machines| decomposition(type_name, bench, machines)))
    }

    #[test]
    fn memory_lottery_dominates_within_machine_noise() {
        // Memory bandwidth: per-run noise is ~0.4% but the lottery is
        // several percent, so machine identity should explain most of
        // the variance for at least some types.
        let ctx = Context::new(Scale::Quick, 81);
        let fractions: Vec<f64> = ctx
            .cluster
            .types()
            .iter()
            .filter_map(|t| decompose(&ctx, &t.name, BenchmarkId::MemTriad).unwrap())
            .map(|d| d.between_fraction)
            .collect();
        assert!(!fractions.is_empty());
        let max = fractions.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.5, "lottery share should dominate somewhere: {max}");
    }

    #[test]
    fn disk_noise_reduces_the_between_share() {
        // Disk run noise is large, so the between-machine share for disk
        // should typically sit below memory's.
        let ctx = Context::new(Scale::Quick, 82);
        let avg = |bench: BenchmarkId| -> f64 {
            let fr: Vec<f64> = ctx
                .cluster
                .types()
                .iter()
                .filter_map(|t| decompose(&ctx, &t.name, bench).unwrap())
                .map(|d| d.between_fraction)
                .collect();
            fr.iter().sum::<f64>() / fr.len() as f64
        };
        assert!(avg(BenchmarkId::MemTriad) > avg(BenchmarkId::DiskSeqRead));
    }

    #[test]
    fn median_spread_reaches_paper_magnitude() {
        // "Up to ~10%" — the worst type's memory spread should be at
        // least a few percent.
        let ctx = Context::new(Scale::Quick, 83);
        let max_spread = ctx
            .cluster
            .types()
            .iter()
            .filter_map(|t| decompose(&ctx, &t.name, BenchmarkId::MemTriad).unwrap())
            .map(|d| d.median_spread)
            .fold(0.0, f64::max);
        assert!(
            (0.02..0.15).contains(&max_spread),
            "max spread {max_spread}"
        );
    }

    #[test]
    fn single_machine_type_is_skipped() {
        let ctx = Context::new(Scale::Quick, 84);
        assert!(decompose(&ctx, "no-such-type", BenchmarkId::MemTriad)
            .unwrap()
            .is_none());
    }

    #[test]
    fn f12_table_is_populated() {
        let ctx = Context::new(Scale::Quick, 85);
        let artifacts = ctx.run_fold(f12_fold()).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), 2 * ctx.cluster.types().len());
            }
            _ => panic!("expected table"),
        }
    }
}
