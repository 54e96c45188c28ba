//! T7: variance homogeneity across same-type machines.
//!
//! "Nominally identical machines behave identically" has two parts:
//! equal location (tested by the lottery analyses) and equal *spread*.
//! Brown–Forsythe tests the latter across every machine of each type:
//! rejection means even the run-to-run noise differs per unit — one more
//! reason single-machine results do not generalize to a type.

use std::collections::BTreeMap;

use varstats::anova::BrownForsytheFold;
use varstats::quantile::{quantile_sorted, QuantileMethod};
use workloads::BenchmarkId;

use crate::artifact::{fmt, Artifact, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// Outcome for one (type, benchmark) cell.
#[derive(Debug, Clone)]
struct HomogeneityCell {
    /// Machine type.
    pub type_name: String,
    /// Brown–Forsythe p-value across the type's machines.
    pub p_value: f64,
}

/// Brown–Forsythe folds across each type's machines for each of a list
/// of benchmarks.
///
/// Each (benchmark, type) cell folds its machines in ascending id order
/// — the grouped walk's groups, in its order — keeping only a size and a
/// mean per machine. A machine the test would reject (too few or
/// non-finite values) voids its cell, as it fails the whole test.
struct Homogeneity {
    benches: Vec<BenchmarkId>,
    per_bench: Vec<BTreeMap<String, Option<BrownForsytheFold>>>,
}

impl Homogeneity {
    fn new(benches: &[BenchmarkId]) -> Self {
        Homogeneity {
            benches: benches.to_vec(),
            per_bench: vec![BTreeMap::new(); benches.len()],
        }
    }

    fn observe(&mut self, shard: ShardView<'_>) {
        for (&bench, per_type) in self.benches.iter().zip(self.per_bench.iter_mut()) {
            let values = shard.values(bench);
            if values.is_empty() {
                continue;
            }
            let cell = per_type
                .entry(shard.type_name.to_string())
                .or_insert_with(|| Some(BrownForsytheFold::new()));
            let Some(fold) = cell else { continue };
            // The deviations stay in record order; only the median comes
            // from the shard's shared sorted column.
            let pushed = quantile_sorted(shard.sorted(bench), 0.5, QuantileMethod::Linear)
                .and_then(|median| fold.push_with_median(&values, median));
            if pushed.is_err() {
                *cell = None;
            }
        }
    }

    /// The cells of every benchmark, in order; a type's cell is missing
    /// when the test cannot run on it.
    fn cells(&self, ctx: &Context) -> Vec<Vec<HomogeneityCell>> {
        self.per_bench
            .iter()
            .map(|per_type| {
                ctx.cluster
                    .types()
                    .iter()
                    .filter_map(|mtype| {
                        let fold = per_type.get(&mtype.name)?.as_ref()?;
                        let r = fold.finish().ok()?;
                        Some(HomogeneityCell {
                            type_name: mtype.name.clone(),
                            p_value: r.p_value,
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

impl ShardFold for Homogeneity {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        let _span = telemetry::span("t7.homogeneity");
        self.observe(shard);
        Ok(())
    }

    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let mut summary = Table::new(
            "T7",
            "Brown-Forsythe variance homogeneity across same-type machines (alpha = 0.05)",
            &["benchmark", "types tested", "types rejected", "min p"],
        );
        let all = self.cells(ctx);
        for (bench, cells) in self.benches.iter().zip(&all) {
            let rejected = cells.iter().filter(|c| c.p_value < 0.05).count();
            let min_p = cells
                .iter()
                .map(|c| c.p_value)
                .fold(f64::INFINITY, f64::min);
            summary.push_row(vec![
                bench.label().to_string(),
                cells.len().to_string(),
                rejected.to_string(),
                fmt(min_p, 4),
            ]);
        }

        let mut detail = Table::new(
            "T7-detail",
            "Per-type Brown-Forsythe p-values (disk-seq-read)",
            &["type", "p-value", "homogeneous at 5%"],
        );
        let disk = self
            .benches
            .iter()
            .position(|&b| b == BenchmarkId::DiskSeqRead)
            .expect("disk-seq-read is summarized");
        for cell in &all[disk] {
            detail.push_row(vec![
                cell.type_name.clone(),
                fmt(cell.p_value, 4),
                (cell.p_value >= 0.05).to_string(),
            ]);
        }
        Ok(vec![Artifact::Table(summary), Artifact::Table(detail)])
    }
}

/// T7's fold: per-benchmark fraction of types whose machines fail
/// variance homogeneity, plus the per-type detail for the
/// representative disk benchmark.
pub(crate) fn t7_fold() -> Box<dyn ShardFold> {
    Box::new(Homogeneity::new(&[
        BenchmarkId::MemTriad,
        BenchmarkId::DiskSeqRead,
        BenchmarkId::DiskRandRead,
        BenchmarkId::NetLatency,
        BenchmarkId::NetBandwidth,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    /// Runs Brown–Forsythe across each type's machines for each of
    /// `benches`, from one shard pass.
    ///
    /// # Errors
    ///
    /// Fails only if a streaming context cannot read a journal shard.
    fn homogeneity(
        ctx: &Context,
        benches: &[BenchmarkId],
    ) -> Result<Vec<Vec<HomogeneityCell>>, ExperimentError> {
        let mut folds = Homogeneity::new(benches);
        ctx.for_each_shard(|shard| folds.observe(shard))?;
        Ok(folds.cells(ctx))
    }

    #[test]
    fn homogeneity_mostly_holds_in_the_simulator() {
        // The simulator's lottery scales each machine's noise only in
        // proportion to its level, so *relative* spreads are nearly
        // equal across same-type machines; at 5% the rejection count
        // should look like the test's false-positive rate, not a
        // wholesale rejection. (A testbed where this fails wholesale
        // would be tagging genuinely heteroscedastic hardware.)
        let ctx = Context::new(Scale::Quick, 141);
        for bench in [BenchmarkId::DiskRandRead, BenchmarkId::NetBandwidth] {
            let cells = homogeneity(&ctx, &[bench]).unwrap().remove(0);
            let rejected = cells.iter().filter(|c| c.p_value < 0.05).count();
            assert!(
                rejected <= cells.len() / 2,
                "{bench}: {rejected}/{} rejections",
                cells.len()
            );
        }
    }

    #[test]
    fn genuinely_heteroscedastic_groups_are_caught() {
        // Sanity: the pipeline's test has power when spreads really
        // differ — mix machines from two types whose absolute disk noise
        // differs by an order of magnitude (HDD vs NVMe baselines).
        let ctx = Context::new(Scale::Quick, 144);
        let store = dataset::collect(&ctx.cluster, &ctx.campaign, &Default::default())
            .unwrap()
            .store
            .expect("without a journal the records stay in memory");
        let groups: Vec<Vec<f64>> = ["c220g1", "m510"]
            .into_iter()
            .flat_map(|ty| ctx.cluster.machines_of_type(ty))
            .map(|m| {
                store
                    .filter()
                    .benchmark(BenchmarkId::DiskSeqRead)
                    .machine(m.id)
                    .values()
            })
            .filter(|values| !values.is_empty())
            .collect();
        let refs: Vec<&[f64]> = groups.iter().map(|v| v.as_slice()).collect();
        let r = varstats::anova::brown_forsythe(&refs).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn cells_cover_types_with_enough_machines() {
        let ctx = Context::new(Scale::Quick, 142);
        let cells = homogeneity(&ctx, &[BenchmarkId::MemTriad])
            .unwrap()
            .remove(0);
        assert_eq!(cells.len(), ctx.cluster.types().len());
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.p_value));
        }
    }

    #[test]
    fn t7_artifact_shape() {
        let ctx = Context::new(Scale::Quick, 143);
        let artifacts = ctx.run_fold(t7_fold()).unwrap();
        assert_eq!(artifacts.len(), 2);
        match &artifacts[0] {
            Artifact::Table(t) => assert_eq!(t.rows.len(), 5),
            _ => panic!("expected table"),
        }
    }
}
