//! F3/F4/F5: coefficient-of-variation by machine type, per subsystem
//! family.
//!
//! For every machine the run-to-run CoV of each benchmark is computed
//! from its campaign samples; the table reports the median per-machine
//! CoV per (type, benchmark), plus the cross-machine CoV of per-machine
//! medians (the hardware-lottery component). The paper's ordering —
//! disk ≫ memory > network throughput — must emerge.

use std::collections::BTreeMap;

use varstats::descriptive::Moments;
use varstats::quantile::{median, quantile_sorted, QuantileMethod};
use workloads::BenchmarkId;

use crate::artifact::{pct, Artifact, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// Per-(type, benchmark) variability decomposition.
struct CovRow {
    type_name: String,
    disk: &'static str,
    median_within_cov: f64,
    across_cov: f64,
    machines: usize,
}

/// Per-machine (cov, median) pairs bucketed by benchmark and type, in
/// canonical machine order.
struct CovCells {
    benches: Vec<BenchmarkId>,
    per_bench: Vec<BTreeMap<String, Vec<(f64, f64)>>>,
}

impl CovCells {
    fn new(benches: &[BenchmarkId]) -> Self {
        CovCells {
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
            let moments: Moments = values.iter().copied().collect();
            let cov = moments.cov().unwrap_or(0.0);
            let med = quantile_sorted(shard.sorted(bench), 0.5, QuantileMethod::Linear)
                .expect("non-empty group");
            per_type
                .entry(shard.type_name.to_string())
                .or_default()
                .push((cov, med));
        }
    }

    /// The decomposition rows of every benchmark, in order.
    fn rows(self, ctx: &Context) -> Vec<Vec<CovRow>> {
        self.per_bench
            .into_iter()
            .map(|per_type| type_rows(ctx, per_type))
            .collect()
    }
}

/// One family's table: F3, F4 or F5.
struct FamilyFold {
    id: &'static str,
    title: &'static str,
    /// The span each step opens (`f3.cov`, ...): a static name, so a
    /// step with telemetry off costs one relaxed load.
    span: &'static str,
    cells: CovCells,
}

impl ShardFold for FamilyFold {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        let _span = telemetry::span(self.span);
        self.cells.observe(shard);
        Ok(())
    }

    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let mut t = Table::new(
            self.id,
            self.title,
            &[
                "type",
                "disk",
                "benchmark",
                "machines",
                "median within-machine CoV",
                "across-machine CoV",
            ],
        );
        let benches = self.cells.benches.clone();
        for (bench, rows) in benches.into_iter().zip(self.cells.rows(ctx)) {
            for row in rows {
                t.push_row(vec![
                    row.type_name,
                    row.disk.to_string(),
                    bench.label().to_string(),
                    row.machines.to_string(),
                    pct(row.median_within_cov),
                    pct(row.across_cov),
                ]);
            }
        }
        Ok(vec![Artifact::Table(t)])
    }
}

/// The decomposition rows of every benchmark in `benches`, in order,
/// from one shard pass.
fn cov_rows(ctx: &Context, benches: &[BenchmarkId]) -> Result<Vec<Vec<CovRow>>, ExperimentError> {
    let mut cells = CovCells::new(benches);
    ctx.for_each_shard(|shard| cells.observe(shard))?;
    Ok(cells.rows(ctx))
}

fn family(
    id: &'static str,
    title: &'static str,
    span: &'static str,
    benches: &[BenchmarkId],
) -> Box<dyn ShardFold> {
    Box::new(FamilyFold {
        id,
        title,
        span,
        cells: CovCells::new(benches),
    })
}

/// Summarizes one benchmark's per-type (cov, median) pairs into rows.
fn type_rows(ctx: &Context, per_type: BTreeMap<String, Vec<(f64, f64)>>) -> Vec<CovRow> {
    per_type
        .into_iter()
        .map(|(type_name, entries)| {
            let covs: Vec<f64> = entries.iter().map(|(c, _)| *c).collect();
            let medians: Vec<f64> = entries.iter().map(|(_, m)| *m).collect();
            let across: Moments = medians.iter().copied().collect();
            let disk = ctx
                .cluster
                .types()
                .iter()
                .find(|t| t.name == type_name)
                .map(|t| t.disk.label())
                .unwrap_or("?");
            CovRow {
                type_name,
                disk,
                median_within_cov: median(&covs).expect("non-empty"),
                across_cov: across.cov().unwrap_or(0.0),
                machines: entries.len(),
            }
        })
        .collect()
}

/// F3's fold: memory-family CoV by type.
pub(crate) fn f3_fold() -> Box<dyn ShardFold> {
    family(
        "F3",
        "CoV by machine type: memory benchmarks",
        "f3.cov",
        &[
            BenchmarkId::MemCopy,
            BenchmarkId::MemTriad,
            BenchmarkId::MemLatency,
        ],
    )
}

/// F4's fold: disk-family CoV by type (HDD vs SSD ordering).
pub(crate) fn f4_fold() -> Box<dyn ShardFold> {
    family(
        "F4",
        "CoV by machine type: disk benchmarks",
        "f4.cov",
        &BenchmarkId::DISK,
    )
}

/// F5's fold: network-family CoV by type (throughput the most stable
/// subsystem).
pub(crate) fn f5_fold() -> Box<dyn ShardFold> {
    family(
        "F5",
        "CoV by machine type: network benchmarks",
        "f5.cov",
        &BenchmarkId::NETWORK,
    )
}

/// Median within-machine CoV across all types for one benchmark —
/// the summary number the cross-family comparisons quote.
pub fn overall_cov(ctx: &Context, bench: BenchmarkId) -> f64 {
    let rows = cov_rows(ctx, &[bench])
        .expect("data path readable")
        .remove(0);
    let covs: Vec<f64> = rows.iter().map(|r| r.median_within_cov).collect();
    median(&covs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn paper_ordering_disk_over_memory_over_network() {
        let ctx = Context::new(Scale::Quick, 11);
        let disk = overall_cov(&ctx, BenchmarkId::DiskRandRead);
        let mem = overall_cov(&ctx, BenchmarkId::MemTriad);
        let net = overall_cov(&ctx, BenchmarkId::NetBandwidth);
        assert!(disk > mem, "disk {disk} vs mem {mem}");
        assert!(mem > net, "mem {mem} vs net {net}");
    }

    #[test]
    fn tables_cover_all_types() {
        let ctx = Context::new(Scale::Quick, 12);
        for (fold, rows_per_bench) in [
            (f3_fold as fn() -> Box<dyn ShardFold>, 3usize),
            (f4_fold, 4),
            (f5_fold, 2),
        ] {
            let artifacts = ctx.run_fold(fold()).unwrap();
            match &artifacts[0] {
                Artifact::Table(t) => {
                    assert_eq!(t.rows.len(), rows_per_bench * ctx.cluster.types().len());
                }
                _ => panic!("expected table"),
            }
        }
    }

    #[test]
    fn hdd_types_show_higher_disk_cov_than_flash() {
        let ctx = Context::new(Scale::Quick, 13);
        let rows = cov_rows(&ctx, &[BenchmarkId::DiskSeqRead])
            .unwrap()
            .remove(0);
        let hdd_med = median(
            &rows
                .iter()
                .filter(|r| r.disk == "HDD")
                .map(|r| r.median_within_cov)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let flash_med = median(
            &rows
                .iter()
                .filter(|r| r.disk != "HDD")
                .map(|r| r.median_within_cov)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(hdd_med > flash_med, "hdd {hdd_med} vs flash {flash_med}");
    }
}
