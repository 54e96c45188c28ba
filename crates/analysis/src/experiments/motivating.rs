//! F1 (skewed repeated runs on one disk) and F2 (multimodal memory
//! bandwidth across machines) — the paper's motivating exhibits.

use varstats::histogram::{BinRule, Histogram};
use varstats::quantile::median;
use varstats::Summary;
use workloads::BenchmarkId;

use crate::artifact::{fmt, Artifact, SeriesSet, Table};
use crate::context::Context;
use crate::experiments::draw;
use crate::registry::ExperimentError;

/// Picks the first machine of the first HDD type.
fn first_hdd_machine(ctx: &Context) -> testbed::MachineId {
    let hdd_type = ctx
        .cluster
        .types()
        .iter()
        .find(|t| t.disk == testbed::DiskKind::Hdd)
        .expect("catalog has HDD types");
    ctx.cluster.machines_of_type(&hdd_type.name)[0].id
}

/// F1: 1000 repeated disk-write runs on one machine are skewed with a
/// distinct outlier tail; the mean and median visibly disagree.
pub(crate) fn f1_motivating(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let machine = first_hdd_machine(ctx);
    let runs: Vec<f64> = (0..1000u64)
        .map(|n| draw(&ctx.cluster, machine, BenchmarkId::DiskSeqWrite, 0.0, n))
        .collect::<Result<_, _>>()?;
    let summary = Summary::from_slice(&runs).expect("non-empty runs");
    let hist = Histogram::new(&runs, BinRule::Fixed(30)).expect("non-empty runs");

    let mut fig = SeriesSet::new(
        "F1",
        "Motivating example: 1000 disk-seq-write runs on one HDD machine",
        "throughput (MB/s)",
        "runs per bin",
    );
    fig.push_series(
        "histogram",
        (0..hist.bins())
            .map(|i| (hist.bin_center(i), hist.counts[i] as f64))
            .collect(),
    );

    let p5 = {
        let mut s = runs.clone();
        s.sort_by(|a, b| a.total_cmp(b));
        varstats::quantile::quantile_sorted(&s, 0.05, Default::default())
            .map_err(|e| ExperimentError::new(format!("p5 quantile: {e}")))?
    };
    let mut t = Table::new(
        "F1-summary",
        "Summary statistics of the F1 runs (mean vs median disagreement)",
        &["statistic", "value"],
    );
    for (name, v) in [
        ("n", summary.n as f64),
        ("mean", summary.mean),
        ("median", summary.median),
        ("std dev", summary.std_dev),
        ("CoV", summary.cov),
        ("skewness", summary.skewness),
        ("p5", p5),
        ("min", summary.min),
        ("max", summary.max),
        ("mean-median gap", summary.mean_median_gap()),
    ] {
        t.push_row(vec![name.to_string(), fmt(v, 4)]);
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

/// F2: per-machine median memory bandwidth across one type's fleet is
/// multimodal — nominally identical machines fall into distinct clusters.
pub(crate) fn f2_memory_multimodal(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    // Use the type with the largest provisioned fleet for a dense
    // histogram, and widen the per-machine pool beyond the campaign by
    // sampling directly (cross-machine structure needs many machines; the
    // quick campaign caps machines per type).
    let mtype = ctx
        .cluster
        .types()
        .iter()
        .max_by_key(|t| ctx.cluster.machines_of_type(&t.name).len())
        .expect("catalog non-empty");
    let machines = ctx.cluster.machines_of_type(&mtype.name);
    let medians: Vec<f64> = machines
        .iter()
        .map(|m| {
            let runs: Vec<f64> = (0..30u64)
                .map(|n| draw(&ctx.cluster, m.id, BenchmarkId::MemTriad, 0.0, n))
                .collect::<Result<_, _>>()?;
            median(&runs).map_err(|e| ExperimentError::new(format!("per-machine median: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let hist = Histogram::new(&medians, BinRule::Fixed(24)).expect("non-empty");
    let modes = hist.count_modes(0.04);

    let mut fig = SeriesSet::new(
        "F2",
        &format!(
            "Per-machine median mem-triad bandwidth across {} {} machines ({} modes detected)",
            machines.len(),
            mtype.name,
            modes
        ),
        "median bandwidth (MB/s)",
        "machines per bin",
    );
    fig.push_series(
        "histogram",
        (0..hist.bins())
            .map(|i| (hist.bin_center(i), hist.counts[i] as f64))
            .collect(),
    );

    let spread = {
        let min = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (max - min) / max
    };
    let mut t = Table::new(
        "F2-summary",
        "Cross-machine spread of per-machine medians (hardware lottery)",
        &["type", "machines", "modes", "relative spread"],
    );
    t.push_row(vec![
        mtype.name.clone(),
        machines.len().to_string(),
        modes.to_string(),
        crate::artifact::pct(spread),
    ]);
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn f1_shows_left_skewed_throughput() {
        let ctx = Context::new(Scale::Quick, 3);
        let artifacts = f1_motivating(&ctx).unwrap();
        assert_eq!(artifacts.len(), 2);
        // Throughput outliers are slow runs, so the mean must sit below
        // the median (left skew).
        match &artifacts[1] {
            Artifact::Table(t) => {
                let get = |name: &str| -> f64 {
                    t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                        .parse()
                        .unwrap()
                };
                assert!(
                    get("mean") < get("median"),
                    "disk outliers drag the mean down"
                );
                assert!(get("skewness") < 0.0);
                assert_eq!(get("n"), 1000.0);
            }
            _ => panic!("expected summary table"),
        }
    }

    #[test]
    fn f2_detects_multiple_modes() {
        // Use the paper-scale fleet restriction: quick context still has
        // the full provisioned fleet for the largest type (18 machines at
        // 0.1 scale), enough for modes to show with the 20%/3% clusters
        // at larger fleets; assert at least the artifact structure and
        // spread here.
        let ctx = Context::new(Scale::Quick, 4);
        let artifacts = f2_memory_multimodal(&ctx).unwrap();
        match &artifacts[1] {
            Artifact::Table(t) => {
                let spread: f64 = t.rows[0][3].trim_end_matches('%').parse().unwrap();
                assert!(
                    spread > 1.0,
                    "lottery spread should exceed 1%, got {spread}%"
                );
            }
            _ => panic!("expected summary table"),
        }
    }
}
