//! F8: confidence-interval width vs number of repetitions.
//!
//! For one representative machine per subsystem family, the relative
//! half-width of the non-parametric median CI is computed at increasing
//! repetition counts. The curves fall roughly as `1/sqrt(n)`, but from
//! very different starting points — the visual explanation of why disk
//! experiments need an order of magnitude more repetitions.

use varstats::ci::nonparametric::median_ci_approx;
use workloads::{sample, BenchmarkId};

use crate::artifact::{Artifact, SeriesSet};
use crate::context::Context;
use crate::registry::ExperimentError;

/// Repetition counts evaluated.
const SWEEP: [usize; 7] = [10, 20, 40, 80, 150, 300, 500];

/// The benchmarks each curve represents.
const REPRESENTATIVES: [BenchmarkId; 4] = [
    BenchmarkId::MemTriad,
    BenchmarkId::DiskSeqRead,
    BenchmarkId::DiskRandRead,
    BenchmarkId::NetBandwidth,
];

/// Computes the CI-halfwidth curve for `bench` on the first machine of
/// the first HDD type (disk benches) or the biggest fleet (others).
fn convergence_curve(ctx: &Context, bench: BenchmarkId) -> Vec<(f64, f64)> {
    let machine = ctx
        .cluster
        .types()
        .iter()
        .find(|t| t.disk == testbed::DiskKind::Hdd)
        .map(|t| ctx.cluster.machines_of_type(&t.name)[0].id)
        .expect("catalog has HDD types");
    SWEEP
        .iter()
        .map(|&n| {
            let runs: Vec<f64> = (0..n as u64)
                .map(|nonce| {
                    sample(&ctx.cluster, machine, bench, 0.0, nonce)
                        .expect("machine comes from this cluster")
                })
                .collect();
            let ci = median_ci_approx(&runs, 0.95).expect("n >= 10");
            (n as f64, ci.ci.relative_half_width())
        })
        .collect()
}

/// F8: one series per representative benchmark.
pub(crate) fn f8_ci_convergence(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let mut fig = SeriesSet::new(
        "F8",
        "Median-CI relative half-width vs repetitions (one HDD machine)",
        "repetitions",
        "CI half-width / median",
    );
    for bench in REPRESENTATIVES {
        fig.push_series(bench.label(), convergence_curve(ctx, bench));
    }
    Ok(vec![Artifact::Figure(fig)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn curves_shrink_with_n() {
        let ctx = Context::new(Scale::Quick, 41);
        for bench in REPRESENTATIVES {
            let curve = convergence_curve(&ctx, bench);
            let first = curve.first().unwrap().1;
            let last = curve.last().unwrap().1;
            assert!(
                last < first,
                "{bench}: width should shrink, {first} -> {last}"
            );
        }
    }

    #[test]
    fn disk_curve_sits_above_memory_curve() {
        let ctx = Context::new(Scale::Quick, 42);
        let disk = convergence_curve(&ctx, BenchmarkId::DiskRandRead);
        let mem = convergence_curve(&ctx, BenchmarkId::MemTriad);
        // At every sweep point the disk CI is wider.
        for (d, m) in disk.iter().zip(mem.iter()) {
            assert!(d.1 > m.1, "at n={} disk {} <= mem {}", d.0, d.1, m.1);
        }
    }

    #[test]
    fn shrinkage_is_roughly_sqrt_n() {
        let ctx = Context::new(Scale::Quick, 43);
        let curve = convergence_curve(&ctx, BenchmarkId::DiskSeqRead);
        let at_10 = curve[0].1;
        let at_500 = curve.last().unwrap().1;
        let ratio = at_10 / at_500;
        // sqrt(500/10) ~ 7.1; allow a wide band for order-statistic
        // discreteness.
        assert!((2.0..25.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn f8_artifact_shape() {
        let ctx = Context::new(Scale::Quick, 44);
        let artifacts = f8_ci_convergence(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Figure(f) => {
                assert_eq!(f.series.len(), REPRESENTATIVES.len());
                assert!(f.series.iter().all(|s| s.points.len() == SWEEP.len()));
            }
            _ => panic!("expected figure"),
        }
    }
}
