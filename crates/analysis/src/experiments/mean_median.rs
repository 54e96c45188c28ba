//! F7: mean vs median robustness under contamination.
//!
//! The paper argues for median-based, non-parametric reporting. This
//! experiment makes the argument quantitative: a clean normal population
//! is contaminated with an increasing fraction of slow outlier runs, and
//! the bias of the mean (with its t-interval) is compared to the bias of
//! the median (with its order-statistic interval).

use varstats::ci::nonparametric::median_ci_exact;
use varstats::ci::parametric::mean_ci_t;
use varstats::quantile::median;
use varstats::rng::Rng;

use crate::artifact::{fmt, pct, Artifact, SeriesSet, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// One contamination level's outcome.
#[derive(Debug, Clone, Copy)]
struct ContaminationPoint {
    /// Fraction of contaminated samples.
    pub contamination: f64,
    /// Relative bias of the mean estimate vs the clean truth.
    pub mean_bias: f64,
    /// Relative bias of the median estimate.
    pub median_bias: f64,
    /// Mean CI relative half width.
    pub mean_ci_halfwidth: f64,
    /// Median CI relative half width.
    pub median_ci_halfwidth: f64,
}

/// Runs the sweep: `trials` datasets of `n` samples at each contamination
/// level; outliers run `outlier_factor` times slower.
fn contamination_sweep(
    seed: u64,
    n: usize,
    trials: usize,
    outlier_factor: f64,
) -> Vec<ContaminationPoint> {
    let truth = 100.0;
    let mut rng = Rng::seed_from_u64(seed);
    let levels = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2];
    levels
        .iter()
        .map(|&contamination| {
            let mut mean_bias = 0.0;
            let mut median_bias = 0.0;
            let mut mean_hw = 0.0;
            let mut median_hw = 0.0;
            for _ in 0..trials {
                let data: Vec<f64> = (0..n)
                    .map(|_| {
                        // Box-Muller normal around the truth.
                        let u1: f64 = rng.f64().max(1e-12);
                        let u2: f64 = rng.f64();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        let base = truth + z;
                        if rng.f64() < contamination {
                            base * outlier_factor
                        } else {
                            base
                        }
                    })
                    .collect();
                let m_ci = mean_ci_t(&data, 0.95).expect("n >= 2");
                let med_ci = median_ci_exact(&data, 0.95).expect("n >= 3");
                mean_bias += (m_ci.estimate - truth) / truth;
                median_bias += (median(&data).expect("trial pool is non-empty") - truth) / truth;
                mean_hw += m_ci.relative_half_width();
                median_hw += med_ci.ci.relative_half_width();
            }
            let t = trials as f64;
            ContaminationPoint {
                contamination,
                mean_bias: mean_bias / t,
                median_bias: median_bias / t,
                mean_ci_halfwidth: mean_hw / t,
                median_ci_halfwidth: median_hw / t,
            }
        })
        .collect()
}

/// F7 artifacts: bias curves and the summary table.
pub(crate) fn f7_mean_vs_median(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let points = contamination_sweep(ctx.seed.wrapping_add(7), 50, 60, 3.0);
    let mut fig = SeriesSet::new(
        "F7",
        "Estimator bias under contamination (outliers 3x slower, n = 50)",
        "contamination fraction",
        "relative bias of estimate",
    );
    fig.push_series(
        "mean",
        points
            .iter()
            .map(|p| (p.contamination, p.mean_bias))
            .collect(),
    );
    fig.push_series(
        "median",
        points
            .iter()
            .map(|p| (p.contamination, p.median_bias))
            .collect(),
    );
    let mut t = Table::new(
        "F7-summary",
        "Bias and CI half-width by contamination level",
        &[
            "contamination",
            "mean bias",
            "median bias",
            "mean CI halfwidth",
            "median CI halfwidth",
        ],
    );
    for p in &points {
        t.push_row(vec![
            pct(p.contamination),
            fmt(p.mean_bias, 5),
            fmt(p.median_bias, 5),
            fmt(p.mean_ci_halfwidth, 5),
            fmt(p.median_ci_halfwidth, 5),
        ]);
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn mean_bias_grows_median_stays() {
        let points = contamination_sweep(1, 50, 40, 3.0);
        let clean = &points[0];
        let dirty = points.last().unwrap();
        // 20% contamination at 3x shifts the mean by ~40%; the median
        // barely moves.
        assert!(dirty.mean_bias > 0.2, "mean bias {}", dirty.mean_bias);
        assert!(
            dirty.median_bias.abs() < 0.05,
            "median bias {}",
            dirty.median_bias
        );
        assert!(clean.mean_bias.abs() < 0.01);
        // Contamination also blows up the mean's CI width.
        assert!(dirty.mean_ci_halfwidth > 3.0 * clean.mean_ci_halfwidth);
    }

    #[test]
    fn bias_is_monotone_in_contamination() {
        let points = contamination_sweep(2, 50, 40, 3.0);
        for w in points.windows(2) {
            assert!(w[1].mean_bias >= w[0].mean_bias - 0.01);
        }
    }

    #[test]
    fn f7_artifacts_shape() {
        let ctx = Context::new(Scale::Quick, 31);
        let artifacts = f7_mean_vs_median(&ctx).unwrap();
        assert_eq!(artifacts.len(), 2);
        match &artifacts[0] {
            Artifact::Figure(f) => {
                assert_eq!(f.series.len(), 2);
                assert_eq!(f.series[0].points.len(), 6);
            }
            _ => panic!("expected figure"),
        }
    }
}
