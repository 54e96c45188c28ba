//! F17: CONFIRM's scaling law, validated against theory.
//!
//! For near-normal data the repetitions needed for a ±e relative CI of
//! the median scale as `n ≈ (z * 1.2533 * CoV / e)^2` (the median's
//! asymptotic efficiency is `pi/2` relative to the mean, whence the
//! `sqrt(pi/2) ≈ 1.2533`). This experiment sweeps the testbed's noise
//! scale and checks CONFIRM's measured answers track the quadratic law —
//! the strongest kind of soundness evidence an estimator can offer.

use confirm::{estimate, Growth};
use varstats::rng::Rng;
use varstats::special::normal_quantile;

use crate::artifact::{fmt, Artifact, SeriesSet, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// The CoV levels swept.
const COV_SWEEP: [f64; 5] = [0.005, 0.01, 0.02, 0.04, 0.08];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct ScalingPoint {
    /// Coefficient of variation of the synthetic pool.
    pub cov: f64,
    /// CONFIRM's measured requirement (ordinal).
    pub measured: usize,
    /// The theoretical prediction for the median at this CoV.
    pub predicted: f64,
}

/// Runs the sweep: synthetic normal pools at each CoV, CONFIRM at
/// `target` relative error.
fn sweep(ctx: &Context, target: f64) -> Vec<ScalingPoint> {
    let z = normal_quantile(0.5 + ctx.confirm.confidence / 2.0).expect("valid confidence");
    let median_efficiency = (std::f64::consts::PI / 2.0).sqrt();
    COV_SWEEP
        .iter()
        .map(|&cov| {
            // A large synthetic normal pool at this CoV.
            let mut rng = Rng::seed_from_u64(ctx.seed ^ cov.to_bits());
            let pool: Vec<f64> = (0..4000)
                .map(|_| {
                    let u1: f64 = rng.f64().max(1e-300);
                    let u2: f64 = rng.f64();
                    let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    100.0 * (1.0 + cov * n)
                })
                .collect();
            let config = ctx
                .confirm
                .with_target_rel_error(target)
                .with_growth(Growth::Geometric(1.15));
            let measured = estimate(&pool, &config)
                .expect("valid pool")
                .requirement
                .as_ordinal();
            let predicted = (z * median_efficiency * cov / target).powi(2);
            ScalingPoint {
                cov,
                measured,
                predicted,
            }
        })
        .collect()
}

/// F17: measured vs predicted requirements across the CoV sweep.
pub(crate) fn f17_scaling_law(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let target = 0.01;
    let points = sweep(ctx, target);
    let mut fig = SeriesSet::new(
        "F17",
        "CONFIRM requirement vs CoV (synthetic normal pools, +/-1% 95% CI of the median)",
        "coefficient of variation",
        "repetitions",
    );
    fig.push_series(
        "measured (CONFIRM)",
        points.iter().map(|p| (p.cov, p.measured as f64)).collect(),
    );
    fig.push_series(
        "theory (z * 1.2533 * CoV / e)^2",
        points.iter().map(|p| (p.cov, p.predicted)).collect(),
    );
    let mut t = Table::new(
        "F17-summary",
        "Measured vs predicted (floor of 10 applies at tiny CoV)",
        &["CoV", "measured", "predicted", "ratio"],
    );
    for p in &points {
        let ratio = p.measured as f64 / p.predicted.max(1.0);
        t.push_row(vec![
            fmt(p.cov, 3),
            p.measured.to_string(),
            fmt(p.predicted, 1),
            fmt(ratio, 2),
        ]);
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn requirement_grows_roughly_quadratically() {
        let ctx = Context::new(Scale::Quick, 151);
        let points = sweep(&ctx, 0.01);
        // Above the floor, doubling CoV should multiply the requirement
        // by roughly 4 (allow 2.2x..7x for subset discreteness).
        let above_floor: Vec<&ScalingPoint> = points.iter().filter(|p| p.measured > 12).collect();
        for w in above_floor.windows(2) {
            let growth = w[1].measured as f64 / w[0].measured as f64;
            assert!(
                (2.2..7.0).contains(&growth),
                "CoV {} -> {}: growth {growth}",
                w[0].cov,
                w[1].cov
            );
        }
        assert!(above_floor.len() >= 2, "sweep never left the floor");
    }

    #[test]
    fn measured_tracks_theory_within_a_small_factor() {
        let ctx = Context::new(Scale::Quick, 152);
        let points = sweep(&ctx, 0.01);
        for p in points.iter().filter(|p| p.predicted > 15.0) {
            let ratio = p.measured as f64 / p.predicted;
            assert!(
                (0.4..2.5).contains(&ratio),
                "CoV {}: measured {} vs predicted {:.1}",
                p.cov,
                p.measured,
                p.predicted
            );
        }
    }

    #[test]
    fn f17_artifact_shape() {
        let ctx = Context::new(Scale::Quick, 153);
        let artifacts = f17_scaling_law(&ctx).unwrap();
        assert_eq!(artifacts.len(), 2);
        match &artifacts[0] {
            Artifact::Figure(f) => {
                assert_eq!(f.series.len(), 2);
                assert_eq!(f.series[0].points.len(), COV_SWEEP.len());
            }
            _ => panic!("expected figure"),
        }
    }
}
