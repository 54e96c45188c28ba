//! F16: CONFIRM's own stability.
//!
//! A repetition estimator is only trustworthy if its answer does not
//! hinge on its internal randomness. This experiment re-runs CONFIRM on
//! the same pools with different subsampling seeds and reports the spread
//! of the answers — the methodological soundness check the paper's
//! `c = 200` rounds are there to provide — and shows how the spread
//! shrinks as the number of rounds grows.

use confirm::estimate;
use varstats::descriptive::Moments;
use workloads::BenchmarkId;

use crate::artifact::{fmt, Artifact, Table};
use crate::context::Context;
use crate::experiments::confirm_study::machine_pool;
use crate::registry::ExperimentError;

/// Spread of CONFIRM answers across seeds for one configuration.
#[derive(Debug, Clone)]
struct StabilityRow {
    /// Rounds per subset size.
    pub rounds: usize,
    /// Mean answer (ordinal) across seeds.
    pub mean: f64,
    /// Standard deviation of the answer across seeds.
    pub std_dev: f64,
    /// Smallest and largest answer seen.
    pub range: (usize, usize),
}

/// Re-runs CONFIRM across `seeds` different subsampling seeds at each
/// rounds setting.
fn stability_sweep(
    ctx: &Context,
    bench: BenchmarkId,
    rounds_settings: &[usize],
    seeds: usize,
) -> Vec<StabilityRow> {
    let machine = ctx.cluster.machines_of_type("c220g1")[0].id;
    let pool = machine_pool(ctx, machine, bench, 120);
    rounds_settings
        .iter()
        .map(|&rounds| {
            let answers: Vec<usize> = (0..seeds as u64)
                .map(|s| {
                    let config = ctx
                        .confirm
                        .with_rounds(rounds)
                        .with_target_rel_error(0.02)
                        .with_seed(ctx.seed.wrapping_add(s * 7919));
                    estimate(&pool, &config)
                        .expect("valid pool")
                        .requirement
                        .as_ordinal()
                })
                .collect();
            let m: Moments = answers.iter().map(|&a| a as f64).collect();
            StabilityRow {
                rounds,
                mean: m.mean(),
                std_dev: m.std_dev(),
                range: (
                    *answers.iter().min().expect("non-empty"),
                    *answers.iter().max().expect("non-empty"),
                ),
            }
        })
        .collect()
}

/// F16: the stability table.
pub(crate) fn f16_confirm_stability(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let bench = BenchmarkId::DiskSeqRead;
    let rows = stability_sweep(ctx, bench, &[20, 50, 100, 200], 10);
    let mut t = Table::new(
        "F16",
        "CONFIRM answer stability across 10 subsampling seeds (disk-seq-read, +/-2%)",
        &["rounds (c)", "mean answer", "std dev", "min", "max"],
    );
    for r in &rows {
        t.push_row(vec![
            r.rounds.to_string(),
            fmt(r.mean, 1),
            fmt(r.std_dev, 2),
            r.range.0.to_string(),
            r.range.1.to_string(),
        ]);
    }
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn more_rounds_is_never_wildly_less_stable() {
        let ctx = Context::new(Scale::Quick, 131);
        let rows = stability_sweep(&ctx, BenchmarkId::DiskSeqRead, &[20, 200], 8);
        assert_eq!(rows.len(), 2);
        // c = 200 must not be dramatically less stable than c = 20 (allow
        // discreteness noise).
        assert!(
            rows[1].std_dev <= rows[0].std_dev + 2.0,
            "c=20 sd {} vs c=200 sd {}",
            rows[0].std_dev,
            rows[1].std_dev
        );
        // Answers must agree on the rough magnitude.
        let ratio = rows[0].mean.max(rows[1].mean) / rows[0].mean.min(rows[1].mean);
        assert!(ratio < 2.0, "means {} vs {}", rows[0].mean, rows[1].mean);
    }

    #[test]
    fn answers_are_tight_at_paper_rounds() {
        let ctx = Context::new(Scale::Quick, 132);
        let rows = stability_sweep(&ctx, BenchmarkId::MemTriad, &[200], 8);
        let r = &rows[0];
        // Memory pools give rock-solid answers: range within a few reps.
        assert!(
            r.range.1 - r.range.0 <= 4,
            "range {:?} too wide for c = 200",
            r.range
        );
    }

    #[test]
    fn f16_artifact_shape() {
        let ctx = Context::new(Scale::Quick, 133);
        let artifacts = f16_confirm_stability(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => assert_eq!(t.rows.len(), 4),
            _ => panic!("expected table"),
        }
    }
}
