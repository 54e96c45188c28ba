//! F14: allocation-policy bias.
//!
//! Estimating a type's performance from k allocated machines inherits
//! those machines' lottery draws. Sequential allocation pins the estimate
//! to one fixed draw (bias with zero apparent variance); random
//! allocation converts machine identity into honest sampling variance.
//! This experiment quantifies both against the fleet-wide ground truth —
//! the paper's "randomize machine selection" recommendation, measured.

use testbed::{allocate, AllocationPolicy};
use varstats::quantile::median;
use workloads::{sample, BenchmarkId};

use crate::artifact::{pct, Artifact, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// Result of one policy evaluation.
#[derive(Debug, Clone)]
struct PolicyOutcome {
    /// Mean absolute relative error vs the fleet ground truth across
    /// draws.
    pub mean_abs_error: f64,
    /// Worst draw's relative error.
    pub worst_error: f64,
}

/// Median benchmark value over `k` machines (median of per-machine
/// medians over `runs` repetitions).
fn estimate_with(
    ctx: &Context,
    machines: &[&testbed::Machine],
    bench: BenchmarkId,
    runs: usize,
) -> f64 {
    let per_machine: Vec<f64> = machines
        .iter()
        .map(|m| {
            let xs: Vec<f64> = (0..runs as u64)
                .map(|n| {
                    sample(&ctx.cluster, m.id, bench, 0.0, n)
                        .expect("machine comes from this cluster")
                })
                .collect();
            median(&xs).expect("non-empty")
        })
        .collect();
    median(&per_machine).expect("non-empty")
}

/// Evaluates the policies for one (type, benchmark), drawing `draws`
/// random allocations of `k` machines. The outcomes are sequential,
/// strided and random, in that order.
fn evaluate_policies(
    ctx: &Context,
    type_name: &str,
    bench: BenchmarkId,
    k: usize,
    draws: usize,
) -> Vec<PolicyOutcome> {
    // Ground truth: the fleet-wide median of per-machine medians.
    let fleet = ctx.cluster.machines_of_type(type_name);
    let truth = estimate_with(ctx, &fleet, bench, 30);

    let mut outcomes = Vec::new();
    // Sequential: one deterministic draw.
    let seq = allocate(&ctx.cluster, type_name, k, AllocationPolicy::Sequential);
    let seq_err = (estimate_with(ctx, &seq, bench, 30) - truth).abs() / truth;
    outcomes.push(PolicyOutcome {
        mean_abs_error: seq_err,
        worst_error: seq_err,
    });
    // Strided: also deterministic.
    let strided = allocate(&ctx.cluster, type_name, k, AllocationPolicy::Strided);
    let str_err = (estimate_with(ctx, &strided, bench, 30) - truth).abs() / truth;
    outcomes.push(PolicyOutcome {
        mean_abs_error: str_err,
        worst_error: str_err,
    });
    // Random: many draws.
    let mut errors = Vec::with_capacity(draws);
    for seed in 0..draws as u64 {
        let picked = allocate(
            &ctx.cluster,
            type_name,
            k,
            AllocationPolicy::Random {
                seed: ctx.seed.wrapping_add(seed),
            },
        );
        errors.push((estimate_with(ctx, &picked, bench, 30) - truth).abs() / truth);
    }
    outcomes.push(PolicyOutcome {
        mean_abs_error: errors.iter().sum::<f64>() / errors.len() as f64,
        worst_error: errors.iter().cloned().fold(0.0, f64::max),
    });
    outcomes
}

/// F14: the policy-bias table across every machine type.
///
/// Sequential allocation is a single arbitrary draw per type — sometimes
/// lucky, sometimes not, and the experimenter cannot tell which. Showing
/// every type makes the hazard visible: the worst type's fixed prefix is
/// biased by several percent, while random allocation turns the same
/// spread into quantifiable (and averageable) sampling noise.
pub(crate) fn f14_allocation_bias(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let bench = BenchmarkId::MemTriad;
    let mut t = Table::new(
        "F14",
        &format!(
            "Allocation-policy bias per type: estimating {} from k = 3 machines",
            bench.label()
        ),
        &[
            "type",
            "sequential |error|",
            "strided |error|",
            "random mean |error|",
            "random worst |error|",
        ],
    );
    let mut worst_sequential: f64 = 0.0;
    for mtype in ctx.cluster.types() {
        let outcomes = evaluate_policies(ctx, &mtype.name, bench, 3, 12);
        let seq = outcomes[0].mean_abs_error;
        let strided = outcomes[1].mean_abs_error;
        let random = &outcomes[2];
        worst_sequential = worst_sequential.max(seq);
        t.push_row(vec![
            mtype.name.clone(),
            pct(seq),
            pct(strided),
            pct(random.mean_abs_error),
            pct(random.worst_error),
        ]);
    }
    t.push_row(vec![
        "WORST".to_string(),
        pct(worst_sequential),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn errors_are_bounded_by_the_lottery_spread() {
        let ctx = Context::new(Scale::Quick, 95);
        let outcomes = evaluate_policies(&ctx, "m400", BenchmarkId::MemTriad, 3, 10);
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(
                o.mean_abs_error < 0.10,
                "policy {i}: error {} exceeds the lottery spread",
                o.mean_abs_error
            );
            assert!(o.worst_error >= o.mean_abs_error - 1e-12);
        }
    }

    #[test]
    fn random_worst_case_sees_more_of_the_fleet() {
        // Across draws, random allocation explores machines sequential
        // never touches; its worst-case error is at least as large as
        // its mean (trivially) and the outcomes differ across draws.
        let ctx = Context::new(Scale::Quick, 96);
        let outcomes = evaluate_policies(&ctx, "c220g2", BenchmarkId::MemTriad, 3, 15);
        let random = &outcomes[2];
        assert!(random.worst_error > 0.0);
    }

    #[test]
    fn f14_covers_every_type_and_summarizes_worst() {
        let ctx = Context::new(Scale::Quick, 97);
        let artifacts = f14_allocation_bias(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), ctx.cluster.types().len() + 1);
                let last = t.rows.last().unwrap();
                assert_eq!(last[0], "WORST");
                let worst: f64 = last[1].trim_end_matches('%').parse().unwrap();
                // Some type's fixed 3-machine prefix should be visibly
                // biased (the lottery guarantees spread).
                assert!(worst > 0.2, "worst sequential error {worst}%");
            }
            _ => panic!("expected table"),
        }
    }
}
