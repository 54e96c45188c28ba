//! F15: multi-tenant interference.
//!
//! The same machines, the same benchmarks — but with a noisy neighbor.
//! Contention widens distributions asymmetrically, fails more normality
//! tests, and inflates the repetition counts CONFIRM reports. This is
//! the experiment an experimenter should run before trusting numbers
//! from a shared testbed.

use confirm::estimate;
use testbed::{catalog, Cluster, InterferenceModel, Timeline};
use varstats::descriptive::Moments;
use varstats::normality::shapiro_wilk;
use workloads::{sample, BenchmarkId};

use crate::artifact::{pct, Artifact, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// Outcome of the quiet-vs-contended comparison for one benchmark.
#[derive(Debug, Clone)]
struct InterferenceOutcome {
    /// The benchmark.
    pub benchmark: BenchmarkId,
    /// Run-to-run CoV on the quiet cluster.
    pub quiet_cov: f64,
    /// Run-to-run CoV under contention.
    pub contended_cov: f64,
    /// CONFIRM requirement (ordinal) on the quiet cluster.
    pub quiet_requirement: String,
    /// CONFIRM requirement under contention.
    pub contended_requirement: String,
    /// Shapiro–Wilk pass (quiet / contended).
    pub normality: (bool, bool),
}

/// Runs the comparison on a fresh pair of clusters sharing the seed.
fn compare_interference(ctx: &Context, benches: &[BenchmarkId]) -> Vec<InterferenceOutcome> {
    let quiet = Cluster::provision(catalog(), 0.05, Timeline::quiet(10.0), ctx.seed);
    let noisy = Cluster::provision(catalog(), 0.05, Timeline::quiet(10.0), ctx.seed)
        .with_interference(InterferenceModel::noisy_neighbor());
    let machine = quiet.machines()[0].id;
    let pool_size = 100usize;
    benches
        .iter()
        .map(|&bench| {
            let q: Vec<f64> = (0..pool_size as u64)
                .map(|n| sample(&quiet, machine, bench, 0.0, n).expect("machine is provisioned"))
                .collect();
            let c: Vec<f64> = (0..pool_size as u64)
                .map(|n| sample(&noisy, machine, bench, 0.0, n).expect("machine is provisioned"))
                .collect();
            let cov = |v: &[f64]| v.iter().copied().collect::<Moments>().cov().unwrap_or(0.0);
            let config = ctx
                .confirm
                .with_target_rel_error(0.02)
                .with_growth(confirm::Growth::Geometric(1.3));
            InterferenceOutcome {
                benchmark: bench,
                quiet_cov: cov(&q),
                contended_cov: cov(&c),
                quiet_requirement: estimate(&q, &config)
                    .expect("valid pool")
                    .requirement
                    .display(),
                contended_requirement: estimate(&c, &config)
                    .expect("valid pool")
                    .requirement
                    .display(),
                normality: (
                    shapiro_wilk(&q).map(|r| r.is_normal(0.05)).unwrap_or(false),
                    shapiro_wilk(&c).map(|r| r.is_normal(0.05)).unwrap_or(false),
                ),
            }
        })
        .collect()
}

/// F15: the quiet-vs-contended table.
pub(crate) fn f15_interference(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let benches = [
        BenchmarkId::MemTriad,
        BenchmarkId::DiskSeqRead,
        BenchmarkId::NetLatency,
        BenchmarkId::NetBandwidth,
    ];
    let mut t = Table::new(
        "F15",
        "Noisy-neighbor interference: CoV, CONFIRM (+/-2%), Shapiro-Wilk, quiet vs contended",
        &[
            "benchmark",
            "quiet CoV",
            "contended CoV",
            "quiet reps",
            "contended reps",
            "quiet normal",
            "contended normal",
        ],
    );
    for o in compare_interference(ctx, &benches) {
        t.push_row(vec![
            o.benchmark.label().to_string(),
            pct(o.quiet_cov),
            pct(o.contended_cov),
            o.quiet_requirement,
            o.contended_requirement,
            o.normality.0.to_string(),
            o.normality.1.to_string(),
        ]);
    }
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn contention_raises_cov_everywhere() {
        let ctx = Context::new(Scale::Quick, 98);
        let outcomes =
            compare_interference(&ctx, &[BenchmarkId::MemTriad, BenchmarkId::NetBandwidth]);
        for o in &outcomes {
            assert!(
                o.contended_cov > o.quiet_cov,
                "{}: quiet {} vs contended {}",
                o.benchmark,
                o.quiet_cov,
                o.contended_cov
            );
        }
    }

    #[test]
    fn contention_inflates_repetition_requirements() {
        let ctx = Context::new(Scale::Quick, 99);
        let outcomes = compare_interference(&ctx, &[BenchmarkId::MemTriad]);
        let parse = |s: &str| -> usize { s.trim_start_matches('>').parse().unwrap() };
        let o = &outcomes[0];
        assert!(
            parse(&o.contended_requirement) >= parse(&o.quiet_requirement),
            "quiet {} vs contended {}",
            o.quiet_requirement,
            o.contended_requirement
        );
    }

    #[test]
    fn stable_subsystem_loses_normality_under_contention() {
        // Memory bandwidth is near-normal when quiet (rare small outliers
        // aside); the contention mixture must break normality decisively.
        // Compare Shapiro-Wilk p-values directly to stay robust to the
        // occasional quiet-pool outlier.
        use testbed::{catalog, Cluster, InterferenceModel, Timeline};
        use varstats::normality::shapiro_wilk;
        use workloads::sample;

        let ctx = Context::new(Scale::Quick, 100);
        let quiet = Cluster::provision(catalog(), 0.05, Timeline::quiet(10.0), ctx.seed);
        let noisy = Cluster::provision(catalog(), 0.05, Timeline::quiet(10.0), ctx.seed)
            .with_interference(InterferenceModel::noisy_neighbor());
        let machine = quiet.machines()[0].id;
        let q: Vec<f64> = (0..100u64)
            .map(|n| sample(&quiet, machine, BenchmarkId::MemTriad, 0.0, n).unwrap())
            .collect();
        let c: Vec<f64> = (0..100u64)
            .map(|n| sample(&noisy, machine, BenchmarkId::MemTriad, 0.0, n).unwrap())
            .collect();
        let pq = shapiro_wilk(&q).unwrap().p_value;
        let pc = shapiro_wilk(&c).unwrap().p_value;
        assert!(pc < 1e-4, "contended mem-triad should fail hard, p = {pc}");
        assert!(pq > pc, "quiet p {pq} should exceed contended p {pc}");
    }

    #[test]
    fn f15_artifact_shape() {
        let ctx = Context::new(Scale::Quick, 101);
        let artifacts = f15_interference(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => assert_eq!(t.rows.len(), 4),
            _ => panic!("expected table"),
        }
    }
}
