//! F9 / F10 / T4: the CONFIRM experiments — the paper's headline.
//!
//! * **F9** — for every machine, CONFIRM estimates the repetitions needed
//!   for a ±1% 95% CI of the median of each representative benchmark;
//!   the CDF across machines is plotted per benchmark. Disk machines need
//!   the most; many exhaust the pool (reported as `> n`).
//! * **F10** — tail quantiles: repetitions needed for the median vs p95
//!   vs p99 (at a looser ±5% target). Tails are dramatically costlier.
//! * **T4** — the summary table: median and 95th-percentile machine
//!   requirement per benchmark, at 1% and 5% targets.
//!
//! F9 and T4 ask the context's requirement table, so each machine's
//! answer is computed once per run: T4's 1% rows are F9's answers, and
//! its 5% rows are read off the same curves.

use confirm::{estimate, ConfirmConfig, ConfirmResult, Requirement, Statistic};
use varstats::quantile::{quantile, QuantileMethod};
use workloads::{sample, BenchmarkId};

use crate::artifact::{Artifact, SeriesSet, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// The benchmarks the repetition studies track.
pub const REPRESENTATIVES: [BenchmarkId; 4] = [
    BenchmarkId::MemTriad,
    BenchmarkId::DiskSeqRead,
    BenchmarkId::DiskRandRead,
    BenchmarkId::NetBandwidth,
];

/// Builds a fresh day-0 measurement pool for one machine and benchmark
/// (run-to-run variability only: no drift, no timeline events).
pub fn machine_pool(
    ctx: &Context,
    machine: testbed::MachineId,
    bench: BenchmarkId,
    size: usize,
) -> Vec<f64> {
    (0..size as u64)
        .map(|nonce| sample(&ctx.cluster, machine, bench, 0.0, nonce).expect("machine exists"))
        .collect()
}

/// The machines the repetition studies cover (capped per type by scale).
pub fn study_machines(ctx: &Context) -> Vec<testbed::MachineId> {
    let cap = ctx.scale.machines_per_type();
    let mut out = Vec::new();
    for t in ctx.cluster.types() {
        out.extend(
            ctx.cluster
                .machines_of_type(&t.name)
                .into_iter()
                .take(cap)
                .map(|m| m.id),
        );
    }
    out
}

/// CONFIRM's answer under `config` for `machine`'s scale-sized
/// [`machine_pool`] of `bench`, from the context's requirement table.
fn machine_confirm(
    ctx: &Context,
    machine: testbed::MachineId,
    bench: BenchmarkId,
    config: &ConfirmConfig,
) -> ConfirmResult {
    let size = ctx.scale.pool_size();
    ctx.confirm_answer(machine, bench, size, config, || {
        estimate(&machine_pool(ctx, machine, bench, size), config)
    })
    .expect("pool is valid")
}

/// Runs CONFIRM per machine for one benchmark, returning the ordinal
/// requirements (pool+1 when exhausted).
fn requirements_per_machine(
    ctx: &Context,
    bench: BenchmarkId,
    config: &ConfirmConfig,
) -> Vec<Requirement> {
    study_machines(ctx)
        .into_iter()
        .map(|machine| machine_confirm(ctx, machine, bench, config).requirement)
        .collect()
}

/// Turns a set of requirements into CDF points over repetition counts.
fn requirement_cdf(requirements: &[Requirement]) -> Vec<(f64, f64)> {
    let mut ordinals: Vec<usize> = requirements.iter().map(|r| r.as_ordinal()).collect();
    ordinals.sort_unstable();
    let n = ordinals.len() as f64;
    ordinals
        .iter()
        .enumerate()
        .map(|(i, &v)| (v as f64, (i + 1) as f64 / n))
        .collect()
}

/// F9: CDFs of required repetitions (±1% @ 95%) across machines.
pub(crate) fn f9_confirm_cdf(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let config = ctx.confirm.with_growth(confirm::Growth::Geometric(1.25));
    let mut fig = SeriesSet::new(
        "F9",
        "CONFIRM: CDF across machines of repetitions for a +/-1% 95% CI of the median",
        "repetitions required",
        "fraction of machines",
    );
    let mut t = Table::new(
        "F9-summary",
        "Machines exhausting the pool (requirement > pool size)",
        &["benchmark", "machines", "exhausted", "pool size"],
    );
    for bench in REPRESENTATIVES {
        let reqs = requirements_per_machine(ctx, bench, &config);
        let exhausted = reqs
            .iter()
            .filter(|r| matches!(r, Requirement::Exhausted { .. }))
            .count();
        t.push_row(vec![
            bench.label().to_string(),
            reqs.len().to_string(),
            exhausted.to_string(),
            ctx.scale.pool_size().to_string(),
        ]);
        fig.push_series(bench.label(), requirement_cdf(&reqs));
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

/// F10: repetitions for median vs p95 vs p99 (±5% target).
pub(crate) fn f10_confirm_tails(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    // Tail quantiles need big pools: generate one large pool per
    // machine on a heavy-tailed benchmark (network latency).
    let bench = BenchmarkId::NetLatency;
    let pool_size = 800;
    let machines: Vec<testbed::MachineId> = study_machines(ctx).into_iter().take(8).collect();
    let statistics = [
        Statistic::Median,
        Statistic::Quantile(0.95),
        Statistic::Quantile(0.99),
    ];
    let mut fig = SeriesSet::new(
        "F10",
        "CONFIRM on tail quantiles (net-latency, +/-5% 95% CI): CDF across machines",
        "repetitions required",
        "fraction of machines",
    );
    let mut t = Table::new(
        "F10-summary",
        "Median machine requirement per statistic",
        &["statistic", "median requirement", "exhausted"],
    );
    for stat in statistics {
        // One span per statistic, so a trace shows what the tail pools cost.
        let _span = telemetry::span(format!("f10.{}", stat.label()));
        let config = ctx
            .confirm
            .with_statistic(stat)
            .with_target_rel_error(0.05)
            .with_growth(confirm::Growth::Geometric(1.3));
        let reqs: Vec<Requirement> = machines
            .iter()
            .map(|&m| {
                let pool = machine_pool(ctx, m, bench, pool_size);
                estimate(&pool, &config).expect("pool is valid").requirement
            })
            .collect();
        let ordinals: Vec<f64> = reqs.iter().map(|r| r.as_ordinal() as f64).collect();
        let med = quantile(&ordinals, 0.5, QuantileMethod::Linear)
            .map_err(|e| ExperimentError::new(format!("requirement quantile: {e}")))?;
        let exhausted = reqs
            .iter()
            .filter(|r| matches!(r, Requirement::Exhausted { .. }))
            .count();
        let med_display = if med > pool_size as f64 {
            format!(">{pool_size}")
        } else {
            format!("{med:.0}")
        };
        t.push_row(vec![stat.label(), med_display, exhausted.to_string()]);
        fig.push_series(&stat.label(), requirement_cdf(&reqs));
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

/// T4: summary of requirements per benchmark at 1% and 5% targets.
///
/// Both targets are read off one ±1% CONFIRM curve per machine, F9's
/// answer ([`ConfirmResult::requirement_at`]). T4 asks for them in the
/// reverse of F9's order, so when the two run at once each computes half
/// of the answers and reads the other half, rather than one waiting on
/// the other's every answer. A row depends only on its set of machines'
/// answers, not on their order.
pub(crate) fn t4_repetition_summary(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let config = ctx
        .confirm
        .with_target_rel_error(0.01)
        .with_growth(confirm::Growth::Geometric(1.25));
    let machines = study_machines(ctx);
    let mut curves: Vec<Vec<ConfirmResult>> = vec![Vec::new(); REPRESENTATIVES.len()];
    for (answers, &bench) in curves.iter_mut().zip(&REPRESENTATIVES).rev() {
        for &machine in machines.iter().rev() {
            answers.push(machine_confirm(ctx, machine, bench, &config));
        }
    }
    let mut t = Table::new(
        "T4",
        "Repetitions for a 95% median CI (median / p95 machine; `>n` = pool exhausted)",
        &[
            "benchmark",
            "target",
            "median machine",
            "p95 machine",
            "exhausted",
        ],
    );
    for (bench, answers) in REPRESENTATIVES.into_iter().zip(&curves) {
        for &target in &[0.01f64, 0.05] {
            let reqs: Vec<Requirement> = answers
                .iter()
                .map(|answer| {
                    answer
                        .requirement_at(target)
                        .expect("T4's targets are no stricter than its curves'")
                })
                .collect();
            let ordinals: Vec<f64> = reqs.iter().map(|r| r.as_ordinal() as f64).collect();
            let med = quantile(&ordinals, 0.5, QuantileMethod::Linear)
                .map_err(|e| ExperimentError::new(format!("requirement quantile: {e}")))?;
            let p95 = quantile(&ordinals, 0.95, QuantileMethod::Linear)
                .map_err(|e| ExperimentError::new(format!("requirement quantile: {e}")))?;
            let pool = ctx.scale.pool_size() as f64;
            let disp = |v: f64| {
                if v > pool {
                    format!(">{}", pool as usize)
                } else {
                    format!("{v:.0}")
                }
            };
            let exhausted = reqs
                .iter()
                .filter(|r| matches!(r, Requirement::Exhausted { .. }))
                .count();
            t.push_row(vec![
                bench.label().to_string(),
                format!("{:.0}%", target * 100.0),
                disp(med),
                disp(p95),
                format!("{exhausted}/{}", reqs.len()),
            ]);
        }
    }
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn disk_needs_more_repetitions_than_memory_and_network() {
        let ctx = Context::new(Scale::Quick, 51);
        let config = ctx.confirm.with_growth(confirm::Growth::Geometric(1.3));
        let med_req = |b| {
            let reqs = requirements_per_machine(&ctx, b, &config);
            let ords: Vec<f64> = reqs.iter().map(|r| r.as_ordinal() as f64).collect();
            quantile(&ords, 0.5, QuantileMethod::Linear).unwrap()
        };
        let disk = med_req(BenchmarkId::DiskRandRead);
        let mem = med_req(BenchmarkId::MemTriad);
        let net = med_req(BenchmarkId::NetBandwidth);
        assert!(disk > mem, "disk {disk} vs mem {mem}");
        assert!(disk > net, "disk {disk} vs net {net}");
        // Random disk I/O at 1% should exhaust the 60-run quick pool on
        // most machines.
        assert!(disk > 55.0, "disk requirement {disk}");
        // Network throughput is so stable the minimum subset suffices.
        assert!(net <= 15.0, "net requirement {net}");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let ctx = Context::new(Scale::Quick, 52);
        let config = ctx.confirm.with_growth(confirm::Growth::Geometric(1.4));
        let reqs = requirements_per_machine(&ctx, BenchmarkId::MemTriad, &config);
        let cdf = requirement_cdf(&reqs);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn f10_tails_cost_more() {
        let ctx = Context::new(Scale::Quick, 53);
        let artifacts = f10_confirm_tails(&ctx).unwrap();
        match &artifacts[1] {
            Artifact::Table(t) => {
                let parse =
                    |row: usize| -> f64 { t.rows[row][1].trim_start_matches('>').parse().unwrap() };
                let median_req = parse(0);
                let p99_req = parse(2);
                assert!(
                    p99_req > median_req,
                    "p99 {p99_req} should exceed median {median_req}"
                );
                assert!(p99_req >= 299.0, "p99 floor is 299, got {p99_req}");
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn t4_looser_target_needs_fewer() {
        let ctx = Context::new(Scale::Quick, 54);
        let artifacts = t4_repetition_summary(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), REPRESENTATIVES.len() * 2);
                // For each benchmark, the 5% row's median requirement is
                // <= the 1% row's.
                for pair in t.rows.chunks(2) {
                    let parse = |s: &str| -> f64 { s.trim_start_matches('>').parse().unwrap() };
                    let strict = parse(&pair[0][2]);
                    let loose = parse(&pair[1][2]);
                    assert!(loose <= strict, "{pair:?}");
                }
            }
            _ => panic!("expected table"),
        }
    }
}
