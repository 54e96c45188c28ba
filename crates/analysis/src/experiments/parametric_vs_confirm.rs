//! T3: parametric (Jain) vs non-parametric (CONFIRM) repetition
//! estimates, side by side with the normality verdict.
//!
//! The paper's point: the two methods agree when data is normal and
//! diverge when it is not — and most benchmark data is not. Rows mirror
//! the structure of the published comparison: one machine per type per
//! representative benchmark, the Shapiro–Wilk verdict, and both
//! estimates. CONFIRM's answers come from the context's requirement
//! table: the memory and sequential-disk rows are F9's answers for each
//! type's first machine.

use confirm::{estimate, recommend_with, ChosenMethod};
use workloads::BenchmarkId;

use crate::artifact::{Artifact, Table};
use crate::context::Context;
use crate::experiments::confirm_study::machine_pool;
use crate::registry::ExperimentError;

/// The benchmarks compared in T3.
const BENCHES: [BenchmarkId; 3] = [
    BenchmarkId::MemTriad,
    BenchmarkId::DiskSeqRead,
    BenchmarkId::NetLatency,
];

/// T3: the comparison table.
pub(crate) fn t3_parametric_vs_confirm(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let mut t = Table::new(
        "T3",
        "Parametric (Jain) vs CONFIRM repetition estimates (+/-1%, 95%)",
        &[
            "type",
            "benchmark",
            "Shapiro-Wilk",
            "parametric",
            "CONFIRM",
            "chosen method",
        ],
    );
    let config = ctx.confirm.with_growth(confirm::Growth::Geometric(1.25));
    for mtype in ctx.cluster.types() {
        let machine = ctx.cluster.machines_of_type(&mtype.name)[0].id;
        for bench in BENCHES {
            let size = ctx.scale.pool_size();
            let pool = machine_pool(ctx, machine, bench, size);
            let answer = ctx
                .confirm_answer(machine, bench, size, &config, || estimate(&pool, &config))
                .expect("valid pool");
            let rec = recommend_with(&pool, &config, 0.05, answer).expect("valid pool");
            let sw = rec
                .normality
                .map(|r| if r.is_normal(0.05) { "pass" } else { "fail" })
                .unwrap_or("n/a");
            t.push_row(vec![
                mtype.name.clone(),
                bench.label().to_string(),
                sw.to_string(),
                rec.parametric.repetitions.to_string(),
                rec.confirm.requirement.display(),
                match rec.method {
                    ChosenMethod::Parametric => "parametric".to_string(),
                    ChosenMethod::Confirm => "CONFIRM".to_string(),
                },
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
    fn t3_covers_types_times_benches() {
        let ctx = Context::new(Scale::Quick, 61);
        let artifacts = t3_parametric_vs_confirm(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), ctx.cluster.types().len() * BENCHES.len());
                // Both verdicts occur somewhere across the grid.
                let methods: Vec<&str> = t.rows.iter().map(|r| r[5].as_str()).collect();
                assert!(methods.contains(&"CONFIRM"), "{methods:?}");
                // CONFIRM column uses the paper's `>n` rendering when
                // pools exhaust.
                let confirm_col: Vec<&str> = t.rows.iter().map(|r| r[4].as_str()).collect();
                assert!(
                    confirm_col.iter().any(|c| c.starts_with('>'))
                        || confirm_col.iter().all(|c| c.parse::<usize>().is_ok())
                );
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn confirm_never_reports_below_minimum_subset() {
        let ctx = Context::new(Scale::Quick, 62);
        let artifacts = t3_parametric_vs_confirm(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                for row in &t.rows {
                    if let Ok(v) = row[4].parse::<usize>() {
                        assert!(v >= 10, "CONFIRM below s >= 10: {row:?}");
                    }
                }
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn methods_disagree_substantially_on_disk_rows() {
        // The paper's point is that the two estimators frequently
        // disagree — in both directions: Jain's formula can demand far
        // more repetitions than CONFIRM (it targets the mean, inflated by
        // skewed tails) or far fewer (when it trusts a normality that
        // does not hold). On the skewed disk benchmark the disagreement
        // should be the rule, not the exception.
        let ctx = Context::new(Scale::Quick, 63);
        let artifacts = t3_parametric_vs_confirm(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                let mut disagree = 0usize;
                let mut rows = 0usize;
                for row in t.rows.iter().filter(|r| r[1].contains("disk")) {
                    rows += 1;
                    let par: f64 = row[3].parse().unwrap();
                    let conf: f64 = row[4].trim_start_matches('>').parse().unwrap();
                    let ratio = (par.max(conf)) / (par.min(conf)).max(1.0);
                    if ratio >= 2.0 {
                        disagree += 1;
                    }
                }
                assert!(rows > 0);
                assert!(
                    disagree * 2 >= rows,
                    "methods should disagree >= 2x on at least half the disk rows \
                     ({disagree}/{rows})"
                );
            }
            _ => panic!("expected table"),
        }
    }
}
