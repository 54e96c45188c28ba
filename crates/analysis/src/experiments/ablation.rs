//! T5: CONFIRM configuration ablation.
//!
//! DESIGN.md §6 calls out the design choices CONFIRM exposes: the error
//! criterion, the subset CI method, and the growth schedule. This table
//! runs all of them on the same pool so their effect on the answer (and
//! its cost) is visible side by side.

use confirm::{estimate, CiMethod, ConfirmConfig, ErrorCriterion, Growth};
use workloads::BenchmarkId;

use crate::artifact::{Artifact, Table};
use crate::context::Context;
use crate::experiments::confirm_study::machine_pool;
use crate::registry::ExperimentError;

/// One ablation row: a configuration label and its outcome.
struct AblationRow {
    label: String,
    requirement: String,
    sizes_tried: usize,
}

fn run_variant(pool: &[f64], label: &str, config: &ConfirmConfig) -> AblationRow {
    let result = estimate(pool, config).expect("valid pool");
    AblationRow {
        label: label.to_string(),
        requirement: result.requirement.display(),
        sizes_tried: result.curve.len(),
    }
}

/// T5: the ablation grid on one skewed disk pool.
pub(crate) fn t5_confirm_ablation(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let machine = ctx.cluster.machines_of_type("c220g1")[0].id;
    let pool = machine_pool(ctx, machine, BenchmarkId::DiskSeqRead, 120);
    let base = ctx.confirm.with_target_rel_error(0.02).with_rounds(100);
    let variants: Vec<(&str, ConfirmConfig)> = vec![
        ("baseline (half-width, order-stat, linear+1)", base),
        (
            "worst-bound criterion",
            base.with_criterion(ErrorCriterion::WorstBound),
        ),
        (
            "bootstrap CIs (200 resamples)",
            base.with_ci_method(CiMethod::Bootstrap { resamples: 200 }),
        ),
        ("growth linear+5", base.with_growth(Growth::Linear(5))),
        (
            "growth geometric x1.3",
            base.with_growth(Growth::Geometric(1.3)),
        ),
        ("c = 50 rounds", base.with_rounds(50)),
        ("confidence 99%", base.with_confidence(0.99)),
    ];
    let mut t = Table::new(
        "T5",
        "CONFIRM ablation on one HDD disk-seq-read pool (n = 120, +/-2%)",
        &["configuration", "requirement", "sizes tried"],
    );
    for (label, config) in variants {
        let row = run_variant(&pool, label, &config);
        t.push_row(vec![
            row.label,
            row.requirement,
            row.sizes_tried.to_string(),
        ]);
    }
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    fn parse(s: &str) -> usize {
        s.trim_start_matches('>').parse().unwrap()
    }

    #[test]
    fn ablation_rows_are_consistent() {
        let ctx = Context::new(Scale::Quick, 111);
        let artifacts = t5_confirm_ablation(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), 7);
                let get = |label_prefix: &str| -> usize {
                    parse(
                        &t.rows
                            .iter()
                            .find(|r| r[0].starts_with(label_prefix))
                            .unwrap()[1],
                    )
                };
                let baseline = get("baseline");
                // Worst-bound is never looser than half-width.
                assert!(get("worst-bound") >= baseline);
                // 99% confidence is never cheaper than 95%.
                assert!(get("confidence 99%") >= baseline);
                // Geometric growth only overshoots upward.
                assert!(get("growth geometric") >= baseline);
                // Bootstrap lands within a small factor of order-stat.
                let boot = get("bootstrap");
                let ratio = (boot.max(baseline) as f64) / (boot.min(baseline) as f64);
                assert!(ratio < 4.0, "bootstrap {boot} vs baseline {baseline}");
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn geometric_growth_tries_fewer_sizes() {
        let ctx = Context::new(Scale::Quick, 112);
        let artifacts = t5_confirm_ablation(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                let sizes = |label_prefix: &str| -> usize {
                    t.rows
                        .iter()
                        .find(|r| r[0].starts_with(label_prefix))
                        .unwrap()[2]
                        .parse()
                        .unwrap()
                };
                assert!(sizes("growth geometric") <= sizes("baseline"));
                assert!(sizes("growth linear+5") <= sizes("baseline"));
            }
            _ => panic!("expected table"),
        }
    }
}
