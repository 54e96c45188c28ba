//! T6: dataset overview — the campaign-scale table the paper's data
//! section opens with (machines × benchmarks × sessions, per-benchmark
//! record counts, and the outlier health sweep).

use dataset::{OverviewBuilder, SweepBuilder};

use crate::artifact::{fmt, pct, Artifact, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// T6's fold: the overview counts and the MAD z-score outlier sweep,
/// both fed by the same shards.
struct OverviewFold {
    overview: OverviewBuilder,
    sweep: SweepBuilder,
}

/// T6's fold: overview counts plus the per-benchmark outlier fractions.
pub(crate) fn t6_fold() -> Box<dyn ShardFold> {
    Box::new(OverviewFold {
        overview: OverviewBuilder::new(),
        sweep: SweepBuilder::new(3.5),
    })
}

impl ShardFold for OverviewFold {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        {
            let _span = telemetry::span("t6.overview");
            self.overview.observe_records(shard.records());
        }
        let _span = telemetry::span("t6.sweep");
        self.sweep.observe_shard(shard.records()).map_err(|e| {
            ExperimentError::new(format!("outlier sweep of machine {}: {e}", shard.machine.0))
        })
    }

    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let o = self.overview.finish();
        let mut head = Table::new("T6", "Campaign dataset overview", &["property", "value"]);
        for (k, v) in [
            ("measurements", o.measurements.to_string()),
            ("machines", o.machines.to_string()),
            ("machine types", o.machine_types.to_string()),
            ("benchmarks", o.benchmarks.to_string()),
            ("first day", fmt(o.first_day, 0)),
            ("last day", fmt(o.last_day, 0)),
            ("sessions", ctx.campaign.sessions().to_string()),
            (
                "runs per session",
                ctx.campaign.runs_per_session.to_string(),
            ),
        ] {
            head.push_row(vec![k.to_string(), v]);
        }

        let mut health = Table::new(
            "T6-outliers",
            "Outlier health sweep (MAD z > 3.5), per benchmark",
            &[
                "benchmark",
                "sets",
                "measurements",
                "outlier fraction",
                "worst set",
            ],
        );
        let reports = self.sweep.finish();
        for r in &reports {
            health.push_row(vec![
                r.benchmark.label().to_string(),
                r.sets.to_string(),
                r.measurements.to_string(),
                pct(r.fraction()),
                pct(r.worst_set_fraction),
            ]);
        }
        Ok(vec![Artifact::Table(head), Artifact::Table(health)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn overview_matches_store() {
        let ctx = Context::new(Scale::Quick, 121);
        let artifacts = ctx.run_fold(t6_fold()).unwrap();
        assert_eq!(artifacts.len(), 2);
        match &artifacts[0] {
            Artifact::Table(t) => {
                let get = |name: &str| -> String {
                    t.rows.iter().find(|r| r[0] == name).unwrap()[1].clone()
                };
                assert_eq!(get("measurements"), ctx.records_len().to_string());
                assert_eq!(get("machines"), "30");
                assert_eq!(get("benchmarks"), "11");
            }
            _ => panic!("expected table"),
        }
        match &artifacts[1] {
            Artifact::Table(t) => assert_eq!(t.rows.len(), 11),
            _ => panic!("expected table"),
        }
    }
}
