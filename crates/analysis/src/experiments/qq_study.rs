//! F13: QQ-plot study — the visual non-normality argument, quantified.
//!
//! Normal QQ data for one benchmark per subsystem family on one machine,
//! plus the Filliben probability-plot correlation for every
//! (machine, benchmark) set — the continuous companion of the binary
//! Shapiro–Wilk census (F6).

use varstats::normality::NormalScores;
use varstats::qq::normal_qq;
use varstats::quantile::median;
use workloads::BenchmarkId;

use crate::artifact::{fmt, Artifact, SeriesSet, Table};
use crate::context::{Context, ShardView};
use crate::registry::{ExperimentError, ShardFold};

/// Benchmarks whose QQ lines the figure draws.
const REPRESENTATIVES: [BenchmarkId; 3] = [
    BenchmarkId::MemTriad,
    BenchmarkId::DiskSeqRead,
    BenchmarkId::NetLatency,
];

/// F13's fold: the per-machine Filliben correlations of every
/// benchmark, in machine-ascending order (the grouped walk's order).
/// Every set of a campaign has the same size, so one normal-score table
/// serves every fit.
struct Filliben {
    rs_per_bench: Vec<Vec<f64>>,
    scores: NormalScores,
}

/// F13's fold: QQ series per representative benchmark plus the
/// per-benchmark Filliben correlation census.
pub(crate) fn f13_fold() -> Box<dyn ShardFold> {
    Box::new(Filliben {
        rs_per_bench: vec![Vec::new(); BenchmarkId::ALL.len()],
        scores: NormalScores::default(),
    })
}

impl ShardFold for Filliben {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        let _span = telemetry::span("f13.filliben");
        for (&bench, rs) in BenchmarkId::ALL.iter().zip(self.rs_per_bench.iter_mut()) {
            let sorted = shard.sorted(bench);
            if sorted.is_empty() {
                continue;
            }
            if let Ok(qq) = self
                .scores
                .rebuild_for(sorted.len())
                .normal_qq_sorted(sorted)
            {
                rs.push(qq.correlation);
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        let machine = ctx.cluster.machines()[0].id;
        let mut fig = SeriesSet::new(
            "F13",
            "Normal QQ (one machine, 200 runs per benchmark; values scaled by their median)",
            "theoretical normal score",
            "observed / median",
        );
        for bench in REPRESENTATIVES {
            let runs: Vec<f64> = (0..200u64)
                .map(|n| crate::experiments::draw(&ctx.cluster, machine, bench, 0.0, n))
                .collect::<Result<_, _>>()?;
            let med = median(&runs).expect("non-empty");
            let scaled: Vec<f64> = runs.iter().map(|x| x / med).collect();
            let qq = normal_qq(&scaled).expect("valid runs");
            fig.push_series(bench.label(), qq.points);
        }

        // Filliben correlations across the campaign, per benchmark.
        let mut t = Table::new(
            "F13-summary",
            "Filliben probability-plot correlation per benchmark (median across machines)",
            &["benchmark", "median r", "min r"],
        );
        for (bench, rs) in BenchmarkId::ALL.into_iter().zip(self.rs_per_bench) {
            if rs.is_empty() {
                continue;
            }
            let med = median(&rs).expect("non-empty");
            let min = rs.iter().cloned().fold(f64::INFINITY, f64::min);
            t.push_row(vec![bench.label().to_string(), fmt(med, 4), fmt(min, 4)]);
        }
        Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn heavy_tailed_benchmarks_have_lower_filliben_r() {
        let ctx = Context::new(Scale::Quick, 91);
        let artifacts = ctx.run_fold(f13_fold()).unwrap();
        match &artifacts[1] {
            Artifact::Table(t) => {
                let r_of = |label: &str| -> f64 {
                    t.rows.iter().find(|r| r[0] == label).unwrap()[1]
                        .parse()
                        .unwrap()
                };
                let mem = r_of("mem-copy");
                let netlat = r_of("net-latency");
                assert!(mem > netlat, "mem {mem} vs net-lat {netlat}");
                assert!(netlat < 0.99, "heavy tail should bend the line: {netlat}");
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn qq_series_are_monotone() {
        let ctx = Context::new(Scale::Quick, 92);
        let artifacts = ctx.run_fold(f13_fold()).unwrap();
        match &artifacts[0] {
            Artifact::Figure(f) => {
                assert_eq!(f.series.len(), REPRESENTATIVES.len());
                for s in &f.series {
                    for w in s.points.windows(2) {
                        assert!(w[1].0 > w[0].0);
                        assert!(w[1].1 >= w[0].1);
                    }
                }
            }
            _ => panic!("expected figure"),
        }
    }
}
