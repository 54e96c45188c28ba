//! F11: temporal variability and changepoint detection.
//!
//! A daily time series of one benchmark on one machine spans the whole
//! campaign, including the timeline's maintenance events. PELT and CUSUM
//! must locate the level shifts; the artifact compares detected positions
//! against the simulator's ground truth.

use varstats::changepoint::{cusum_detect, pelt_mean};
use workloads::{sample, BenchmarkId};

use crate::artifact::{fmt, Artifact, SeriesSet, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// Builds a daily series (one sample per day, decorrelated nonces) of
/// `bench` on `machine`.
fn daily_series(ctx: &Context, machine: testbed::MachineId, bench: BenchmarkId) -> Vec<f64> {
    let days = ctx.cluster.timeline().duration_days as usize;
    (0..days)
        .map(|d| {
            sample(&ctx.cluster, machine, bench, d as f64, d as u64)
                .expect("machine comes from this cluster")
        })
        .collect()
}

/// F11 artifacts: the series, the PELT/CUSUM detections, and ground truth.
pub(crate) fn f11_temporal(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let bench = BenchmarkId::MemLatency;
    let machine = ctx.cluster.machines()[0].id;
    let series = daily_series(ctx, machine, bench);
    let truth = ctx.cluster.timeline().change_days(bench.subsystem());

    let pelt = pelt_mean(&series, None).unwrap_or_default();
    let cusum = cusum_detect(&series, 200, ctx.seed).ok();

    let mut fig = SeriesSet::new(
        "F11",
        "Daily mem-latency over the ten-month campaign (one machine)",
        "campaign day",
        "latency (ns)",
    );
    fig.push_series(
        "daily median",
        series
            .iter()
            .enumerate()
            .map(|(d, &v)| (d as f64, v))
            .collect(),
    );

    let mut t = Table::new(
        "F11-summary",
        "Changepoints: simulator ground truth vs detections",
        &["source", "positions (day)"],
    );
    let join = |days: &[f64]| {
        days.iter()
            .map(|d| fmt(*d, 0))
            .collect::<Vec<_>>()
            .join(" ")
    };
    t.push_row(vec!["ground truth".to_string(), join(&truth)]);
    t.push_row(vec![
        "PELT".to_string(),
        join(&pelt.iter().map(|&i| i as f64).collect::<Vec<_>>()),
    ]);
    if let Some(c) = cusum {
        t.push_row(vec![
            "CUSUM (single)".to_string(),
            format!(
                "{} (p = {:.4}, {:.1} -> {:.1})",
                c.changepoint, c.p_value, c.mean_before, c.mean_after
            ),
        ]);
    }
    Ok(vec![Artifact::Figure(fig), Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn pelt_recovers_the_maintenance_event() {
        let ctx = Context::new(Scale::Quick, 71);
        let machine = ctx.cluster.machines()[0].id;
        let series = daily_series(&ctx, machine, BenchmarkId::MemLatency);
        let truth = ctx
            .cluster
            .timeline()
            .change_days(testbed::Subsystem::MemoryLatency);
        assert_eq!(truth, vec![95.0]);
        let detected = pelt_mean(&series, None).unwrap();
        assert!(
            detected.iter().any(|&cp| (cp as f64 - 95.0).abs() <= 5.0),
            "PELT missed day-95 event: {detected:?}"
        );
    }

    #[test]
    fn cusum_flags_the_shift_as_significant() {
        let ctx = Context::new(Scale::Quick, 72);
        let machine = ctx.cluster.machines()[0].id;
        let series = daily_series(&ctx, machine, BenchmarkId::MemLatency);
        let c = cusum_detect(&series, 200, 7).unwrap();
        assert!(c.p_value < 0.05, "p = {}", c.p_value);
        assert!(
            (c.changepoint as f64 - 95.0).abs() <= 10.0,
            "{}",
            c.changepoint
        );
        assert!(c.mean_after > c.mean_before);
    }

    #[test]
    fn eventless_subsystem_stays_quiet() {
        let ctx = Context::new(Scale::Quick, 73);
        let machine = ctx.cluster.machines()[0].id;
        let series = daily_series(&ctx, machine, BenchmarkId::NetBandwidth);
        let detected = pelt_mean(&series, None).unwrap();
        assert!(
            detected.is_empty(),
            "no event scheduled for net-bw, got {detected:?}"
        );
    }

    #[test]
    fn f11_artifacts_include_truth_and_detection() {
        let ctx = Context::new(Scale::Quick, 74);
        let artifacts = f11_temporal(&ctx).unwrap();
        assert_eq!(artifacts.len(), 2);
        match &artifacts[1] {
            Artifact::Table(t) => {
                assert!(t.rows.len() >= 2);
                assert_eq!(t.rows[0][0], "ground truth");
                assert_eq!(t.rows[0][1], "95");
            }
            _ => panic!("expected table"),
        }
    }
}
