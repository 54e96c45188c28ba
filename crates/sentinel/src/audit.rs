//! Scoring a new run against its history.
//!
//! For every metric the newest record carries, the auditor builds the
//! series of prior values from *comparable* records (same kind, scale,
//! and workload fingerprint — see `RunRecord::comparable_to`) and
//! scores the new value two ways:
//!
//! * **Robust z-score** ([`varstats::robust::robust_zscore`]) against
//!   the prior series: median-centered, MAD-scaled, so one historic
//!   outlier can neither hide a regression nor fabricate one. Metrics
//!   are lower-is-better; by default only *upward* deviations flag.
//! * **Online CUSUM** ([`varstats::online::OnlineCusum`]) over the
//!   whole series including the new value: a slow drift that no single
//!   run makes suspicious still trips the accumulated statistic, and
//!   the alarm reports the index where the regime shifted.
//!
//! With fewer than [`AuditConfig::min_history`] comparable priors a
//! metric is in **warm-up** and never flags — the first runs on a new
//! machine or workload build the baseline instead of failing against
//! an empty one. Warm-up is per metric, so a newly added metric warms
//! up without blocking ones with established baselines.

use crate::record::RunRecord;
use crate::{Result, SentinelError};
use varstats::online::{OnlineCusum, OnlineCusumConfig};
use varstats::robust::robust_zscore;

/// Tuning for [`audit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Robust z-score above which a metric flags. The default, 4 robust
    /// σ, is deliberately far out: the paper's data shows benchmark
    /// noise is heavy-tailed, and a sentinel that cries wolf gets
    /// disabled.
    pub max_z: f64,
    /// Comparable priors a metric needs before it can flag. Must be
    /// ≥ 2 (the robust baseline needs at least two points).
    pub min_history: usize,
    /// When `true`, downward deviations (suspicious speedups) flag
    /// too. Off by default: metrics are lower-is-better and a speedup
    /// is not a CI failure, but `repro sentinel audit --two-sided`
    /// surfaces them for humans.
    pub two_sided: bool,
    /// Drift and threshold for the online change-point pass. The
    /// warm-up is overridden to `min_history` so both passes come
    /// alive together.
    pub cusum: OnlineCusumConfig,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            max_z: 4.0,
            min_history: 4,
            two_sided: false,
            cusum: OnlineCusumConfig::default(),
        }
    }
}

/// How one metric fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricStatus {
    /// Within the robust envelope of its history.
    Ok,
    /// Outside the envelope: this run regressed the metric (or, under
    /// `two_sided`, deviated in either direction).
    Flagged,
    /// Not enough comparable history yet; never flags.
    WarmUp,
}

/// The audit's verdict on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFinding {
    /// Metric name.
    pub name: String,
    /// Value in the audited run.
    pub value: f64,
    /// Median of the comparable prior values (NaN during warm-up with
    /// no priors).
    pub baseline: f64,
    /// Robust z-score of `value` against the priors (NaN during
    /// warm-up; ±∞ for a deviation from a constant history).
    pub z: f64,
    /// Number of comparable prior values the score stands on.
    pub priors: usize,
    /// Verdict.
    pub status: MetricStatus,
    /// Change-point index the online CUSUM reported while scanning
    /// this metric's series (priors followed by the audited value;
    /// index counts into that series). `Some` only when the detector
    /// alarmed on the *audited* value — an old, already-absorbed shift
    /// is history, not news.
    pub changepoint: Option<usize>,
}

/// Result of auditing one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-metric findings, in metric name order.
    pub findings: Vec<MetricFinding>,
    /// Comparable prior records the audit ran against.
    pub history_len: usize,
    /// Configuration used.
    pub config: AuditConfig,
}

impl AuditReport {
    /// Names of flagged metrics, in name order.
    pub fn flagged(&self) -> Vec<&str> {
        self.findings
            .iter()
            .filter(|f| f.status == MetricStatus::Flagged)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Whether the run regressed: any metric flagged.
    pub fn regression(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.status == MetricStatus::Flagged)
    }

    /// Whether every metric is still warming up.
    pub fn all_warm_up(&self) -> bool {
        self.findings
            .iter()
            .all(|f| f.status == MetricStatus::WarmUp)
    }
}

/// Audits `latest` against `history` (records in append order; only
/// those comparable to `latest` are used — callers can pass the whole
/// store).
///
/// # Errors
///
/// Returns an error on an invalid configuration or a non-finite metric
/// value (the record codec rejects those at write time, so a store
/// written by this crate never triggers it).
pub fn audit(
    history: &[RunRecord],
    latest: &RunRecord,
    config: &AuditConfig,
) -> Result<AuditReport> {
    if config.min_history < 2 {
        return Err(SentinelError::InvalidConfig(format!(
            "min_history must be at least 2, got {}",
            config.min_history
        )));
    }
    if !(config.max_z > 0.0 && config.max_z.is_finite()) {
        return Err(SentinelError::InvalidConfig(format!(
            "max_z must be finite and positive, got {}",
            config.max_z
        )));
    }
    let cusum_config = OnlineCusumConfig {
        warm_up: config.min_history,
        max_reference: config.cusum.max_reference.max(config.min_history),
        ..config.cusum
    };
    // Fail fast on a bad CUSUM config before scoring anything.
    OnlineCusum::new(cusum_config)?;

    let priors: Vec<&RunRecord> = history.iter().filter(|r| r.comparable_to(latest)).collect();
    let mut findings = Vec::with_capacity(latest.metrics.len());
    for (name, &value) in &latest.metrics {
        // A prior that lacks this metric contributes nothing — new
        // metrics warm up individually.
        let series: Vec<f64> = priors
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        if series.len() < config.min_history {
            findings.push(MetricFinding {
                name: name.clone(),
                value,
                baseline: if series.len() < 2 {
                    series.first().copied().unwrap_or(f64::NAN)
                } else {
                    varstats::robust::robust_location_scale(&series)?.0
                },
                z: f64::NAN,
                priors: series.len(),
                status: MetricStatus::WarmUp,
                changepoint: None,
            });
            continue;
        }
        let z = robust_zscore(&series, value)?;
        let exceeded = if config.two_sided { z.abs() } else { z };
        let status = if exceeded > config.max_z {
            MetricStatus::Flagged
        } else {
            MetricStatus::Ok
        };
        // Online pass over priors + the audited value. Only an alarm
        // fired by the final push is attributed to this run.
        let mut detector = OnlineCusum::new(cusum_config)?;
        for &x in &series {
            detector.push(x)?;
        }
        let changepoint = detector.push(value)?;
        findings.push(MetricFinding {
            name: name.clone(),
            value,
            baseline: varstats::robust::robust_location_scale(&series)?.0,
            z,
            priors: series.len(),
            status,
            changepoint,
        });
    }
    Ok(AuditReport {
        findings,
        history_len: priors.len(),
        config: *config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, wall: f64) -> RunRecord {
        let mut r = RunRecord::new("repro-all", "repro", "0.1.0", seed, "quick");
        r.unix_secs = seed;
        r.push_metric("total_wall_secs", wall).unwrap();
        r
    }

    fn history(walls: &[f64]) -> Vec<RunRecord> {
        walls
            .iter()
            .enumerate()
            .map(|(i, &w)| run(i as u64, w))
            .collect()
    }

    #[test]
    fn stable_history_and_stable_run_pass() {
        let h = history(&[1.0, 1.05, 0.98, 1.02, 1.01]);
        let report = audit(&h, &run(9, 1.03), &AuditConfig::default()).unwrap();
        assert!(!report.regression());
        let f = &report.findings[0];
        assert_eq!(f.status, MetricStatus::Ok);
        assert_eq!(f.priors, 5);
        assert!(f.z.abs() < 2.0, "z {}", f.z);
        assert_eq!(f.changepoint, None);
    }

    #[test]
    fn gross_regression_flags_with_changepoint() {
        let h = history(&[1.0, 1.05, 0.98, 1.02, 1.01, 0.99]);
        let report = audit(&h, &run(9, 5.0), &AuditConfig::default()).unwrap();
        assert!(report.regression());
        assert_eq!(report.flagged(), ["total_wall_secs"]);
        let f = &report.findings[0];
        assert!(f.z > 4.0, "z {}", f.z);
        // The online detector pins the shift to the audited point,
        // index 6 of the 7-point series.
        assert_eq!(f.changepoint, Some(6));
    }

    #[test]
    fn speedups_pass_one_sided_but_flag_two_sided() {
        let h = history(&[1.0, 1.05, 0.98, 1.02, 1.01, 0.99]);
        let fast = run(9, 0.1);
        let report = audit(&h, &fast, &AuditConfig::default()).unwrap();
        assert!(!report.regression(), "a speedup is not a regression");
        let two_sided = AuditConfig {
            two_sided: true,
            ..Default::default()
        };
        let report = audit(&h, &fast, &two_sided).unwrap();
        assert!(report.regression());
    }

    #[test]
    fn warm_up_never_flags() {
        let config = AuditConfig::default(); // min_history 4
        for n in 0..4 {
            let h = history(&vec![1.0; n]);
            let report = audit(&h, &run(9, 1000.0), &config).unwrap();
            assert!(!report.regression(), "warm-up with {n} priors must pass");
            assert!(report.all_warm_up());
            assert_eq!(report.findings[0].priors, n);
        }
        // One more prior crosses the threshold and the same run flags.
        let report = audit(&history(&[1.0; 4]), &run(9, 1000.0), &config).unwrap();
        assert!(report.regression());
    }

    #[test]
    fn incomparable_records_are_excluded_from_the_baseline() {
        let mut h = history(&[1.0, 1.01, 0.99, 1.02]);
        // Same metric values but a different scale: not this population.
        let mut other = run(50, 1.0);
        other.scale = "paper".to_string();
        h.push(other.clone());
        h.push(other);
        let report = audit(&h, &run(9, 1.0), &AuditConfig::default()).unwrap();
        assert_eq!(report.history_len, 4);
        assert_eq!(report.findings[0].priors, 4);
    }

    #[test]
    fn constant_history_equal_passes_deviation_flags() {
        let h = history(&[2.0; 6]);
        let same = audit(&h, &run(9, 2.0), &AuditConfig::default()).unwrap();
        assert!(!same.regression());
        assert_eq!(same.findings[0].z, 0.0);
        let worse = audit(&h, &run(9, 2.0001), &AuditConfig::default()).unwrap();
        assert!(worse.regression());
        assert_eq!(worse.findings[0].z, f64::INFINITY);
    }

    #[test]
    fn metrics_missing_from_history_warm_up_individually() {
        let mut h = history(&[1.0, 1.01, 0.99, 1.02, 1.0]);
        let mut latest = run(9, 1.0);
        latest.push_metric("wall_secs.NEW", 10.0).unwrap();
        let report = audit(&h, &latest, &AuditConfig::default()).unwrap();
        let by_name = |n: &str| report.findings.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("total_wall_secs").status, MetricStatus::Ok);
        assert_eq!(by_name("wall_secs.NEW").status, MetricStatus::WarmUp);
        assert!(!report.regression());
        // Findings are in metric name order.
        let names: Vec<&str> = report.findings.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["total_wall_secs", "wall_secs.NEW"]);
        // Once the new metric has history, it audits like any other.
        for r in h.iter_mut() {
            r.push_metric("wall_secs.NEW", 10.0).unwrap();
        }
        let report = audit(&h, &latest, &AuditConfig::default()).unwrap();
        assert_eq!(by_name("wall_secs.NEW").name, "wall_secs.NEW");
        assert_eq!(
            report
                .findings
                .iter()
                .find(|f| f.name == "wall_secs.NEW")
                .unwrap()
                .status,
            MetricStatus::Ok
        );
    }

    #[test]
    fn slow_drift_trips_the_online_detector() {
        // A sustained +2-robust-σ shift: each run clears the single-run
        // test (z ≈ 2 < max_z 4), but the CUSUM accumulates ~1.5 per
        // point and crosses h = 6 exactly when the audited value lands.
        let mut walls: Vec<f64> = (0..12).map(|i| 1.0 + 0.01 * (i % 3) as f64).collect();
        walls.extend([1.04; 3]);
        let h = history(&walls);
        let report = audit(&h, &run(99, 1.04), &AuditConfig::default()).unwrap();
        let f = &report.findings[0];
        assert_eq!(
            f.status,
            MetricStatus::Ok,
            "no single run is suspicious on its own: z {}",
            f.z
        );
        assert!(f.z < 4.0, "z {}", f.z);
        // The excursion-start estimator dates the change from where the
        // alarming statistic left zero — at or just before the true
        // shift at index 12.
        assert!(
            matches!(f.changepoint, Some(11 | 12)),
            "accumulated drift should alarm near index 12: {report:?}"
        );
    }

    #[test]
    fn config_validation() {
        let h = history(&[1.0; 5]);
        let latest = run(9, 1.0);
        let bad_history = AuditConfig {
            min_history: 1,
            ..Default::default()
        };
        assert!(audit(&h, &latest, &bad_history).is_err());
        let bad_z = AuditConfig {
            max_z: 0.0,
            ..Default::default()
        };
        assert!(audit(&h, &latest, &bad_z).is_err());
    }
}
