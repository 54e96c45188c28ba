//! Online ("have I run enough repetitions yet?") planning.
//!
//! CONFIRM proper needs a pre-collected pool to subsample from. When an
//! experimenter is collecting runs *live*, the natural variant is
//! sequential: after each new measurement, compute the non-parametric CI
//! on everything collected so far and stop when its relative error meets
//! the target. This module implements that stopping rule with the same
//! configuration type, plus guard rails (minimum repetitions, an optional
//! independence check, and a hard cap).

use varstats::ci::nonparametric::{min_samples_for_quantile_ci, quantile_ci_approx};
use varstats::ci::parametric::mean_ci_t;
use varstats::ci::ConfidenceInterval;
use varstats::error::{Result, StatsError};
use varstats::independence::acf_check;

use crate::config::{ConfirmConfig, ErrorCriterion, Statistic};

/// Status of a sequential experiment after the latest measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStatus {
    /// Too few measurements to evaluate anything yet.
    Collecting {
        /// How many measurements are still needed to reach the minimum.
        needed: usize,
    },
    /// The CI is still wider than the target; keep running.
    Continue {
        /// Current relative error.
        rel_error: f64,
        /// Current interval.
        ci: ConfidenceInterval,
    },
    /// The target is met; stop.
    Satisfied {
        /// Number of repetitions collected.
        repetitions: usize,
        /// The final interval.
        ci: ConfidenceInterval,
    },
    /// The hard cap was reached without satisfying the target.
    CapReached {
        /// The cap.
        cap: usize,
        /// Current relative error.
        rel_error: f64,
    },
}

/// A live repetition planner.
///
/// # Examples
///
/// ```
/// use confirm::{ConfirmConfig, SequentialPlanner, PlanStatus};
///
/// let config = ConfirmConfig::default().with_target_rel_error(0.05);
/// let mut planner = SequentialPlanner::new(config, 1000);
/// let mut status = None;
/// for i in 0..200 {
///     status = Some(planner.push(100.0 + (i % 5) as f64).unwrap());
///     if matches!(status, Some(PlanStatus::Satisfied { .. })) {
///         break;
///     }
/// }
/// assert!(matches!(status.unwrap(), PlanStatus::Satisfied { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct SequentialPlanner {
    config: ConfirmConfig,
    cap: usize,
    data: Vec<f64>,
    stopped: bool,
}

impl SequentialPlanner {
    /// Creates a planner with a hard cap on repetitions.
    pub fn new(config: ConfirmConfig, cap: usize) -> Self {
        Self {
            config,
            cap,
            data: Vec::new(),
            stopped: false,
        }
    }

    /// Measurements collected so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no measurements have been collected.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The measurements collected so far.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Adds one measurement and re-evaluates the stopping rule.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is not finite or the configuration is
    /// invalid.
    pub fn push(&mut self, value: f64) -> Result<PlanStatus> {
        self.config.validate()?;
        if !value.is_finite() {
            return Err(StatsError::NonFiniteValue {
                index: self.data.len(),
            });
        }
        self.data.push(value);
        telemetry::metrics::counter("confirm.seq.pushed").inc();
        let status = self.status()?;
        if let PlanStatus::Satisfied { repetitions, .. } = &status {
            // Per-evaluation: counts every satisfied re-evaluation as data
            // keeps arriving.
            telemetry::metrics::counter("confirm.seq.satisfied").inc();
            if !self.stopped {
                // Latching: each planner stops at most once, at its first
                // satisfied evaluation — `confirm.seq.stopped` counts
                // planners, `confirm.seq.stop_n` their stopping points.
                self.stopped = true;
                telemetry::metrics::counter("confirm.seq.stopped").inc();
                telemetry::metrics::histogram("confirm.seq.stop_n").record(*repetitions as f64);
            }
        }
        Ok(status)
    }

    /// Evaluates the stopping rule on the current data.
    ///
    /// # Errors
    ///
    /// Returns an error only for degenerate data (zero reference).
    fn status(&self) -> Result<PlanStatus> {
        let n = self.data.len();
        let floor = match self.config.statistic {
            Statistic::Median => min_samples_for_quantile_ci(0.5, self.config.confidence)?,
            Statistic::Quantile(q) => min_samples_for_quantile_ci(q, self.config.confidence)?,
            Statistic::Mean => 2,
        };
        let minimum = self.config.min_subset.max(floor);
        if n < minimum {
            return Ok(PlanStatus::Collecting {
                needed: minimum - n,
            });
        }
        let ci = match self.config.statistic {
            Statistic::Median => quantile_ci_approx(&self.data, 0.5, self.config.confidence)?.ci,
            Statistic::Quantile(q) => quantile_ci_approx(&self.data, q, self.config.confidence)?.ci,
            Statistic::Mean => mean_ci_t(&self.data, self.config.confidence)?,
        };
        if ci.estimate == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let rel_error = match self.config.criterion {
            ErrorCriterion::HalfWidth => ci.relative_half_width(),
            ErrorCriterion::WorstBound => ci.relative_bound_error(),
        };
        if rel_error <= self.config.target_rel_error {
            Ok(PlanStatus::Satisfied { repetitions: n, ci })
        } else if n >= self.cap {
            Ok(PlanStatus::CapReached {
                cap: self.cap,
                rel_error,
            })
        } else {
            Ok(PlanStatus::Continue { rel_error, ci })
        }
    }

    /// Checks whether the collected series looks independent (lag 1..=5
    /// autocorrelations inside the white-noise band). CIs mislead when it
    /// does not.
    ///
    /// # Errors
    ///
    /// Returns an error with fewer than 20 samples.
    pub fn independence_ok(&self) -> Result<bool> {
        if self.data.len() < 20 {
            return Err(StatsError::TooFewSamples {
                needed: 20,
                got: self.data.len(),
            });
        }
        Ok(acf_check(&self.data, 5)?.looks_independent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix;

    #[test]
    fn collects_until_minimum() {
        let mut p = SequentialPlanner::new(ConfirmConfig::default(), 100);
        for i in 0..9 {
            let s = p.push(10.0 + i as f64 * 0.001).unwrap();
            assert_eq!(s, PlanStatus::Collecting { needed: 9 - i });
        }
        let s = p.push(10.0).unwrap();
        assert!(!matches!(s, PlanStatus::Collecting { .. }));
    }

    #[test]
    fn tight_stream_satisfies_quickly() {
        let mut p =
            SequentialPlanner::new(ConfirmConfig::default().with_target_rel_error(0.01), 500);
        let mut u = splitmix(1);
        let mut reps = 0;
        for _ in 0..500 {
            reps += 1;
            if let PlanStatus::Satisfied { repetitions, ci } =
                p.push(100.0 + 0.1 * (u() - 0.5)).unwrap()
            {
                assert_eq!(repetitions, reps);
                assert!(ci.relative_half_width() <= 0.01);
                return;
            }
        }
        panic!("never satisfied");
    }

    #[test]
    fn noisy_stream_hits_cap() {
        let mut p =
            SequentialPlanner::new(ConfirmConfig::default().with_target_rel_error(0.001), 40);
        let mut u = splitmix(2);
        let mut last = None;
        for _ in 0..40 {
            last = Some(p.push(100.0 + 50.0 * (u() - 0.5)).unwrap());
        }
        assert!(
            matches!(last, Some(PlanStatus::CapReached { cap: 40, .. })),
            "{last:?}"
        );
    }

    #[test]
    fn rejects_non_finite() {
        let mut p = SequentialPlanner::new(ConfirmConfig::default(), 100);
        assert!(p.push(f64::NAN).is_err());
        assert!(p.push(f64::INFINITY).is_err());
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn independence_check_flags_trend() {
        let mut p = SequentialPlanner::new(ConfirmConfig::default(), 1000);
        for i in 0..50 {
            let _ = p.push(100.0 + i as f64).unwrap();
        }
        assert!(!p.independence_ok().unwrap());

        let mut p2 = SequentialPlanner::new(ConfirmConfig::default(), 1000);
        let mut u = splitmix(3);
        for _ in 0..200 {
            let _ = p2.push(100.0 + u()).unwrap();
        }
        assert!(p2.independence_ok().unwrap());
    }

    #[test]
    fn independence_check_needs_data() {
        let p = SequentialPlanner::new(ConfirmConfig::default(), 100);
        assert!(p.independence_ok().is_err());
    }

    #[test]
    fn mean_statistic_stream() {
        let cfg = ConfirmConfig::default()
            .with_statistic(Statistic::Mean)
            .with_target_rel_error(0.02);
        let mut p = SequentialPlanner::new(cfg, 1000);
        let mut u = splitmix(4);
        for _ in 0..300 {
            if let PlanStatus::Satisfied { ci, .. } = p.push(50.0 + 5.0 * (u() - 0.5)).unwrap() {
                assert!((ci.estimate - 50.0).abs() < 1.0);
                return;
            }
        }
        panic!("mean stream never satisfied");
    }
}
