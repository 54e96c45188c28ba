//! Confidence intervals: parametric, non-parametric, and bootstrap.
//!
//! The paper's central methodological point is that benchmark data is
//! usually not normal, so mean-plus-t-interval summaries mislead; the
//! median with an **order-statistic (non-parametric) confidence interval**
//! should be the default. All three families are provided so they can be
//! compared head-to-head (experiment F7/T3).

pub mod bootstrap;
pub mod nonparametric;
pub mod parametric;

use crate::error::{invalid, Result};

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate the interval is centered on (mean, median, ...).
    pub estimate: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Interval width `upper - lower`.
    fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Half-width relative to the point estimate: `width / (2 |estimate|)`.
    ///
    /// This is the "error" the paper's ±1% criterion refers to. Returns
    /// infinity when the estimate is zero.
    pub fn relative_half_width(&self) -> f64 {
        if self.estimate == 0.0 {
            f64::INFINITY
        } else {
            self.width() / (2.0 * self.estimate.abs())
        }
    }

    /// Largest relative distance from the estimate to either bound.
    pub fn relative_bound_error(&self) -> f64 {
        if self.estimate == 0.0 {
            return f64::INFINITY;
        }
        let lo = (self.estimate - self.lower).abs();
        let hi = (self.upper - self.estimate).abs();
        lo.max(hi) / self.estimate.abs()
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Validates a confidence level, returning it on success.
///
/// # Errors
///
/// Returns an error unless `0 < confidence < 1`.
pub(crate) fn check_confidence(confidence: f64) -> Result<f64> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(invalid(
            "confidence",
            format!("must be in (0, 1), got {confidence}"),
        ));
    }
    Ok(confidence)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(lo: f64, est: f64, hi: f64) -> ConfidenceInterval {
        ConfidenceInterval {
            estimate: est,
            lower: lo,
            upper: hi,
            confidence: 0.95,
        }
    }

    #[test]
    fn width_and_relative_errors() {
        let c = ci(98.0, 100.0, 104.0);
        assert_eq!(c.width(), 6.0);
        assert!((c.relative_half_width() - 0.03).abs() < 1e-12);
        assert!((c.relative_bound_error() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn zero_estimate_yields_infinite_relative_error() {
        let c = ci(-1.0, 0.0, 1.0);
        assert!(c.relative_half_width().is_infinite());
        assert!(c.relative_bound_error().is_infinite());
    }

    #[test]
    fn contains_is_inclusive() {
        let c = ci(1.0, 2.0, 3.0);
        assert!(c.contains(1.0));
        assert!(c.contains(3.0));
        assert!(c.contains(2.5));
        assert!(!c.contains(0.999));
        assert!(!c.contains(3.001));
    }

    #[test]
    fn check_confidence_domain() {
        assert!(check_confidence(0.95).is_ok());
        assert!(check_confidence(0.0).is_err());
        assert!(check_confidence(1.0).is_err());
        assert!(check_confidence(f64::NAN).is_err());
    }
}
