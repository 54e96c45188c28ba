//! A robust location estimator and robust standardization.
//!
//! Between "the mean" (efficient, fragile) and "the median" (robust, less
//! efficient) sits the Hodges–Lehmann pseudo-median.
//!
//! The median/MAD pair also powers robust standardization
//! ([`robust_zscore`]): the regression sentinel
//! scores every incoming run against its history with these z-scores,
//! because a single pathological run must not be able to drag the
//! baseline it is judged against (mean/stddev z-scores have a breakdown
//! point of 0; median/MAD hold up to 50% contamination).

use crate::error::{check_finite, invalid, Result, StatsError};

/// The Hodges–Lehmann estimator: the median of all pairwise Walsh
/// averages `(x_i + x_j) / 2`, `i <= j`.
///
/// More efficient than the median under near-normality, yet robust with a
/// breakdown point of ~29%.
///
/// # Errors
///
/// Returns an error on invalid input.
///
/// # Examples
///
/// ```
/// use varstats::robust::hodges_lehmann;
///
/// let hl = hodges_lehmann(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
/// assert_eq!(hl, 3.0);
/// ```
pub fn hodges_lehmann(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    let averages = walsh_averages(data);
    crate::quantile::median(&averages)
}

/// All Walsh averages of a sample, sorted ascending.
fn walsh_averages(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut averages = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in i..n {
            averages.push((data[i] + data[j]) / 2.0);
        }
    }
    averages.sort_by(|a, b| a.partial_cmp(b).expect("finite averages"));
    averages
}

/// Robust location and scale of a sample: the median paired with the
/// normal-consistent MAD.
///
/// Heavily tied samples (quantized timers, counters) can collapse the
/// MAD to zero even though the sample varies; the scale then falls back
/// to the normal-consistent IQR (`/ 1.349`) and finally to the standard
/// deviation, the same ladder `changepoint::robust_noise_sigma`
/// uses. A returned scale of exactly `0.0` therefore means the sample is
/// constant. Every rung of the ladder is shift- and (positive-)
/// scale-equivariant, so z-scores built from this pair are too.
///
/// # Errors
///
/// Returns an error on invalid input or fewer than 2 samples.
pub fn robust_location_scale(data: &[f64]) -> Result<(f64, f64)> {
    check_finite(data)?;
    if data.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: data.len(),
        });
    }
    let location = crate::quantile::median(data)?;
    let mad = crate::descriptive::mad(data)?;
    if mad > 0.0 {
        return Ok((location, mad));
    }
    let q1 = crate::quantile::quantile(data, 0.25, crate::quantile::QuantileMethod::Linear)?;
    let q3 = crate::quantile::quantile(data, 0.75, crate::quantile::QuantileMethod::Linear)?;
    let iqr = q3 - q1;
    if iqr > 0.0 {
        return Ok((location, iqr / 1.349));
    }
    Ok((location, crate::descriptive::std_dev(data)?))
}

/// Standardizes `x` against `(location, scale)` from
/// [`robust_location_scale`], defining the constant-sample case: with
/// `scale == 0` the z-score is `0` when `x` equals the location and
/// `±inf` otherwise — any deviation from a perfectly constant baseline
/// is infinitely surprising.
fn standardize(x: f64, location: f64, scale: f64) -> f64 {
    if scale > 0.0 {
        (x - location) / scale
    } else if x == location {
        0.0
    } else if x > location {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
}

/// Robust z-score of one new observation `x` against a reference sample:
/// `(x - median) / MAD` with the fallback ladder and constant-sample
/// semantics of [`robust_location_scale`]. The reference is *not*
/// expected to contain `x` — this is the auditor's "score the incoming
/// run against history" primitive.
///
/// # Errors
///
/// Returns an error on invalid input, a non-finite `x`, or a reference
/// of fewer than 2 samples.
///
/// # Examples
///
/// ```
/// use varstats::robust::robust_zscore;
///
/// let history = [10.0, 10.5, 9.5, 10.2, 9.8];
/// assert!(robust_zscore(&history, 10.1).unwrap().abs() < 1.0);
/// assert!(robust_zscore(&history, 25.0).unwrap() > 10.0);
/// ```
pub fn robust_zscore(reference: &[f64], x: f64) -> Result<f64> {
    if !x.is_finite() {
        return Err(invalid("x", format!("must be finite, got {x}")));
    }
    let (location, scale) = robust_location_scale(reference)?;
    Ok(standardize(x, location, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_estimators_shrug_off_outliers() {
        let clean: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut dirty = clean.clone();
        dirty[19] = 1.0e6;
        let hl_clean = hodges_lehmann(&clean).unwrap();
        let hl_dirty = hodges_lehmann(&dirty).unwrap();
        assert!((hl_clean - hl_dirty).abs() < 1.5);
    }

    #[test]
    fn hodges_lehmann_symmetric_data() {
        // For symmetric data HL equals the center.
        let data = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0];
        assert_eq!(hodges_lehmann(&data).unwrap(), 0.0);
    }

    #[test]
    fn zscore_rejects_non_finite_observation() {
        let history = [1.0, 2.0, 3.0];
        assert!(robust_zscore(&history, f64::NAN).is_err());
        assert!(robust_zscore(&history, f64::INFINITY).is_err());
    }

    #[test]
    fn validation() {
        assert!(hodges_lehmann(&[f64::NAN]).is_err());
    }
}
