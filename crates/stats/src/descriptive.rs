//! Descriptive statistics: one-pass moments and robust summaries.

use crate::error::{check_finite, Result, StatsError};
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::samples::Samples;

/// Streaming (one-pass) accumulator for the first four central moments,
/// using Welford's numerically stable recurrences.
///
/// # Examples
///
/// ```
/// use varstats::descriptive::Moments;
///
/// let mut m = Moments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.update(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the accumulator.
    pub fn update(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.mean += delta_n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance (`n - 1` denominator).
    ///
    /// Returns 0 when fewer than two observations have been seen.
    fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population variance (`n` denominator).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation `s / |mean|`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroVariance`] when the mean is zero (CoV is
    /// undefined there).
    pub fn cov(&self) -> Result<f64> {
        if self.mean == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(self.std_dev() / self.mean.abs())
    }

    /// Sample skewness `g1 = sqrt(n) m3 / m2^(3/2)`.
    ///
    /// Returns 0 for degenerate (constant) data.
    fn skewness(&self) -> f64 {
        if self.n < 2 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n.sqrt() * self.m3 / self.m2.powf(1.5)
    }

    /// Excess kurtosis `g2 = n m4 / m2^2 - 3`.
    ///
    /// Returns 0 for degenerate (constant) data.
    fn excess_kurtosis(&self) -> f64 {
        if self.n < 2 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n * self.m4 / (self.m2 * self.m2) - 3.0
    }

    /// Standard error of the mean, `s / sqrt(n)`.
    pub(crate) fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = Moments::new();
        for x in iter {
            m.update(x);
        }
        m
    }
}

/// Mean of a slice.
///
/// # Errors
///
/// Returns an error on empty or non-finite input.
pub fn mean(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased sample standard deviation of a slice.
///
/// # Errors
///
/// Returns an error on empty or non-finite input.
pub(crate) fn std_dev(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    Ok(data.iter().copied().collect::<Moments>().std_dev())
}

/// Coefficient of variation of a slice (`s / |mean|`).
///
/// # Errors
///
/// Returns an error on empty/non-finite input or a zero mean.
pub fn coefficient_of_variation(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    data.iter().copied().collect::<Moments>().cov()
}

/// The factor that makes the MAD a consistent estimator of a normal
/// standard deviation (`1 / Φ⁻¹(3/4)`).
pub const MAD_NORMAL_SCALE: f64 = 1.482_602_218_505_602;

/// Median absolute deviation (scaled by [`MAD_NORMAL_SCALE`] for normal
/// consistency).
///
/// # Errors
///
/// Returns an error on empty or non-finite input.
pub fn mad(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    let med = crate::quantile::median(data)?;
    let deviations: Vec<f64> = data.iter().map(|x| (x - med).abs()).collect();
    Ok(MAD_NORMAL_SCALE * crate::quantile::median(&deviations)?)
}

/// Full descriptive summary of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / |mean|`; 0 when mean is 0).
    pub cov: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (type 7).
    pub q1: f64,
    /// Median (type 7).
    pub median: f64,
    /// Third quartile (type 7).
    pub q3: f64,
    /// 95th percentile (type 7).
    pub p95: f64,
    /// 99th percentile (type 7).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Scaled median absolute deviation.
    pub mad: f64,
    /// Sample skewness.
    pub skewness: f64,
    /// Excess kurtosis.
    pub excess_kurtosis: f64,
}

impl Summary {
    /// Computes the summary of a validated sample set.
    pub(crate) fn from_samples(samples: &Samples) -> Self {
        let sorted = samples.sorted();
        let moments: Moments = samples.data().iter().copied().collect();
        let q =
            |p: f64| quantile_sorted(sorted, p, QuantileMethod::Linear).expect("validated samples");
        let median = q(0.5);
        let deviations: Vec<f64> = samples.data().iter().map(|x| (x - median).abs()).collect();
        let mad_raw = crate::quantile::median(&deviations).expect("non-empty");
        Summary {
            n: samples.len(),
            mean: moments.mean(),
            std_dev: moments.std_dev(),
            cov: moments.cov().unwrap_or(0.0),
            min: samples.min(),
            q1: q(0.25),
            median,
            q3: q(0.75),
            p95: q(0.95),
            p99: q(0.99),
            max: samples.max(),
            mad: MAD_NORMAL_SCALE * mad_raw,
            skewness: moments.skewness(),
            excess_kurtosis: moments.excess_kurtosis(),
        }
    }

    /// Computes the summary directly from a slice.
    ///
    /// # Errors
    ///
    /// Returns an error on empty or non-finite input.
    pub fn from_slice(data: &[f64]) -> Result<Self> {
        Ok(Self::from_samples(&Samples::from_slice(data)?))
    }

    /// Relative mean-median gap `(mean - median) / median` — a quick skew
    /// indicator the paper uses to argue for medians.
    pub fn mean_median_gap(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.mean - self.median) / self.median
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "n       {:>14}", self.n)?;
        writeln!(f, "mean    {:>14.4}", self.mean)?;
        writeln!(f, "std dev {:>14.4}", self.std_dev)?;
        writeln!(f, "CoV     {:>13.2}%", self.cov * 100.0)?;
        writeln!(f, "min     {:>14.4}", self.min)?;
        writeln!(f, "q1      {:>14.4}", self.q1)?;
        writeln!(f, "median  {:>14.4}", self.median)?;
        writeln!(f, "q3      {:>14.4}", self.q3)?;
        writeln!(f, "p95     {:>14.4}", self.p95)?;
        writeln!(f, "p99     {:>14.4}", self.p99)?;
        writeln!(f, "max     {:>14.4}", self.max)?;
        writeln!(f, "MAD     {:>14.4}", self.mad)?;
        write!(f, "skew    {:>14.4}", self.skewness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn moments_known_dataset() {
        // Data 2,4,4,4,5,5,7,9: mean 5, population variance 4.
        let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        close(m.mean(), 5.0, 1e-12);
        close(m.population_variance(), 4.0, 1e-12);
        close(m.sample_variance(), 32.0 / 7.0, 1e-12);
        close(m.min(), 2.0, 0.0);
        close(m.max(), 9.0, 0.0);
    }

    #[test]
    fn moments_match_two_pass_formulas() {
        let data: Vec<f64> = (0..500)
            .map(|i| ((i * 2654435761u64 as usize) % 997) as f64 / 99.0)
            .collect();
        let m: Moments = data.iter().copied().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let m2: f64 = data.iter().map(|x| (x - mean).powi(2)).sum();
        let m3: f64 = data.iter().map(|x| (x - mean).powi(3)).sum();
        let m4: f64 = data.iter().map(|x| (x - mean).powi(4)).sum();
        close(m.mean(), mean, 1e-9);
        close(m.sample_variance(), m2 / (n - 1.0), 1e-8);
        close(m.skewness(), n.sqrt() * m3 / m2.powf(1.5), 1e-8);
        close(m.excess_kurtosis(), n * m4 / (m2 * m2) - 3.0, 1e-8);
    }

    #[test]
    fn skewness_sign_matches_shape() {
        // Right-skewed data has positive skewness.
        let right: Moments = [1.0, 1.0, 1.0, 1.0, 10.0].iter().copied().collect();
        assert!(right.skewness() > 0.0);
        let left: Moments = [10.0, 10.0, 10.0, 10.0, 1.0].iter().copied().collect();
        assert!(left.skewness() < 0.0);
        let sym: Moments = [1.0, 2.0, 3.0, 4.0, 5.0].iter().copied().collect();
        close(sym.skewness(), 0.0, 1e-12);
    }

    #[test]
    fn constant_data_is_degenerate() {
        let m: Moments = [5.0; 10].iter().copied().collect();
        close(m.std_dev(), 0.0, 1e-15);
        close(m.skewness(), 0.0, 0.0);
        close(m.excess_kurtosis(), 0.0, 0.0);
    }

    #[test]
    fn cov_requires_nonzero_mean() {
        let m: Moments = [-1.0, 1.0].iter().copied().collect();
        assert_eq!(m.cov(), Err(StatsError::ZeroVariance));
        let m: Moments = [10.0, 12.0].iter().copied().collect();
        assert!(m.cov().unwrap() > 0.0);
    }

    #[test]
    fn mad_is_robust_to_outliers() {
        let clean = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1];
        let mut dirty = clean.to_vec();
        dirty.push(1000.0);
        let mad_clean = mad(&clean).unwrap();
        let mad_dirty = mad(&dirty).unwrap();
        // MAD barely moves; standard deviation explodes.
        assert!(mad_dirty < 3.0 * mad_clean);
        assert!(std_dev(&dirty).unwrap() > 100.0 * std_dev(&clean).unwrap());
    }

    #[test]
    fn summary_fields_are_consistent() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_slice(&data).unwrap();
        assert_eq!(s.n, 100);
        close(s.mean, 50.5, 1e-12);
        close(s.median, 50.5, 1e-12);
        close(s.min, 1.0, 0.0);
        close(s.max, 100.0, 0.0);
        assert!(s.q1 < s.median && s.median < s.q3);
        assert!(s.p95 <= s.p99 && s.p99 <= s.max);
        close(s.mean_median_gap(), 0.0, 1e-12);
    }

    #[test]
    fn summary_flags_skew_via_mean_median_gap() {
        let mut data = vec![10.0; 99];
        data.push(1000.0);
        let s = Summary::from_slice(&data).unwrap();
        assert!(s.mean_median_gap() > 0.5, "gap {}", s.mean_median_gap());
        assert!(s.skewness > 5.0);
    }

    #[test]
    fn summary_display_renders_all_rows() {
        let data: Vec<f64> = (1..=50).map(f64::from).collect();
        let text = Summary::from_slice(&data).unwrap().to_string();
        for key in ["mean", "median", "p99", "MAD", "skew", "CoV"] {
            assert!(text.contains(key), "missing {key}: {text}");
        }
        assert_eq!(text.lines().count(), 13);
    }

    #[test]
    fn slice_helpers_validate() {
        assert!(mean(&[]).is_err());
        assert!(std_dev(&[f64::NAN]).is_err());
        assert!(coefficient_of_variation(&[1.0, -1.0]).is_err());
        close(mean(&[1.0, 3.0]).unwrap(), 2.0, 1e-15);
    }
}
