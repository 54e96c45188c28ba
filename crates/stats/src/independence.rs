//! Independence diagnostics for measurement series.
//!
//! Confidence intervals assume i.i.d. samples. Repeated benchmark runs can
//! violate independence (warm caches, thermal state, background daemons),
//! so the paper's methodology — and any sound use of CONFIRM — starts by
//! checking it. Provided: the autocorrelation function and Spearman rank
//! correlation against time.

use crate::error::{check_finite, invalid, Result, StatsError};

/// Sample autocorrelation at a single `lag`.
///
/// # Errors
///
/// Returns an error on invalid input, `lag >= n`, or zero variance.
///
/// # Examples
///
/// ```
/// use varstats::independence::autocorrelation;
///
/// // A strictly alternating series is perfectly negatively correlated at
/// // lag 1.
/// let data = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
/// let r = autocorrelation(&data, 1).unwrap();
/// assert!(r < -0.8);
/// ```
pub fn autocorrelation(data: &[f64], lag: usize) -> Result<f64> {
    check_finite(data)?;
    let n = data.len();
    if lag >= n {
        return Err(invalid(
            "lag",
            format!("lag {lag} must be smaller than the series length {n}"),
        ));
    }
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let num: f64 = (0..n - lag)
        .map(|i| (data[i] - mean) * (data[i + lag] - mean))
        .sum();
    Ok(num / denom)
}

/// Autocorrelation function up to `max_lag` (inclusive), starting at lag 1.
///
/// # Errors
///
/// Same as [`autocorrelation`].
fn acf(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    (1..=max_lag).map(|l| autocorrelation(data, l)).collect()
}

/// The approximate 95% white-noise band for an ACF of a series of length
/// `n`: correlations within `±1.96/sqrt(n)` are consistent with
/// independence.
fn acf_confidence_band(n: usize) -> f64 {
    1.96 / (n as f64).sqrt()
}

/// Verdict of an ACF-based independence check.
#[derive(Debug, Clone, PartialEq)]
pub struct AcfCheck {
    /// Autocorrelations at lags `1..=max_lag`.
    pub correlations: Vec<f64>,
    /// The white-noise band used.
    pub band: f64,
    /// Lags whose correlation escapes the band.
    pub flagged_lags: Vec<usize>,
}

impl AcfCheck {
    /// Whether the series looks independent (no flagged lags).
    pub fn looks_independent(&self) -> bool {
        self.flagged_lags.is_empty()
    }
}

/// Runs the ACF check at lags `1..=max_lag` against the 95% band.
///
/// # Errors
///
/// Same as [`autocorrelation`].
pub fn acf_check(data: &[f64], max_lag: usize) -> Result<AcfCheck> {
    let correlations = acf(data, max_lag)?;
    let band = acf_confidence_band(data.len());
    let flagged_lags = correlations
        .iter()
        .enumerate()
        .filter(|(_, &r)| r.abs() > band)
        .map(|(i, _)| i + 1)
        .collect();
    Ok(AcfCheck {
        correlations,
        band,
        flagged_lags,
    })
}

/// Assigns mid-ranks (average rank for ties) to `data`.
fn ranks(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("finite"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation between two series, with an asymptotic
/// (t-approximation) p-value for the null of no monotone association.
///
/// Returns `(rho, p_value)`.
///
/// # Errors
///
/// Returns an error on invalid input, mismatched lengths, or fewer than 10
/// pairs.
pub fn spearman(a: &[f64], b: &[f64]) -> Result<(f64, f64)> {
    check_finite(a)?;
    check_finite(b)?;
    if a.len() != b.len() {
        return Err(invalid(
            "b",
            format!("length mismatch: {} vs {}", a.len(), b.len()),
        ));
    }
    let n = a.len();
    if n < 10 {
        return Err(StatsError::TooFewSamples { needed: 10, got: n });
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let mean = (n as f64 + 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let rho: f64 = num / (da * db).sqrt();
    let rho_c = rho.clamp(-0.999_999_999, 0.999_999_999);
    let t = rho_c * ((n as f64 - 2.0) / (1.0 - rho_c * rho_c)).sqrt();
    let p = 2.0 * (1.0 - crate::special::student_t_cdf(t.abs(), n as f64 - 2.0)?);
    Ok((rho, p.clamp(0.0, 1.0)))
}

/// Spearman correlation of a series against its own index — a monotone
/// trend detector for measurement campaigns.
///
/// # Errors
///
/// Same as [`spearman`].
pub fn trend_test(data: &[f64]) -> Result<(f64, f64)> {
    let time: Vec<f64> = (0..data.len()).map(|i| i as f64).collect();
    spearman(&time, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64) / ((1u64 << 53) as f64)
            })
            .collect()
    }

    #[test]
    fn iid_series_has_small_acf() {
        let data = lcg_series(1, 500);
        let check = acf_check(&data, 10).unwrap();
        // Allow a stray lag or two to brush the 95% band.
        assert!(check.flagged_lags.len() <= 1, "{:?}", check.flagged_lags);
    }

    #[test]
    fn trending_series_has_large_acf() {
        let data: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        let r1 = autocorrelation(&data, 1).unwrap();
        assert!(r1 > 0.9, "r1={r1}");
        let check = acf_check(&data, 5).unwrap();
        assert!(!check.looks_independent());
    }

    #[test]
    fn acf_lag_zero_would_be_one() {
        let data = lcg_series(2, 100);
        let r0 = autocorrelation(&data, 0).unwrap();
        assert!((r0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_validates_input() {
        assert!(autocorrelation(&[1.0, 2.0], 2).is_err());
        assert!(autocorrelation(&[5.0; 10], 1).is_err());
        assert!(autocorrelation(&[], 0).is_err());
    }

    #[test]
    fn spearman_perfect_monotone() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x.exp().min(1e300)).collect();
        let (rho, p) = spearman(&a, &b).unwrap();
        assert!((rho - 1.0).abs() < 1e-9);
        assert!(p < 1e-6);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        let (rho, _) = spearman(&a, &c).unwrap();
        assert!((rho + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_independent_series() {
        let a = lcg_series(4, 200);
        let b = lcg_series(5, 200);
        let (rho, p) = spearman(&a, &b).unwrap();
        assert!(rho.abs() < 0.2, "rho={rho}");
        assert!(p > 0.01, "p={p}");
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let (rho, _) = spearman(&a, &b).unwrap();
        assert!(rho > 0.9);
    }

    #[test]
    fn trend_test_flags_drift() {
        let drifting: Vec<f64> = (0..100).map(|i| 100.0 + 0.5 * i as f64).collect();
        let (rho, p) = trend_test(&drifting).unwrap();
        assert!(rho > 0.99);
        assert!(p < 1e-6);
        let flat = lcg_series(6, 100);
        let (_, p) = trend_test(&flat).unwrap();
        assert!(p > 0.01);
    }

    #[test]
    fn ranks_midrank_convention() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }
}
