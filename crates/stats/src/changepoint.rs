//! Changepoint detection for measurement time series.
//!
//! The paper observes that long-running testbeds drift: OS upgrades,
//! firmware changes and hardware degradation shift performance levels over
//! months. Treating such a series as one i.i.d. sample poisons every
//! downstream statistic, so campaigns must be segmented first. Provided:
//! a CUSUM single-change detector with permutation significance and the
//! exact PELT dynamic program (Killick et al.) with an SSE (mean-shift)
//! cost.

use crate::error::{check_finite, invalid, Result, StatsError};
use crate::rng::Rng;

/// Prefix sums used by the SSE segment cost.
struct Prefix {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl Prefix {
    fn new(data: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(data.len() + 1);
        let mut sum_sq = Vec::with_capacity(data.len() + 1);
        sum.push(0.0);
        sum_sq.push(0.0);
        for &x in data {
            sum.push(sum.last().unwrap() + x);
            sum_sq.push(sum_sq.last().unwrap() + x * x);
        }
        Self { sum, sum_sq }
    }

    /// SSE of the segment `[s, e)` around its own mean.
    fn cost(&self, s: usize, e: usize) -> f64 {
        debug_assert!(s < e);
        let n = (e - s) as f64;
        let total = self.sum[e] - self.sum[s];
        let total_sq = self.sum_sq[e] - self.sum_sq[s];
        (total_sq - total * total / n).max(0.0)
    }
}

/// Robust noise-scale estimate from lag-1 differences
/// (`MAD(diff) / sqrt(2)`, scaled for normal consistency).
///
/// Level shifts barely move this estimator, which is exactly why it is the
/// right normalizer for changepoint penalties. Quantized or strongly
/// patterned measurements (e.g. microsecond-resolution timers) can tie so
/// heavily that the MAD collapses to zero even though the series varies;
/// the estimator then falls back to the IQR of the differences, and
/// finally to their standard deviation.
///
/// # Errors
///
/// Returns an error with fewer than 3 samples or invalid input.
fn robust_noise_sigma(data: &[f64]) -> Result<f64> {
    check_finite(data)?;
    if data.len() < 3 {
        return Err(StatsError::TooFewSamples {
            needed: 3,
            got: data.len(),
        });
    }
    let diffs: Vec<f64> = data.windows(2).map(|w| w[1] - w[0]).collect();
    let mad = crate::descriptive::mad(&diffs)?;
    if mad > 0.0 {
        return Ok(mad / std::f64::consts::SQRT_2);
    }
    // Fallback 1: IQR of the differences (normal-consistent scale 1.349).
    let q1 = crate::quantile::quantile(&diffs, 0.25, crate::quantile::QuantileMethod::Linear)?;
    let q3 = crate::quantile::quantile(&diffs, 0.75, crate::quantile::QuantileMethod::Linear)?;
    let iqr = q3 - q1;
    if iqr > 0.0 {
        return Ok(iqr / 1.349 / std::f64::consts::SQRT_2);
    }
    // Fallback 2: standard deviation (level shifts will inflate it, but a
    // too-large penalty only makes detection conservative).
    Ok(crate::descriptive::std_dev(&diffs)? / std::f64::consts::SQRT_2)
}

/// Exact multiple-changepoint detection via PELT with an SSE cost.
///
/// Returns the sorted changepoint positions: index `i` means a new segment
/// starts at `data[i]`. `penalty` is the cost a new changepoint must
/// amortize; `None` selects `3 * sigma^2 * ln n` with the robust noise
/// estimate — slightly stricter than BIC, which resists heavy-tailed noise.
///
/// # Errors
///
/// Returns an error on invalid input, fewer than 6 samples, or a
/// non-positive explicit penalty.
///
/// # Examples
///
/// ```
/// use varstats::changepoint::pelt_mean;
///
/// let mut series = vec![10.0; 50];
/// series.extend(vec![14.0; 50]);
/// let cps = pelt_mean(&series, None).unwrap();
/// assert_eq!(cps, vec![50]);
/// ```
pub fn pelt_mean(data: &[f64], penalty: Option<f64>) -> Result<Vec<usize>> {
    check_finite(data)?;
    let n = data.len();
    if n < 6 {
        return Err(StatsError::TooFewSamples { needed: 6, got: n });
    }
    let beta = match penalty {
        Some(b) if b > 0.0 => b,
        Some(b) => {
            return Err(invalid("penalty", format!("must be > 0, got {b}")));
        }
        None => {
            let sigma = robust_noise_sigma(data)?;
            let sigma2 = (sigma * sigma).max(1e-12);
            3.0 * sigma2 * (n as f64).ln()
        }
    };
    let prefix = Prefix::new(data);
    // f[t] = optimal cost of data[0..t] (t points), with last-changepoint
    // backpointers in prev[t].
    let mut f = vec![f64::INFINITY; n + 1];
    let mut prev = vec![0usize; n + 1];
    f[0] = -beta;
    let mut candidates: Vec<usize> = vec![0];
    for t in 1..=n {
        let mut best = f64::INFINITY;
        let mut best_s = 0;
        for &s in &candidates {
            let c = f[s] + prefix.cost(s, t) + beta;
            if c < best {
                best = c;
                best_s = s;
            }
        }
        f[t] = best;
        prev[t] = best_s;
        // PELT pruning: drop candidates that can never win again.
        candidates.retain(|&s| f[s] + prefix.cost(s, t) <= f[t]);
        candidates.push(t);
    }
    // Backtrack.
    let mut cps = Vec::new();
    let mut t = n;
    while t > 0 {
        let s = prev[t];
        if s > 0 {
            cps.push(s);
        }
        t = s;
    }
    cps.reverse();
    // Post-pass: an isolated outlier can be "explained" by two adjacent
    // changepoints bracketing a one-point segment. Merge segments shorter
    // than MIN_SEGMENT — removing the *weaker* of the segment's two
    // boundary changepoints, so a genuine shift next to a glitch survives
    // — then drop any changepoint whose SSE gain no longer amortizes the
    // penalty.
    const MIN_SEGMENT: usize = 3;
    let gain_of = |boundaries: &[usize], i: usize| -> f64 {
        let (left, mid, right) = (boundaries[i - 1], boundaries[i], boundaries[i + 1]);
        prefix.cost(left, right) - prefix.cost(left, mid) - prefix.cost(mid, right)
    };
    loop {
        let mut boundaries = Vec::with_capacity(cps.len() + 2);
        boundaries.push(0);
        boundaries.extend(cps.iter().copied());
        boundaries.push(n);
        let mut to_remove = None;
        // 1) Merge the first short segment by dropping its weaker boundary.
        'segments: for i in 0..boundaries.len() - 1 {
            if boundaries[i + 1] - boundaries[i] < MIN_SEGMENT {
                let left_cp = (i > 0).then_some(i);
                let right_cp = (i + 1 < boundaries.len() - 1).then_some(i + 1);
                let weaker = match (left_cp, right_cp) {
                    (Some(l), Some(r)) => {
                        if gain_of(&boundaries, l) <= gain_of(&boundaries, r) {
                            l
                        } else {
                            r
                        }
                    }
                    (Some(l), None) => l,
                    (None, Some(r)) => r,
                    (None, None) => break 'segments,
                };
                to_remove = Some(boundaries[weaker]);
                break 'segments;
            }
        }
        // 2) Otherwise drop the weakest changepoint below the penalty.
        if to_remove.is_none() {
            for i in 1..boundaries.len() - 1 {
                if gain_of(&boundaries, i) < beta {
                    to_remove = Some(boundaries[i]);
                    break;
                }
            }
        }
        match to_remove {
            Some(cp) => cps.retain(|&c| c != cp),
            None => break,
        }
    }
    Ok(cps)
}

/// Result of the CUSUM single-change detector.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumResult {
    /// Most likely change position (a new segment starts at this index).
    pub changepoint: usize,
    /// The CUSUM range statistic of the observed series.
    pub statistic: f64,
    /// Permutation p-value: fraction of shuffles with at least as large a
    /// range.
    pub p_value: f64,
    /// Mean before the changepoint.
    pub mean_before: f64,
    /// Mean after the changepoint.
    pub mean_after: f64,
}

/// CUSUM single-changepoint detector with permutation significance.
///
/// Computes the cumulative sum of deviations from the mean; the position of
/// the extreme excursion is the changepoint candidate, and the range of the
/// CUSUM path is compared against `resamples` random shuffles of the data.
///
/// # Errors
///
/// Returns an error on invalid input, fewer than 10 samples, or fewer than
/// 50 resamples.
pub fn cusum_detect(data: &[f64], resamples: usize, seed: u64) -> Result<CusumResult> {
    check_finite(data)?;
    let n = data.len();
    if n < 10 {
        return Err(StatsError::TooFewSamples { needed: 10, got: n });
    }
    if resamples < 50 {
        return Err(invalid(
            "resamples",
            format!("need at least 50 permutations, got {resamples}"),
        ));
    }
    let (range, argmax) = cusum_range(data);
    let mut rng = Rng::seed_from_u64(seed);
    let mut shuffled = data.to_vec();
    let mut exceed = 0usize;
    for _ in 0..resamples {
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.range_inclusive(0..=i);
            shuffled.swap(i, j);
        }
        let (r, _) = cusum_range(&shuffled);
        if r >= range {
            exceed += 1;
        }
    }
    let p_value = (exceed as f64 + 1.0) / (resamples as f64 + 1.0);
    let cp = argmax;
    let mean_before = data[..cp].iter().sum::<f64>() / cp as f64;
    let mean_after = data[cp..].iter().sum::<f64>() / (n - cp) as f64;
    Ok(CusumResult {
        changepoint: cp,
        statistic: range,
        p_value,
        mean_before,
        mean_after,
    })
}

/// Returns the CUSUM range and the 1-based index of the extreme excursion
/// (which is where the new segment starts).
fn cusum_range(data: &[f64]) -> (f64, usize) {
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let mut s = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut arg = 1usize;
    let mut extreme = 0.0f64;
    for (i, &x) in data.iter().enumerate() {
        s += x - mean;
        if s < min {
            min = s;
        }
        if s > max {
            max = s;
        }
        if s.abs() > extreme {
            extreme = s.abs();
            arg = i + 1;
        }
    }
    (max - min, arg.min(n - 1).max(1))
}

/// Splits `data` into segments at the given changepoints.
///
/// # Errors
///
/// Returns an error if any changepoint is out of range or unsorted.
pub fn split_segments<'a>(data: &'a [f64], changepoints: &[usize]) -> Result<Vec<&'a [f64]>> {
    let mut out = Vec::with_capacity(changepoints.len() + 1);
    let mut start = 0usize;
    for &cp in changepoints {
        if cp <= start || cp >= data.len() {
            return Err(invalid(
                "changepoints",
                format!("changepoint {cp} out of order or out of range"),
            ));
        }
        out.push(&data[start..cp]);
        start = cp;
    }
    out.push(&data[start..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix;

    fn noisy_steps(levels: &[(f64, usize)], seed: u64, noise: f64) -> Vec<f64> {
        let mut uniform = splitmix(seed);
        let mut out = Vec::new();
        for &(level, len) in levels {
            for _ in 0..len {
                out.push(level + noise * (uniform() - 0.5));
            }
        }
        out
    }

    #[test]
    fn pelt_finds_single_clean_shift() {
        let data = noisy_steps(&[(10.0, 60), (13.0, 60)], 1, 0.5);
        let cps = pelt_mean(&data, None).unwrap();
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert!((cps[0] as i64 - 60).unsigned_abs() <= 2, "{cps:?}");
    }

    #[test]
    fn pelt_finds_multiple_shifts() {
        let data = noisy_steps(&[(10.0, 50), (20.0, 50), (5.0, 50)], 2, 0.8);
        let cps = pelt_mean(&data, None).unwrap();
        assert_eq!(cps.len(), 2, "{cps:?}");
        assert!((cps[0] as i64 - 50).unsigned_abs() <= 2);
        assert!((cps[1] as i64 - 100).unsigned_abs() <= 2);
    }

    #[test]
    fn pelt_reports_nothing_on_stationary_noise() {
        let data = noisy_steps(&[(10.0, 200)], 3, 1.0);
        let cps = pelt_mean(&data, None).unwrap();
        assert!(cps.is_empty(), "{cps:?}");
    }

    #[test]
    fn pelt_penalty_controls_sensitivity() {
        let data = noisy_steps(&[(10.0, 50), (10.6, 50)], 4, 0.5);
        let loose = pelt_mean(&data, Some(0.5)).unwrap();
        let strict = pelt_mean(&data, Some(1e6)).unwrap();
        assert!(loose.len() >= strict.len());
        assert!(strict.is_empty());
    }

    #[test]
    fn cusum_detects_shift_and_reports_means() {
        let data = noisy_steps(&[(100.0, 80), (110.0, 80)], 6, 2.0);
        let r = cusum_detect(&data, 200, 9).unwrap();
        assert!(r.p_value < 0.05, "p={}", r.p_value);
        assert!(
            (r.changepoint as i64 - 80).unsigned_abs() <= 4,
            "{}",
            r.changepoint
        );
        assert!((r.mean_before - 100.0).abs() < 1.0);
        assert!((r.mean_after - 110.0).abs() < 1.0);
    }

    #[test]
    fn cusum_not_significant_on_noise() {
        let data = noisy_steps(&[(100.0, 150)], 7, 2.0);
        let r = cusum_detect(&data, 200, 10).unwrap();
        assert!(r.p_value >= 0.01, "p={}", r.p_value);
    }

    #[test]
    fn robust_sigma_survives_quantized_data() {
        // A modular sawtooth ties the diffs so heavily that the MAD is 0;
        // the IQR fallback must keep the scale positive, and PELT must
        // still find a genuine level shift on top of the pattern.
        let mut series: Vec<f64> = (0..80)
            .map(|i| 100.0 + (i * 37 % 11) as f64 * 0.05)
            .collect();
        series.extend((0..120).map(|i| 110.0 + (i * 37 % 11) as f64 * 0.05));
        let sigma = robust_noise_sigma(&series).unwrap();
        assert!(sigma > 0.0, "fallback failed: {sigma}");
        let cps = pelt_mean(&series, None).unwrap();
        assert_eq!(cps, vec![80], "{cps:?}");
    }

    #[test]
    fn robust_sigma_constant_series_is_zero() {
        let series = vec![5.0; 50];
        assert_eq!(robust_noise_sigma(&series).unwrap(), 0.0);
    }

    #[test]
    fn robust_sigma_ignores_level_shifts() {
        let clean = noisy_steps(&[(10.0, 100)], 8, 1.0);
        let shifted = noisy_steps(&[(10.0, 50), (50.0, 50)], 8, 1.0);
        let s1 = robust_noise_sigma(&clean).unwrap();
        let s2 = robust_noise_sigma(&shifted).unwrap();
        // The huge level shift contributes a single large diff, which MAD
        // ignores.
        assert!((s2 / s1) < 2.0, "s1={s1} s2={s2}");
    }

    #[test]
    fn split_segments_partitions_data() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let segs = split_segments(&data, &[3, 7]).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], &[0.0, 1.0, 2.0]);
        assert_eq!(segs[1], &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(segs[2], &[7.0, 8.0, 9.0]);
        assert!(split_segments(&data, &[0]).is_err());
        assert!(split_segments(&data, &[10]).is_err());
        assert!(split_segments(&data, &[5, 3]).is_err());
    }

    #[test]
    fn validation() {
        assert!(pelt_mean(&[1.0, 2.0], None).is_err());
        assert!(pelt_mean(&noisy_steps(&[(1.0, 20)], 1, 0.1), Some(-1.0)).is_err());
        assert!(cusum_detect(&[1.0; 5], 100, 0).is_err());
        assert!(cusum_detect(&noisy_steps(&[(1.0, 20)], 1, 0.1), 10, 0).is_err());
    }
}
