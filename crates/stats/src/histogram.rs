//! Fixed-bin histograms with automatic bin-width selection.
//!
//! Used by the figure pipelines to render frequency charts (the paper's
//! skewed/multimodal distribution exhibits) and to eyeball modality.

use crate::error::{check_finite, invalid, Result};
use crate::quantile::{quantile, QuantileMethod};

/// How many bins a histogram should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinRule {
    /// Fixed number of bins.
    Fixed(usize),
    /// Sturges' rule: `ceil(log2 n) + 1`.
    Sturges,
    /// Freedman–Diaconis: width `2 * IQR / n^(1/3)` — robust to outliers.
    #[default]
    FreedmanDiaconis,
}

/// A histogram over `[min, max]` with equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Right edge of the last bin.
    pub max: f64,
    /// Width of each bin.
    pub bin_width: f64,
    /// Counts per bin.
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub n: usize,
}

impl Histogram {
    /// Builds a histogram from data using `rule` to pick the bin count.
    ///
    /// # Errors
    ///
    /// Returns an error on empty/non-finite input or a zero bin count.
    pub fn new(data: &[f64], rule: BinRule) -> Result<Self> {
        check_finite(data)?;
        let n = data.len();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let bins = match rule {
            BinRule::Fixed(b) => {
                if b == 0 {
                    return Err(invalid("bins", "must be at least 1"));
                }
                b
            }
            BinRule::Sturges => ((n as f64).log2().ceil() as usize + 1).max(1),
            BinRule::FreedmanDiaconis => {
                let q1 = quantile(data, 0.25, QuantileMethod::Linear)?;
                let q3 = quantile(data, 0.75, QuantileMethod::Linear)?;
                let iqr = q3 - q1;
                if iqr <= 0.0 || max == min {
                    ((n as f64).log2().ceil() as usize + 1).max(1)
                } else {
                    let width = 2.0 * iqr / (n as f64).cbrt();
                    (((max - min) / width).ceil() as usize).clamp(1, 10_000)
                }
            }
        };
        let span = if max > min { max - min } else { 1.0 };
        let bin_width = span / bins as f64;
        let mut counts = vec![0u64; bins];
        for &x in data {
            let idx = (((x - min) / bin_width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Ok(Self {
            min,
            max,
            bin_width,
            counts,
            n,
        })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Left edge of bin `i`.
    fn bin_left(&self, i: usize) -> f64 {
        self.min + i as f64 * self.bin_width
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.bin_left(i) + self.bin_width / 2.0
    }

    /// Counts the local maxima of the (lightly smoothed) bin counts —
    /// a cheap modality detector used by the multimodality experiments.
    ///
    /// A bin is a mode if its smoothed count exceeds both neighbors and is
    /// at least `min_fraction` of the total sample count.
    pub fn count_modes(&self, min_fraction: f64) -> usize {
        let b = self.counts.len();
        if b == 1 {
            return 1;
        }
        // Three-point moving average smoothing.
        let smooth: Vec<f64> = (0..b)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(b - 1);
                let mut s = 0.0;
                let mut k = 0.0;
                for j in lo..=hi {
                    s += self.counts[j] as f64;
                    k += 1.0;
                }
                s / k
            })
            .collect();
        let threshold = min_fraction * self.n as f64;
        let mut modes = 0;
        for i in 0..b {
            let left = if i == 0 { -1.0 } else { smooth[i - 1] };
            let right = if i == b - 1 { -1.0 } else { smooth[i + 1] };
            if smooth[i] > left && smooth[i] > right && smooth[i] >= threshold {
                modes += 1;
            }
        }
        modes.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_n() {
        let data: Vec<f64> = (0..250).map(|i| (i as f64 * 1.37).sin() * 10.0).collect();
        for rule in [
            BinRule::Fixed(7),
            BinRule::Sturges,
            BinRule::FreedmanDiaconis,
        ] {
            let h = Histogram::new(&data, rule).unwrap();
            assert_eq!(h.counts.iter().sum::<u64>() as usize, data.len());
            assert_eq!(h.n, data.len());
        }
    }

    #[test]
    fn fixed_bins_place_values_correctly() {
        let data = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
        let h = Histogram::new(&data, BinRule::Fixed(4)).unwrap();
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert!((h.bin_width - 0.875).abs() < 1e-12);
        assert_eq!(h.bin_left(0), 0.0);
        assert!((h.bin_center(0) - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let data = [0.0, 10.0];
        let h = Histogram::new(&data, BinRule::Fixed(5)).unwrap();
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn constant_data_is_handled() {
        let data = [3.0; 50];
        let h = Histogram::new(&data, BinRule::FreedmanDiaconis).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 50);
    }

    #[test]
    fn sturges_bin_count() {
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let h = Histogram::new(&data, BinRule::Sturges).unwrap();
        assert_eq!(h.bins(), 7); // ceil(log2 64) + 1.
    }

    #[test]
    fn unimodal_vs_bimodal_mode_count() {
        // Tight unimodal cluster.
        let unimodal: Vec<f64> = (0..200).map(|i| 10.0 + ((i % 20) as f64) * 0.01).collect();
        let h = Histogram::new(&unimodal, BinRule::Fixed(20)).unwrap();
        assert_eq!(h.count_modes(0.05), 1);

        // Two well-separated clusters.
        let mut bimodal = Vec::new();
        for i in 0..100 {
            bimodal.push(10.0 + (i % 10) as f64 * 0.05);
            bimodal.push(30.0 + (i % 10) as f64 * 0.05);
        }
        let h = Histogram::new(&bimodal, BinRule::Fixed(20)).unwrap();
        assert_eq!(h.count_modes(0.05), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Histogram::new(&[], BinRule::Sturges).is_err());
        assert!(Histogram::new(&[1.0, f64::NAN], BinRule::Sturges).is_err());
        assert!(Histogram::new(&[1.0], BinRule::Fixed(0)).is_err());
    }
}
