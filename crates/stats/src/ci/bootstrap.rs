//! Hand-rolled bootstrap confidence intervals.
//!
//! The bootstrap resamples the data with replacement, recomputes the
//! statistic on each resample, and derives an interval from the resulting
//! empirical distribution. It works for any statistic (mean, median, p99,
//! CoV, ...) without distributional assumptions, at the cost of `B`
//! recomputations. Three interval flavors are implemented:
//!
//! * **Percentile** — quantiles of the bootstrap distribution.
//! * **Basic** — reflected percentile (`2 theta - q_hi, 2 theta - q_lo`).
//! * **BCa** — bias-corrected and accelerated; adjusts the percentile
//!   levels using the bootstrap bias `z0` and the jackknife acceleration.
//!
//! [`Bootstrap::ci`] copies each resample and hands it to the statistic.
//! A quantile has a cheaper route, [`Bootstrap::quantile_ci`]: the data
//! is sorted once, each draw is mapped to its rank and counted, and the
//! resample's interpolated quantile is read off the cumulative counts, so
//! a resample costs O(n) and allocates nothing. The draws are the ones
//! [`Bootstrap::ci`] makes, and the `k`-th smallest value of a resample
//! is the sorted data's value at the resample's `k`-th smallest rank, so
//! both routes give the same interval bit for bit (the two orderings can
//! differ only between `-0.0` and `0.0`, which compare equal).

use crate::ci::{check_confidence, ConfidenceInterval};
use crate::error::{check_finite, invalid, Result, StatsError};
use crate::quantile::{quantile_sorted, OrderPosition, QuantileMethod};
use crate::rng::Rng;
use crate::special::{normal_cdf, normal_quantile};

/// Which bootstrap interval construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootstrapKind {
    /// Percentile interval.
    Percentile,
    /// Basic (reflected percentile) interval.
    Basic,
    /// Bias-corrected and accelerated interval.
    #[default]
    Bca,
}

/// A seeded bootstrap engine.
///
/// # Examples
///
/// ```
/// use varstats::ci::bootstrap::{Bootstrap, BootstrapKind};
/// use varstats::quantile::median;
///
/// let data: Vec<f64> = (1..=50).map(f64::from).collect();
/// let boot = Bootstrap::new(500, 7);
/// let ci = boot
///     .ci(&data, |xs| median(xs).unwrap(), 0.95, BootstrapKind::Percentile)
///     .unwrap();
/// assert!(ci.contains(25.5));
/// ```
#[derive(Debug, Clone)]
pub struct Bootstrap {
    resamples: usize,
    seed: u64,
}

impl Bootstrap {
    /// Creates an engine that draws `resamples` bootstrap replicates using a
    /// deterministic RNG seeded with `seed`.
    pub fn new(resamples: usize, seed: u64) -> Self {
        Self { resamples, seed }
    }

    /// Computes the bootstrap distribution of `statistic` (sorted).
    ///
    /// # Errors
    ///
    /// Returns an error on empty/non-finite input, too few resamples, or if
    /// the statistic produces a non-finite value.
    fn distribution<F>(&self, data: &[f64], statistic: F) -> Result<Vec<f64>>
    where
        F: Fn(&[f64]) -> f64,
    {
        check_finite(data)?;
        self.check_resamples()?;
        let n = data.len();
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut replicate = vec![0.0; n];
        let mut thetas = Vec::with_capacity(self.resamples);
        for b in 0..self.resamples {
            for slot in replicate.iter_mut() {
                *slot = data[rng.range(0..n)];
            }
            let theta = statistic(&replicate);
            if !theta.is_finite() {
                return Err(StatsError::NonFiniteValue { index: b });
            }
            thetas.push(theta);
        }
        thetas.sort_by(|a, b| a.partial_cmp(b).expect("checked finite"));
        Ok(thetas)
    }

    fn check_resamples(&self) -> Result<()> {
        if self.resamples < 50 {
            return Err(invalid(
                "resamples",
                format!(
                    "need at least 50 bootstrap resamples, got {}",
                    self.resamples
                ),
            ));
        }
        Ok(())
    }

    /// Bootstrap confidence interval for an arbitrary statistic.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid input, too few samples (fewer than 3),
    /// or an invalid confidence level.
    pub fn ci<F>(
        &self,
        data: &[f64],
        statistic: F,
        confidence: f64,
        kind: BootstrapKind,
    ) -> Result<ConfidenceInterval>
    where
        F: Fn(&[f64]) -> f64,
    {
        check_confidence(confidence)?;
        check_finite(data)?;
        if data.len() < 3 {
            return Err(StatsError::TooFewSamples {
                needed: 3,
                got: data.len(),
            });
        }
        let theta_hat = statistic(data);
        if !theta_hat.is_finite() {
            return Err(StatsError::NonFiniteValue { index: 0 });
        }
        let thetas = self.distribution(data, &statistic)?;
        interval(&thetas, theta_hat, confidence, kind, || {
            jackknife_acceleration(data, &statistic)
        })
    }

    /// Bootstrap confidence interval for the type-7
    /// ([`QuantileMethod::Linear`]) `q`-quantile, e.g. `0.5` for the
    /// median: [`Bootstrap::ci`] with that statistic, by counting ranks
    /// instead of sorting each resample (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`Bootstrap::ci`], and for a `q` outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use varstats::ci::bootstrap::{Bootstrap, BootstrapKind};
    ///
    /// let data: Vec<f64> = (1..=50).map(f64::from).collect();
    /// let ci = Bootstrap::new(500, 7)
    ///     .quantile_ci(&data, 0.5, 0.95, BootstrapKind::Percentile)
    ///     .unwrap();
    /// assert!(ci.contains(25.5));
    /// ```
    pub fn quantile_ci(
        &self,
        data: &[f64],
        q: f64,
        confidence: f64,
        kind: BootstrapKind,
    ) -> Result<ConfidenceInterval> {
        check_confidence(confidence)?;
        check_finite(data)?;
        let n = data.len();
        if n < 3 {
            return Err(StatsError::TooFewSamples { needed: 3, got: n });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| data[a].total_cmp(&data[b]));
        let sorted: Vec<f64> = order.iter().map(|&i| data[i]).collect();
        let theta_hat = quantile_sorted(&sorted, q, QuantileMethod::Linear)?;
        // Interpolating between values of opposite sign near the `f64`
        // range can overflow.
        if !theta_hat.is_finite() {
            return Err(StatsError::NonFiniteValue { index: 0 });
        }
        self.check_resamples()?;
        let mut rank_of = vec![0; n];
        for (rank, &i) in order.iter().enumerate() {
            rank_of[i] = rank;
        }

        let at = OrderPosition::linear(n, q);
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut counts = vec![0u32; n];
        let mut thetas = Vec::with_capacity(self.resamples);
        for b in 0..self.resamples {
            counts.fill(0);
            for _ in 0..n {
                counts[rank_of[rng.range(0..n)]] += 1;
            }
            let theta = counted_quantile(&counts, &sorted, at);
            if !theta.is_finite() {
                return Err(StatsError::NonFiniteValue { index: b });
            }
            thetas.push(theta);
        }
        thetas.sort_by(|a, b| a.partial_cmp(b).expect("checked finite"));
        interval(&thetas, theta_hat, confidence, kind, || {
            // Leaving out the value at rank `r` shifts every later rank
            // down by one; tied values leave the same sorted remainder.
            let at = OrderPosition::linear(n - 1, q);
            let loo: Vec<f64> = rank_of
                .iter()
                .map(|&r| {
                    let nth = |p: usize| sorted[if p < r { p } else { p + 1 }];
                    at.between(nth(at.k), || nth(at.k + 1))
                })
                .collect();
            Ok(acceleration(&loo))
        })
    }
}

/// The quantile at `at` of the resample holding `counts[r]` copies of
/// `sorted[r]`: one scan of the cumulative counts.
fn counted_quantile(counts: &[u32], sorted: &[f64], at: OrderPosition) -> f64 {
    let mut rank = 0;
    let mut seen = counts[0] as usize;
    while seen <= at.k {
        rank += 1;
        seen += counts[rank] as usize;
    }
    at.between(sorted[rank], || {
        if seen > at.k + 1 {
            sorted[rank]
        } else {
            let next = counts[rank + 1..]
                .iter()
                .position(|&c| c > 0)
                .expect("a weighted quantile has a next order statistic");
            sorted[rank + 1 + next]
        }
    })
}

/// The interval of `kind` from the sorted bootstrap distribution
/// `thetas` around `theta_hat`; BCa asks `acceleration` for the jackknife
/// acceleration unless the distribution is degenerate.
fn interval(
    thetas: &[f64],
    theta_hat: f64,
    confidence: f64,
    kind: BootstrapKind,
    acceleration: impl FnOnce() -> Result<f64>,
) -> Result<ConfidenceInterval> {
    let alpha = 1.0 - confidence;
    let (lower, upper) = match kind {
        BootstrapKind::Percentile => {
            let lo = quantile_sorted(thetas, alpha / 2.0, QuantileMethod::Linear)?;
            let hi = quantile_sorted(thetas, 1.0 - alpha / 2.0, QuantileMethod::Linear)?;
            (lo, hi)
        }
        BootstrapKind::Basic => {
            let lo = quantile_sorted(thetas, alpha / 2.0, QuantileMethod::Linear)?;
            let hi = quantile_sorted(thetas, 1.0 - alpha / 2.0, QuantileMethod::Linear)?;
            (2.0 * theta_hat - hi, 2.0 * theta_hat - lo)
        }
        BootstrapKind::Bca => {
            let b = thetas.len() as f64;
            // Degenerate bootstrap distribution: the statistic did not
            // vary, so the interval collapses to a point.
            if thetas[0] == thetas[thetas.len() - 1] {
                (theta_hat, theta_hat)
            } else {
                // Bias correction from the fraction of replicates below
                // the observed statistic (clamped away from 0 and 1).
                let below = thetas.iter().filter(|&&t| t < theta_hat).count() as f64;
                let frac = (below / b).clamp(0.5 / b, 1.0 - 0.5 / b);
                let z0 = normal_quantile(frac)?;
                let a = acceleration()?;
                let z_lo = normal_quantile(alpha / 2.0)?;
                let z_hi = normal_quantile(1.0 - alpha / 2.0)?;
                let adj = |z: f64| -> f64 {
                    let num = z0 + z;
                    normal_cdf(z0 + num / (1.0 - a * num))
                };
                let a1 = adj(z_lo).clamp(1.0 / b, 1.0 - 1.0 / b);
                let a2 = adj(z_hi).clamp(1.0 / b, 1.0 - 1.0 / b);
                let lo = quantile_sorted(thetas, a1.min(a2), QuantileMethod::Linear)?;
                let hi = quantile_sorted(thetas, a1.max(a2), QuantileMethod::Linear)?;
                (lo, hi)
            }
        }
    };
    Ok(ConfidenceInterval {
        estimate: theta_hat,
        lower: lower.min(upper),
        upper: lower.max(upper),
        confidence,
    })
}

/// Jackknife acceleration constant for the BCa interval.
fn jackknife_acceleration<F>(data: &[f64], statistic: &F) -> Result<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let n = data.len();
    let mut loo = Vec::with_capacity(n);
    let mut buf = Vec::with_capacity(n - 1);
    for i in 0..n {
        buf.clear();
        buf.extend_from_slice(&data[..i]);
        buf.extend_from_slice(&data[i + 1..]);
        let t = statistic(&buf);
        if !t.is_finite() {
            return Err(StatsError::NonFiniteValue { index: i });
        }
        loo.push(t);
    }
    Ok(acceleration(&loo))
}

/// The jackknife acceleration from the leave-one-out statistics, in data
/// order.
fn acceleration(loo: &[f64]) -> f64 {
    let mean = loo.iter().sum::<f64>() / loo.len() as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for &t in loo {
        let d = mean - t;
        num += d * d * d;
        den += d * d;
    }
    if den == 0.0 {
        0.0
    } else {
        num / (6.0 * den.powf(1.5))
    }
}

/// Convenience: bootstrap BCa interval for the median.
///
/// # Errors
///
/// Same as [`Bootstrap::ci`].
pub fn median_ci_bootstrap(
    data: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Result<ConfidenceInterval> {
    Bootstrap::new(resamples, seed).quantile_ci(data, 0.5, confidence, BootstrapKind::Bca)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;

    fn data_1_to_100() -> Vec<f64> {
        (1..=100).map(f64::from).collect()
    }

    #[test]
    fn bootstrap_is_deterministic_given_seed() {
        let data = data_1_to_100();
        let b = Bootstrap::new(200, 99);
        let c1 = b
            .ci(&data, |x| mean(x).unwrap(), 0.95, BootstrapKind::Percentile)
            .unwrap();
        let c2 = b
            .ci(&data, |x| mean(x).unwrap(), 0.95, BootstrapKind::Percentile)
            .unwrap();
        assert_eq!(c1, c2);
        let c3 = Bootstrap::new(200, 100)
            .ci(&data, |x| mean(x).unwrap(), 0.95, BootstrapKind::Percentile)
            .unwrap();
        assert_ne!(c1.lower, c3.lower);
    }

    #[test]
    fn all_kinds_cover_the_point_estimate_for_symmetric_data() {
        let data = data_1_to_100();
        for kind in [
            BootstrapKind::Percentile,
            BootstrapKind::Basic,
            BootstrapKind::Bca,
        ] {
            let ci = Bootstrap::new(400, 5)
                .ci(&data, |x| mean(x).unwrap(), 0.95, kind)
                .unwrap();
            assert!(
                ci.contains(ci.estimate),
                "{kind:?}: {} not in [{}, {}]",
                ci.estimate,
                ci.lower,
                ci.upper
            );
            assert!(ci.contains(50.5), "{kind:?} should cover the true mean");
        }
    }

    #[test]
    fn bootstrap_median_interval_is_reasonable() {
        let data = data_1_to_100();
        let ci = median_ci_bootstrap(&data, 0.95, 500, 3).unwrap();
        assert!(ci.contains(50.5));
        assert!(ci.width() > 1.0 && ci.width() < 60.0);
    }

    #[test]
    fn degenerate_constant_data_collapses() {
        let data = vec![4.2; 20];
        let ci = Bootstrap::new(100, 1)
            .ci(&data, |x| mean(x).unwrap(), 0.95, BootstrapKind::Bca)
            .unwrap();
        assert_eq!(ci.lower, ci.upper);
        assert!((ci.lower - 4.2).abs() < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        let b = Bootstrap::new(100, 0);
        assert!(b
            .ci(&[], |x| x.len() as f64, 0.95, BootstrapKind::Percentile)
            .is_err());
        assert!(b
            .ci(&[1.0, 2.0], |_| 0.0, 0.95, BootstrapKind::Percentile)
            .is_err());
        assert!(Bootstrap::new(10, 0)
            .distribution(&[1.0, 2.0, 3.0], |x| x[0])
            .is_err());
        assert!(b
            .ci(&[1.0, 2.0, 3.0], |_| f64::NAN, 0.95, BootstrapKind::Bca)
            .is_err());
    }

    #[test]
    fn coverage_for_the_mean_on_skewed_data() {
        // Empirical coverage of the BCa interval for the mean of a skewed
        // (exponential-ish) distribution should be near nominal, and at
        // least not catastrophically low.
        let mut state = 7u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut hits = 0;
        let trials = 120;
        for t in 0..trials {
            let data: Vec<f64> = (0..40)
                .map(|_| -uniform().max(1e-12).ln()) // Exp(1), true mean 1.
                .collect();
            let ci = Bootstrap::new(300, t as u64)
                .ci(&data, |x| mean(x).unwrap(), 0.95, BootstrapKind::Bca)
                .unwrap();
            if ci.contains(1.0) {
                hits += 1;
            }
        }
        let coverage = hits as f64 / trials as f64;
        assert!(coverage >= 0.85, "coverage {coverage} too low");
    }

    #[test]
    fn basic_and_percentile_are_reflections() {
        let data = data_1_to_100();
        let b = Bootstrap::new(300, 11);
        let stat = |x: &[f64]| mean(x).unwrap();
        let pct = b.ci(&data, stat, 0.95, BootstrapKind::Percentile).unwrap();
        let bas = b.ci(&data, stat, 0.95, BootstrapKind::Basic).unwrap();
        let theta = mean(&data).unwrap();
        assert!((bas.lower - (2.0 * theta - pct.upper)).abs() < 1e-9);
        assert!((bas.upper - (2.0 * theta - pct.lower)).abs() < 1e-9);
    }

    /// `Bootstrap::ci` with the type-7 quantile as its statistic, as it
    /// stood before quantiles counted ranks: every resample copied and
    /// sorted, every jackknife sample copied. Frozen here so
    /// `quantile_ci` is pinned to it bit for bit.
    fn reference_quantile_ci(
        boot: &Bootstrap,
        data: &[f64],
        q: f64,
        confidence: f64,
        kind: BootstrapKind,
    ) -> ConfidenceInterval {
        let stat = |xs: &[f64]| crate::quantile::quantile(xs, q, QuantileMethod::Linear).unwrap();
        let theta_hat = stat(data);
        let n = data.len();
        let mut rng = Rng::seed_from_u64(boot.seed);
        let mut replicate = vec![0.0; n];
        let mut thetas = Vec::with_capacity(boot.resamples);
        for _ in 0..boot.resamples {
            for slot in replicate.iter_mut() {
                *slot = data[rng.range(0..n)];
            }
            thetas.push(stat(&replicate));
        }
        thetas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |p: f64| quantile_sorted(&thetas, p, QuantileMethod::Linear).unwrap();
        let alpha = 1.0 - confidence;
        let (lower, upper) = match kind {
            BootstrapKind::Percentile => (at(alpha / 2.0), at(1.0 - alpha / 2.0)),
            BootstrapKind::Basic => (
                2.0 * theta_hat - at(1.0 - alpha / 2.0),
                2.0 * theta_hat - at(alpha / 2.0),
            ),
            BootstrapKind::Bca if thetas[0] == thetas[thetas.len() - 1] => (theta_hat, theta_hat),
            BootstrapKind::Bca => {
                let b = thetas.len() as f64;
                let below = thetas.iter().filter(|&&t| t < theta_hat).count() as f64;
                let z0 = normal_quantile((below / b).clamp(0.5 / b, 1.0 - 0.5 / b)).unwrap();
                let mut loo = Vec::with_capacity(n);
                let mut buf = Vec::with_capacity(n - 1);
                for i in 0..n {
                    buf.clear();
                    buf.extend_from_slice(&data[..i]);
                    buf.extend_from_slice(&data[i + 1..]);
                    loo.push(stat(&buf));
                }
                let mean = loo.iter().sum::<f64>() / n as f64;
                let (mut num, mut den) = (0.0, 0.0);
                for &t in &loo {
                    let d = mean - t;
                    num += d * d * d;
                    den += d * d;
                }
                let a = if den == 0.0 {
                    0.0
                } else {
                    num / (6.0 * den.powf(1.5))
                };
                let adj = |z: f64| {
                    let num = z0 + z;
                    normal_cdf(z0 + num / (1.0 - a * num)).clamp(1.0 / b, 1.0 - 1.0 / b)
                };
                let a1 = adj(normal_quantile(alpha / 2.0).unwrap());
                let a2 = adj(normal_quantile(1.0 - alpha / 2.0).unwrap());
                (at(a1.min(a2)), at(a1.max(a2)))
            }
        };
        ConfidenceInterval {
            estimate: theta_hat,
            lower: lower.min(upper),
            upper: lower.max(upper),
            confidence,
        }
    }

    #[test]
    fn quantile_ci_is_bit_identical_to_sorting_each_resample() {
        let sizes = (3..=30).chain((37..=200).step_by(9)).chain([200]);
        let mut compared = 0;
        for n in sizes {
            let mut rng = Rng::seed_from_u64(n as u64);
            let mut u = move || rng.f64();
            let continuous: Vec<f64> = (0..n).map(|_| 100.0 - 20.0 * (1.0 - u()).ln()).collect();
            // Three values, one of them rare: resamples tie heavily and
            // their quantiles often fall between two equal values.
            let tied: Vec<f64> = (0..n)
                .map(|_| match u() {
                    x if x < 0.5 => 100.0,
                    x if x < 0.95 => 104.0,
                    _ => 131.0,
                })
                .collect();
            let constant = vec![7.5; n];
            for data in [&continuous, &tied, &constant] {
                for q in [0.5, 0.95, 0.99] {
                    for kind in [
                        BootstrapKind::Percentile,
                        BootstrapKind::Basic,
                        BootstrapKind::Bca,
                    ] {
                        let boot = Bootstrap::new(60, 1000 + n as u64);
                        let got = boot.quantile_ci(data, q, 0.95, kind).unwrap();
                        let want = reference_quantile_ci(&boot, data, q, 0.95, kind);
                        let bits = |c: &ConfidenceInterval| {
                            (c.estimate.to_bits(), c.lower.to_bits(), c.upper.to_bits())
                        };
                        assert_eq!(bits(&got), bits(&want), "n={n} q={q} {kind:?} {data:?}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 400, "{compared}");
    }

    #[test]
    fn quantile_ci_is_the_generic_route_with_a_quantile_statistic() {
        let data = data_1_to_100();
        let b = Bootstrap::new(200, 13);
        for kind in [
            BootstrapKind::Percentile,
            BootstrapKind::Basic,
            BootstrapKind::Bca,
        ] {
            let generic = b
                .ci(
                    &data,
                    |x| crate::quantile::quantile(x, 0.9, QuantileMethod::Linear).unwrap(),
                    0.9,
                    kind,
                )
                .unwrap();
            assert_eq!(b.quantile_ci(&data, 0.9, 0.9, kind).unwrap(), generic);
        }
    }

    #[test]
    fn quantile_ci_validates_inputs() {
        let b = Bootstrap::new(100, 0);
        let kind = BootstrapKind::Percentile;
        assert!(b.quantile_ci(&[1.0, 2.0], 0.5, 0.95, kind).is_err());
        assert!(b
            .quantile_ci(&[1.0, f64::NAN, 3.0], 0.5, 0.95, kind)
            .is_err());
        assert!(b.quantile_ci(&[1.0, 2.0, 3.0], 1.5, 0.95, kind).is_err());
        assert!(b.quantile_ci(&[1.0, 2.0, 3.0], 0.5, 1.0, kind).is_err());
        assert!(Bootstrap::new(10, 0)
            .quantile_ci(&[1.0, 2.0, 3.0], 0.5, 0.95, kind)
            .is_err());
        let huge = [-f64::MAX, f64::MAX, f64::MAX, -f64::MAX];
        assert!(b.quantile_ci(&huge, 0.5, 0.95, kind).is_err());
    }

    #[test]
    fn works_for_tail_quantile_statistic() {
        let data: Vec<f64> = (1..=500).map(f64::from).collect();
        let ci = Bootstrap::new(300, 2)
            .ci(
                &data,
                |x| crate::quantile::quantile(x, 0.99, QuantileMethod::Linear).unwrap(),
                0.95,
                BootstrapKind::Percentile,
            )
            .unwrap();
        assert!(ci.lower >= 450.0 && ci.upper <= 500.0, "{ci:?}");
    }
}
