//! Group-comparison test on variances.
//!
//! **Brown–Forsythe** asks whether `k` groups share a *variance*: the
//! median-centered Levene test, robust to the non-normality this field
//! guarantees. It is what turns "machine variability differs" from an
//! impression into a test.

use crate::descriptive::Moments;
use crate::error::{check_finite, invalid, Result, StatsError};
use crate::normality::TestResult;
use crate::quantile::median;
use crate::special::f_cdf;

fn validate_groups(groups: &[&[f64]], min_per_group: usize) -> Result<()> {
    if groups.len() < 2 {
        return Err(invalid("groups", "need at least 2 groups"));
    }
    groups
        .iter()
        .try_for_each(|g| validate_group(g, min_per_group))
}

fn validate_group(group: &[f64], min_per_group: usize) -> Result<()> {
    check_finite(group)?;
    if group.len() < min_per_group {
        return Err(StatsError::TooFewSamples {
            needed: min_per_group,
            got: group.len(),
        });
    }
    Ok(())
}

/// The one-way ANOVA F computation under Brown–Forsythe, folded one
/// group at a time so the groups never need to be resident together: a
/// folded group leaves only its size and mean behind. The running total
/// and within-group sum of squares accumulate in group order, so the
/// result is bit-identical to a computation over all groups at once.
#[derive(Debug, Clone, Default)]
struct AnovaFold {
    total: f64,
    within: f64,
    groups: Vec<(usize, f64)>,
}

impl AnovaFold {
    fn push(&mut self, g: &[f64]) {
        self.total = g.iter().fold(self.total, |acc, &x| acc + x);
        let m: Moments = g.iter().copied().collect();
        self.within += g
            .iter()
            .map(|x| (x - m.mean()) * (x - m.mean()))
            .sum::<f64>();
        self.groups.push((g.len(), m.mean()));
    }

    fn finish(&self) -> Result<TestResult> {
        let k = self.groups.len() as f64;
        let n_total: usize = self.groups.iter().map(|&(len, _)| len).sum();
        let n = n_total as f64;
        let grand_mean = self.total / n;
        let mut between = 0.0;
        for &(len, mean) in &self.groups {
            let d = mean - grand_mean;
            between += len as f64 * d * d;
        }
        let df1 = k - 1.0;
        let df2 = n - k;
        if self.within <= 0.0 || df2 <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let f = (between / df1) / (self.within / df2);
        let p = 1.0 - f_cdf(f, df1, df2)?;
        Ok(TestResult {
            statistic: f,
            p_value: p.clamp(0.0, 1.0),
        })
    }
}

/// [`brown_forsythe`] folded one group at a time, for callers that see
/// the groups one by one (e.g. one machine per journal shard) and should
/// not keep their raw values: each group leaves only its size and the
/// mean of its deviations. Folding the groups of a slice in order gives
/// exactly [`brown_forsythe`]'s result.
#[derive(Debug, Clone, Default)]
pub struct BrownForsytheFold {
    anova: AnovaFold,
}

impl BrownForsytheFold {
    /// Starts an empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one group.
    ///
    /// # Errors
    ///
    /// Rejects non-finite values and groups smaller than 3; the fold is
    /// unchanged on error.
    pub fn push(&mut self, group: &[f64]) -> Result<()> {
        validate_group(group, 3)?;
        self.push_deviations(group, median(group)?);
        Ok(())
    }

    /// Folds in one group whose median the caller already holds (from a
    /// sorted copy, say): bit-identical to [`BrownForsytheFold::push`]
    /// when `median` is [`median`]`(group)`. The deviations are taken in
    /// `group`'s own order, so the fold's sums do not depend on how the
    /// median was found.
    ///
    /// # Errors
    ///
    /// As [`BrownForsytheFold::push`], plus a non-finite `median`.
    pub fn push_with_median(&mut self, group: &[f64], median: f64) -> Result<()> {
        validate_group(group, 3)?;
        if !median.is_finite() {
            return Err(invalid("median", format!("must be finite, got {median}")));
        }
        self.push_deviations(group, median);
        Ok(())
    }

    /// Folds in the absolute deviations of a validated group from `med`.
    fn push_deviations(&mut self, group: &[f64], med: f64) {
        let deviations: Vec<f64> = group.iter().map(|x| (x - med).abs()).collect();
        self.anova.push(&deviations);
    }

    /// Groups folded so far.
    fn groups(&self) -> usize {
        self.anova.groups.len()
    }

    /// The test over every group folded so far.
    ///
    /// # Errors
    ///
    /// Fewer than 2 groups, or zero variance of the deviations.
    pub fn finish(&self) -> Result<TestResult> {
        if self.groups() < 2 {
            return Err(invalid("groups", "need at least 2 groups"));
        }
        self.anova.finish()
    }
}

/// Brown–Forsythe test of variance homogeneity: one-way ANOVA on the
/// absolute deviations from each group's **median**.
///
/// Small p-values mean the groups' spreads genuinely differ — e.g.
/// nominally identical machines with different run-to-run noise.
///
/// # Errors
///
/// Returns an error with fewer than 2 groups, any group smaller than 3,
/// invalid values, or zero variance of the deviations.
///
/// # Examples
///
/// ```
/// use varstats::anova::brown_forsythe;
///
/// let tight: Vec<f64> = (0..40).map(|i| 100.0 + (i % 5) as f64 * 0.1).collect();
/// let wide: Vec<f64> = (0..40).map(|i| 100.0 + (i % 5) as f64 * 5.0).collect();
/// let r = brown_forsythe(&[&tight, &wide]).unwrap();
/// assert!(r.p_value < 0.001);
/// ```
pub fn brown_forsythe(groups: &[&[f64]]) -> Result<TestResult> {
    validate_groups(groups, 3)?;
    let mut fold = BrownForsytheFold::new();
    for g in groups {
        fold.push(g)?;
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix;

    #[test]
    fn brown_forsythe_accepts_equal_spreads() {
        let mut u = splitmix(3);
        let g1: Vec<f64> = (0..50).map(|_| u()).collect();
        let g2: Vec<f64> = (0..50).map(|_| 100.0 + u()).collect(); // shifted, same spread
        let r = brown_forsythe(&[&g1, &g2]).unwrap();
        assert!(r.p_value > 0.05, "p={}", r.p_value);
    }

    #[test]
    fn brown_forsythe_rejects_unequal_spreads() {
        let mut u = splitmix(4);
        let tight: Vec<f64> = (0..50).map(|_| u() * 0.1).collect();
        let wide: Vec<f64> = (0..50).map(|_| u() * 10.0).collect();
        let r = brown_forsythe(&[&tight, &wide]).unwrap();
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn brown_forsythe_is_location_insensitive() {
        // The whole point of median centering: a shifted copy does not
        // trigger the variance test.
        let mut u = splitmix(5);
        let base: Vec<f64> = (0..60).map(|_| u()).collect();
        let shifted: Vec<f64> = base.iter().map(|x| x + 1000.0).collect();
        let r = brown_forsythe(&[&base, &shifted]).unwrap();
        assert!(r.p_value > 0.5, "p={}", r.p_value);
    }

    #[test]
    fn validation() {
        let g: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(brown_forsythe(&[&g]).is_err());
        assert!(brown_forsythe(&[&g, &[1.0, 2.0]]).is_err());
        let same = [5.0; 10];
        assert!(brown_forsythe(&[&same, &same]).is_err());
    }

    fn ragged_groups() -> Vec<Vec<f64>> {
        (0..4u32)
            .map(|i| {
                (0..20 + 3 * i)
                    .map(|j| {
                        100.0
                            + f64::from((j * 7 + i * 3) % 11) * (1.0 + f64::from(i) * 0.3)
                            + 0.1 * f64::from(j)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn folds_reproduce_the_all_at_once_computation_bit_for_bit() {
        // Bit patterns from the implementation that summed over all
        // groups at once; the streaming fold must not move a single ulp,
        // since experiment artifacts print these p-values.
        let groups = ragged_groups();
        let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
        let bf = brown_forsythe(&refs).unwrap();
        assert_eq!(bf.statistic.to_bits(), 0x4010_9cde_9a68_4f6d);
        assert_eq!(bf.p_value.to_bits(), 0x3f80_e36a_c6f5_afc0);

        let mut fold = BrownForsytheFold::new();
        for g in &groups {
            fold.push(g).unwrap();
        }
        assert_eq!(fold.groups(), 4);
        assert_eq!(fold.finish().unwrap(), bf);
    }

    #[test]
    fn brown_forsythe_fold_rejects_bad_groups_without_changing() {
        let groups = ragged_groups();
        let mut fold = BrownForsytheFold::new();
        fold.push(&groups[0]).unwrap();
        assert!(fold.finish().is_err(), "one group is not a test");
        assert!(fold.push(&[1.0, 2.0]).is_err(), "too small");
        assert!(fold.push(&[1.0, f64::NAN, 3.0]).is_err(), "non-finite");
        assert_eq!(fold.groups(), 1, "rejected groups leave no trace");
        fold.push(&groups[1]).unwrap();
        let refs: Vec<&[f64]> = groups[..2].iter().map(|g| g.as_slice()).collect();
        assert_eq!(fold.finish().unwrap(), brown_forsythe(&refs).unwrap());
    }
}
