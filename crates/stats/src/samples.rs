//! Validated sample sets.

use crate::descriptive::Summary;
use crate::error::{check_finite, Result, StatsError};
use crate::quantile::{quantile_sorted, QuantileMethod};

/// A validated, non-empty set of finite `f64` measurements.
///
/// Construction checks that every value is finite, so downstream statistics
/// never have to re-validate or handle NaN ordering. A sorted copy is kept
/// alongside the original (insertion-ordered) data: order statistics need the
/// former, time-series diagnostics (autocorrelation, changepoints) the
/// latter.
///
/// # Examples
///
/// ```
/// use varstats::Samples;
///
/// let s = Samples::new(vec![3.0, 1.0, 2.0]).unwrap();
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.sorted(), &[1.0, 2.0, 3.0]);
/// assert_eq!(s.median().unwrap(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    data: Vec<f64>,
    sorted: Vec<f64>,
}

impl Samples {
    /// Creates a sample set, validating that `data` is non-empty and finite.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] or [`StatsError::NonFiniteValue`].
    pub fn new(data: Vec<f64>) -> Result<Self> {
        check_finite(&data)?;
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
        Ok(Self { data, sorted })
    }

    /// Creates a sample set from a slice.
    ///
    /// # Errors
    ///
    /// Same as [`Samples::new`].
    pub(crate) fn from_slice(data: &[f64]) -> Result<Self> {
        Self::new(data.to_vec())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: construction rejects empty input.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The samples in insertion (collection) order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The samples in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest sample.
    pub(crate) fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub(crate) fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Sample median (Hyndman–Fan type 7).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed `Samples`; kept fallible for interface
    /// symmetry with [`Samples::quantile`].
    pub fn median(&self) -> Result<f64> {
        quantile_sorted(&self.sorted, 0.5, QuantileMethod::Linear)
    }

    /// Sample quantile `q` using `method`.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64, method: QuantileMethod) -> Result<f64> {
        quantile_sorted(&self.sorted, q, method)
    }

    /// Full descriptive summary (mean, spread, shape, order statistics).
    pub fn summary(&self) -> Summary {
        Summary::from_samples(self)
    }

    /// Appends a measurement, keeping the sorted view consistent.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFiniteValue`] if `value` is NaN or infinite.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(StatsError::NonFiniteValue {
                index: self.data.len(),
            });
        }
        self.data.push(value);
        let pos = self.sorted.partition_point(|&x| x < value);
        self.sorted.insert(pos, value);
        Ok(())
    }
}

impl TryFrom<Vec<f64>> for Samples {
    type Error = StatsError;

    fn try_from(v: Vec<f64>) -> Result<Self> {
        Samples::new(v)
    }
}

impl AsRef<[f64]> for Samples {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_preserves_order() {
        let s = Samples::new(vec![5.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!(s.data(), &[5.0, 1.0, 4.0, 2.0]);
        assert_eq!(s.sorted(), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert_eq!(Samples::new(vec![]).unwrap_err(), StatsError::EmptyInput);
        assert_eq!(
            Samples::new(vec![1.0, f64::NAN]).unwrap_err(),
            StatsError::NonFiniteValue { index: 1 }
        );
        assert!(Samples::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn push_maintains_sorted_invariant() {
        let mut s = Samples::new(vec![2.0, 4.0]).unwrap();
        s.push(3.0).unwrap();
        s.push(1.0).unwrap();
        s.push(5.0).unwrap();
        assert_eq!(s.sorted(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.data(), &[2.0, 4.0, 3.0, 1.0, 5.0]);
        assert!(s.push(f64::NAN).is_err());
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn median_of_odd_and_even() {
        let odd = Samples::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(odd.median().unwrap(), 2.0);
        let even = Samples::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(even.median().unwrap(), 2.5);
    }

    #[test]
    fn try_from_and_as_ref() {
        let s: Samples = vec![1.0, 2.0].try_into().unwrap();
        let r: &[f64] = s.as_ref();
        assert_eq!(r, &[1.0, 2.0]);
    }
}
