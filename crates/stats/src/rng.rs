//! The workspace's one pseudo-random generator: xoshiro256++ (Blackman &
//! Vigna) seeded through SplitMix64.
//!
//! Every simulated measurement, resample and shuffle in the reproduction
//! draws from [`Rng`], so every figure is a pure function of its seed and
//! of this file. Uniform `f64`s take the top 53 bits of a draw; a range
//! of `n` values takes the high 64 bits of the 128-bit product of a draw
//! and `n` (Lemire's multiply-high mapping, without the rejection step).
//!
//! ```
//! use varstats::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let u = rng.f64();
//! assert!((0.0..1.0).contains(&u));
//! assert!(rng.range(3..10) < 10);
//! ```

use std::ops::{Range, RangeInclusive};

/// A seeded xoshiro256++ stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands `seed` into the 256-bit state with SplitMix64, so nearby
    /// seeds give unrelated streams.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for slot in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        Rng { s }
    }

    /// The next 64 bits of the stream.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `lo..hi`. Panics if the range is empty.
    #[inline]
    pub fn range(&mut self, range: Range<usize>) -> usize {
        assert!(!range.is_empty(), "cannot sample an empty range");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// A uniform draw from `lo..=hi`. Panics if the range is empty.
    #[inline]
    pub(crate) fn range_inclusive(&mut self, range: RangeInclusive<usize>) -> usize {
        assert!(!range.is_empty(), "cannot sample an empty range");
        let (lo, hi) = range.into_inner();
        lo + self.below((hi - lo) as u64 + 1) as usize
    }

    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers from an independent transcription of the algorithm.
    #[test]
    fn first_draws_match_the_known_answers() {
        let mut rng = Rng::seed_from_u64(0x5EED);
        let words: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [0x8eb2871b24ae0c00, 0xfdd2c14d7560f757, 0x17460bdf1e7c3333]
        );
        let mut rng = Rng::seed_from_u64(0x5EED);
        let bits: Vec<u64> = (0..3).map(|_| rng.f64().to_bits()).collect();
        assert_eq!(
            bits,
            [0x3fe1d650e36495c1, 0x3fefba5829aeac1e, 0x3fb7460bdf1e7c30]
        );
    }

    #[test]
    fn range_draws_stay_inside_their_range() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert_eq!(rng.range(0..1), 0);
            assert!((5..=9).contains(&rng.range_inclusive(5..=9)));
            assert_eq!(rng.range_inclusive(4..=4), 4);
            let u = rng.f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.range_inclusive(5..=9) - 5] = true;
        }
        assert_eq!(seen, [true; 5], "every value of a small range is drawn");
    }

    #[test]
    #[should_panic(expected = "cannot sample an empty range")]
    fn an_empty_range_panics() {
        Rng::seed_from_u64(1).range(3..3);
    }

    #[test]
    #[should_panic(expected = "cannot sample an empty range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn an_empty_inclusive_range_panics() {
        Rng::seed_from_u64(1).range_inclusive(4..=3);
    }
}
