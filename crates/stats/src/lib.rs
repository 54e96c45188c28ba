//! # varstats — benchmarking statistics for performance-variability analysis
//!
//! This crate is the statistical substrate of the *Taming Performance
//! Variability* (OSDI 2018) reproduction. The paper's methodology rests on
//! a handful of tools that mainstream Rust lacks a canonical library for,
//! so everything here is implemented from first principles:
//!
//! * **Descriptive statistics** — one-pass Welford moments
//!   ([`descriptive::Moments`]), robust summaries ([`descriptive::Summary`]),
//!   MAD, CoV.
//! * **Quantiles** — Hyndman–Fan estimators ([`quantile`]).
//! * **Confidence intervals** — parametric t intervals
//!   ([`ci::parametric`]), **non-parametric order-statistic intervals** for
//!   the median and arbitrary quantiles ([`ci::nonparametric`], including
//!   the paper's `floor((n - z sqrt(n))/2)` median formula), and a
//!   hand-rolled **bootstrap** (percentile / basic / BCa,
//!   [`ci::bootstrap`]).
//! * **Normality tests** — Shapiro–Wilk (Royston AS R94), with a per-n
//!   normal-score table shared by the QQ plot ([`normality`], [`qq`]).
//! * **Independence diagnostics** — ACF and Spearman trend
//!   ([`independence`]).
//! * **Sample-size estimation** — Jain's parametric formula
//!   ([`samplesize`]); the non-parametric CONFIRM procedure lives in the
//!   companion `confirm` crate.
//! * **Changepoint detection** — CUSUM and PELT ([`changepoint`]) for
//!   batch series, plus an incremental robust CUSUM ([`online`]) that
//!   reports regime shifts as points arrive.
//! * **Two-sample comparison** — CI-overlap verdicts, Mann–Whitney U,
//!   Cliff's delta ([`comparison`]).
//! * **Random numbers** — the workspace's one seeded generator
//!   ([`rng::Rng`], xoshiro256++), behind every simulated draw and
//!   resample.
//!
//! ## Quick example
//!
//! ```
//! use varstats::{Samples, ci::nonparametric::median_ci_exact, normality::shapiro_wilk};
//!
//! // 50 repetitions of a benchmark.
//! let runs: Vec<f64> = (0..50).map(|i| 100.0 + ((i * 17) % 13) as f64).collect();
//! let samples = Samples::new(runs).unwrap();
//!
//! // Is it normal? (Usually not, for real benchmark data.)
//! let sw = shapiro_wilk(samples.data()).unwrap();
//!
//! // Either way, the non-parametric median CI is safe to report.
//! let ci = median_ci_exact(samples.data(), 0.95).unwrap();
//! assert!(ci.ci.contains(samples.median().unwrap()));
//! # let _ = sw;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod changepoint;
pub mod ci;
pub mod comparison;
pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod independence;
pub mod normality;
pub mod online;
pub mod qq;
pub mod quantile;
pub mod rng;
pub mod robust;
mod samples;
pub mod samplesize;
pub mod special;
pub mod stationarity;

pub use ci::ConfidenceInterval;
pub use descriptive::{Moments, Summary};
pub use error::{Result, StatsError};
pub use samples::Samples;

/// SplitMix64 uniforms on [0, 1) from `seed`: the one deterministic
/// stream this crate's unit tests draw their data from.
#[cfg(test)]
pub(crate) fn splitmix(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64) / ((1u64 << 53) as f64)
    }
}
