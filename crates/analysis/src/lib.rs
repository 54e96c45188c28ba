//! # analysis — the evaluation reproduction pipelines
//!
//! Every table and figure of the paper's evaluation (as reconstructed in
//! DESIGN.md §4) has a pipeline here that regenerates it from the
//! simulated campaign: T1/T2 (setup tables), F1–F12 (figures), T3/T4
//! (comparison and summary tables). The registry ([`all`], [`find`])
//! maps ids to [`Experiment`] trait objects (id, kind, title, cost
//! class, fallible `run`); the engine ([`run_experiments`]) executes any
//! slice of them across worker threads under a byte-identical
//! determinism contract; the `repro` binary drives both from the command
//! line:
//!
//! ```text
//! cargo run -p serve --bin repro -- list
//! cargo run -p serve --bin repro -- F9 --scale quick --seed 42
//! cargo run -p serve --bin repro -- all --jobs 8 --out artifacts/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// I/O paths carry typed errors into per-id failure reports; `unwrap()`
// outside tests regresses that contract (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod artifact;
mod cache;
mod context;
mod engine;
pub mod experiments;
mod registry;
mod requirements;

pub use artifact::{Artifact, Series, SeriesSet, Table};
pub use cache::{ArtifactCache, CacheKey, CacheStats, CODE_FINGERPRINT};
pub use context::{Context, DataSource, Scale, ShardView};
pub use engine::{run_experiments, run_experiments_opts, EngineOptions, ExperimentRun, FaultStats};
pub use registry::{all, find, Cost, ErrorClass, Experiment, ExperimentError, Kind, ShardFold};
