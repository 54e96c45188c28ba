//! # sentinel — the pipeline that watches its own performance
//!
//! The paper's thesis is that performance results drift and that only
//! longitudinal, robust statistics catch it. This crate turns that lens
//! back on the reproduction itself: every `repro all`, campaign, and
//! bench run appends one [`RunRecord`] to a durable on-disk history, and
//! each new run is **audited** against that history before anyone trusts
//! it.
//!
//! Three layers:
//!
//! * **History** ([`history::HistoryStore`]) — an append-only directory
//!   of per-run records. Writes are crash-safe (fsynced temp file plus
//!   an exclusive [`durable::publish_new`]) and every record is a
//!   checksummed [`durable::envelope`], so a reader either gets a whole
//!   record or skips it.
//! * **Audit** ([`audit`](mod@audit)) — scores the newest run's metrics against the
//!   matching history with median/MAD robust z-scores
//!   ([`varstats::robust`]). Never mean ± stddev: one historic outlier
//!   must not mask a real regression. Below a configurable warm-up the
//!   audit always passes — you cannot flag a regression against a
//!   history you don't have.
//! * **Online change-points** — each audited metric series runs through
//!   [`varstats::online::OnlineCusum`], the incremental robust CUSUM, so
//!   a step change is reported with the index where the level shifted,
//!   not just "this run looks slow".
//!
//! The `repro sentinel` subcommands (`record`, `audit`, `watch`,
//! `report`, `clear`) wire this into the CLI; `repro all` records
//! automatically. `repro sentinel audit` exits non-zero on a
//! flagged regression, which is what CI consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod history;
pub mod record;
pub mod report;

pub use audit::{audit, AuditConfig, AuditReport, MetricFinding, MetricStatus};
pub use history::{HistoryStore, LoadedHistory};
pub use record::RunRecord;

use std::fmt;

/// Errors produced by the sentinel.
#[derive(Debug)]
pub enum SentinelError {
    /// An I/O error while reading or writing history.
    Io(std::io::Error),
    /// A record failed to decode (with the reason).
    Corrupt(String),
    /// A manifest declares a schema version newer than this sentinel
    /// understands; refusing beats silently misreading it.
    SchemaTooNew {
        /// Version found in the manifest.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// A statistics routine rejected the data.
    Stats(varstats::StatsError),
    /// A configuration value was out of domain.
    InvalidConfig(String),
}

impl fmt::Display for SentinelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelError::Io(e) => write!(f, "history I/O error: {e}"),
            SentinelError::Corrupt(why) => write!(f, "corrupt record: {why}"),
            SentinelError::SchemaTooNew { found, supported } => write!(
                f,
                "manifest schema version {found} is newer than supported {supported}; \
                 upgrade the sentinel before ingesting this run"
            ),
            SentinelError::Stats(e) => write!(f, "statistics error: {e}"),
            SentinelError::InvalidConfig(why) => write!(f, "invalid config: {why}"),
        }
    }
}

impl std::error::Error for SentinelError {}

impl From<std::io::Error> for SentinelError {
    fn from(e: std::io::Error) -> Self {
        SentinelError::Io(e)
    }
}

impl From<varstats::StatsError> for SentinelError {
    fn from(e: varstats::StatsError) -> Self {
        SentinelError::Stats(e)
    }
}

/// Crate-wide result alias.
type Result<T> = std::result::Result<T, SentinelError>;
