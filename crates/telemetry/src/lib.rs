//! # telemetry — the pipeline that measures itself
//!
//! A reproduction of a paper about measurement variability should measure
//! its own behaviour, and should do so by its own rules. This crate gives
//! the workspace:
//!
//! * **Spans** ([`span`]) — RAII wall-time timers forming a hierarchical,
//!   thread-safe trace tree collected globally ([`trace::drain`]). Every
//!   span records the ordinal and OS name of the thread it ran on, and
//!   worker threads parent their spans under the span that spawned them
//!   by passing a [`SpanContext`] to [`span_in`].
//! * **Metrics** ([`metrics`]) — named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and log-bucketed [`metrics::Histogram`]s with
//!   quantile queries, all lock-free on the hot path.
//! * **Dogfooded summaries** ([`span_report`], [`latency_summary`]) —
//!   latency reports computed with
//!   `varstats`: median, non-parametric order-statistic 95% CI, and CoV.
//!   Never mean ± stddev; the observability layer obeys the paper's own
//!   methodology.
//! * **Run manifests** ([`manifest::RunManifest`]) — seed, scale, host,
//!   crate versions, and per-experiment wall times, serialized next to
//!   artifacts so every CSV has provenance.
//! * **JSON** ([`json`]) — the workspace's one codec: every JSON file
//!   and body is a [`json::Json`] written in one of two layouts, and
//!   every JSON read back goes through [`json::parse`].
//!
//! Telemetry is **off by default** and is a near-zero-cost no-op while
//! disabled: every instrumented site pays exactly one relaxed atomic load
//! (see the `telemetry_overhead` bench in `crates/bench`). Flip it on with
//! [`set_enabled`] — the `repro` CLI does so for `--trace` / `--metrics`.
//!
//! ```
//! telemetry::set_enabled(true);
//! {
//!     let _outer = telemetry::span("campaign");
//!     let _inner = telemetry::span("campaign.collect");
//!     telemetry::metrics::counter("campaign.records").add(500);
//! }
//! let trace = telemetry::trace::drain();
//! assert_eq!(trace.roots.len(), 1);
//! assert_eq!(trace.roots[0].children[0].name, "campaign.collect");
//! assert_eq!(telemetry::metrics::snapshot().counter("campaign.records"), Some(500));
//! telemetry::set_enabled(false);
//! telemetry::metrics::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod manifest;
pub mod metrics;
mod report;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off globally (runtime switch).
///
/// Instrumented code observes the switch with a single relaxed atomic
/// load, so leaving telemetry disabled costs nothing measurable. Enable
/// *before* the instrumented work starts: handles and spans created while
/// disabled stay inert.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled (one relaxed atomic load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub use manifest::{
    CacheSection, DistributedSection, ExperimentTiming, FaultSection, HostInfo, RunManifest,
    StreamSection, MANIFEST_SCHEMA_VERSION,
};
pub use report::{latency_summary, span_report, LatencySummary, SpanStats};
pub use trace::{current_context, span, span_in, Span, SpanContext, SpanNode, Trace};

/// Serializes telemetry tests that toggle the global switch or drain the
/// global collectors, so `cargo test`'s parallel threads don't interleave.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
