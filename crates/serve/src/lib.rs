//! # serve — the artifact-serving daemon
//!
//! A long-running HTTP/1.1 daemon over the content-addressed artifact
//! cache: `repro serve --addr HOST:PORT --cache-dir DIR` answers
//! requests for regenerated tables, figures, and manifests, computing
//! cache misses on demand through the same engine path `repro all`
//! uses. The serving contract (DESIGN.md §10) extends the repo's
//! byte-identity guarantee over the network:
//!
//! - **Byte-identical responses.** For a given `(experiment, scale,
//!   seed)` the response body is identical across requests, restarts,
//!   worker counts, and chaos seeds — the bytes are the artifact's
//!   `render()`/`to_csv()`, the same bytes the CLI writes.
//! - **One flight per cold key.** N concurrent requests for the same
//!   cold key execute the pipeline exactly once: one `cache.miss`, one
//!   `cache.stored`, N−1 waiters sharing the leader's result. Several
//!   daemons can share one cache directory: the flight's second level
//!   is a lease file per key, so a cold key computes once across them
//!   and degrades to duplicated — never wrong — work (the `flight` module).
//! - **Strong validators.** `ETag` is the cache fingerprint of the
//!   request's [`analysis::CacheKey`]; `If-None-Match` round-trips to
//!   `304` without touching the cache or the engine.
//! - **Backpressure, not hangs.** A configurable worker pool
//!   (`--workers`, default cores) drains a bounded accept queue; when
//!   the queue is full the daemon sheds load with a fast `503
//!   Retry-After` ([`server::ServerConfig`]).
//! - **Bodies rendered once.** Each artifact body is rendered once per
//!   representation (format, `artifact=` selector, encoding) and kept
//!   in a memo bounded by `BODY_MEMO_BUDGET` (8 MiB); a hot request
//!   replays the finished chunks. A body is a pure function of the
//!   cache fingerprint and the representation, so a kept one is never
//!   stale.
//!   HTTP/1.1 responses use chunked framing, one artifact per chunk and
//!   each write O(chunk), byte-identical to the whole-body
//!   (`Content-Length`) framing HTTP/1.0 clients get.
//! - **Content-negotiated gzip.** `Accept-Encoding: gzip` switches the
//!   payload to a hand-rolled, dependency-free gzip encoding
//!   ([`gzip`]), with identity fallback and per-variant `ETag`s.
//! - **Live telemetry.** `GET /metrics` renders the process's metric
//!   registry as deterministic text (`serve.request`,
//!   `serve.singleflight.lead`/`.wait`, `serve.queue.depth`/`.peak`,
//!   `serve.shed`, `cache.hit`/`cache.miss`, per-endpoint latency
//!   histograms).
//!
//! Endpoints: `GET /v1/experiments` (the registry listing,
//! byte-identical to `repro list`), `GET
//! /v1/artifacts/{id}?seed=&scale=&format=&artifact=`, `GET
//! /v1/manifest/{id}?seed=&scale=`, `GET /metrics`, `GET /healthz`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The daemon reports I/O failures per-connection and keeps serving;
// `unwrap()` outside tests regresses that (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod flight;
pub mod gzip;
pub mod http;
mod memo;
mod server;
mod service;

pub use http::{Request, Response};
pub use server::{Server, ServerConfig};
pub use service::{ArtifactService, BodyStream, Reply, ServeOptions, Streamed};
