//! Request handling: routes, response rendering, and the miss path over
//! the content-addressed artifact cache.
//!
//! The serving contract (DESIGN.md §10) is byte-identity: for a given
//! `(experiment, scale, seed)` the response body is identical across
//! requests, restarts, worker counts, and chaos seeds — the same
//! contract `repro all` honors, extended over HTTP. Cold keys go through
//! one two-level flight keyed by the cache fingerprint (the `flight`
//! module): they compute through the engine exactly once no matter how
//! many clients of this process ask concurrently, and at most once
//! across the daemons sharing the cache directory unless a sibling
//! dies mid-flight, then store back through the engine's own retried
//! store-back ([`ArtifactCache::store_retrying`]).
//!
//! Each artifact body is rendered once per representation (text or
//! CSV, the `artifact=` selector, identity or gzip) and kept in a
//! byte-bounded memo ([`BODY_MEMO_BUDGET`]), the cache's in-memory tier:
//! a hot request replays the finished chunks, with no disk read, decode,
//! render or gzip. A body is a pure function of the cache fingerprint
//! and the representation, so a kept body cannot go stale. Handlers
//! produce a [`Reply`]: either a whole [`Response`] or a [`Streamed`]
//! head plus a [`BodyStream`] that replays the body one artifact per
//! chunk (the gzip trailer is its own last chunk). The ETag is a
//! per-variant validator so a `304` never short-circuits the wrong
//! representation; whole non-artifact bodies are gzip-encoded through
//! [`gzip::encode`].

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use analysis::{
    find, run_experiments_opts, Artifact, ArtifactCache, CacheKey, Context, EngineOptions,
    Experiment, Scale,
};
use dataset::CollectOptions;
use telemetry::json::Json;
use testbed::{FaultPlan, FaultPolicy, FaultTally};

use crate::flight::{Flights, Shared};
use crate::gzip;
use crate::http::{Request, Response};
use crate::memo::{Body, BodyMemo, Representation};

/// Contexts kept warm, keyed by `(scale, seed)`. A context holds the
/// provisioned cluster and regenerates its shards on demand, so a warm
/// one costs a fleet description, not a campaign; the pool saves the
/// provisioning and bounds the shard buffers kept for reuse.
const CONTEXT_POOL_CAP: usize = 8;

/// Body bytes the memo of finished artifact responses keeps. Every
/// representation of all 24 experiments at one seed (whole and
/// per-artifact text, per-artifact CSV, each identity and gzip) takes
/// 0.25 MB at quick scale and 0.29 MB at paper scale, so the budget
/// holds about 28 such `(scale, seed)` sets; the largest body, F13's
/// text, is 20 KB. At the budget arbitrary entries are evicted, as in
/// the context pool; a body larger than the budget is served but not
/// kept.
const BODY_MEMO_BUDGET: usize = 8 << 20;

/// Configuration for [`ArtifactService`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory of the content-addressed artifact cache.
    pub cache_dir: PathBuf,
    /// Engine worker threads per pipeline run (`None` = one per core).
    pub jobs: Option<usize>,
    /// Chaos plan applied to pipeline runs and cache stores; `None`
    /// injects nothing. Shard regeneration runs fault-free: the daemon
    /// keeps no journal, and the byte-identity contract already pins the
    /// dataset.
    pub faults: Option<FaultPlan>,
    /// Retry budget and backoff for transient faults.
    pub policy: FaultPolicy,
    /// How long a cross-process flight lease stays credible without a
    /// heartbeat. A follower waits while the sibling's lease is fresher
    /// than this; a claimant breaks an older one (its holder presumably
    /// died). Bounds the worst-case added latency a sibling daemon's
    /// crash can impose on a cold request.
    pub crossflight_stale: Duration,
}

impl ServeOptions {
    /// Options serving from `cache_dir` with library defaults.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            cache_dir: cache_dir.into(),
            jobs: None,
            faults: None,
            policy: FaultPolicy::default(),
            crossflight_stale: Duration::from_secs(60),
        }
    }
}

/// What a flight resolves to: the artifact set, or the leader's error.
type FlightResult = Result<Arc<Vec<Artifact>>, String>;
/// Warm contexts keyed by `(scale label, seed)`; the [`OnceLock`] lets
/// waiters block on the builder without holding the pool lock.
type ContextPool = std::collections::HashMap<(String, u64), Arc<OnceLock<Arc<Context>>>>;

/// What a handler hands the connection loop: a fully materialized
/// response, or a head plus a body to write with chunked framing.
pub enum Reply {
    /// Serialize with `Content-Length` framing.
    Whole(Response),
    /// Serialize the head with `Transfer-Encoding: chunked` and write
    /// the body's chunks one frame each.
    Streamed(Streamed),
}

/// A streamed reply: status + headers, and the finished body's chunks.
pub struct Streamed {
    /// Status and headers; `head.body` stays empty.
    pub head: Response,
    /// The body, one chunk per artifact (gzip-encoded when negotiated).
    pub body: BodyStream,
}

impl Reply {
    /// The reply's status code.
    pub fn status(&self) -> u16 {
        match self {
            Reply::Whole(resp) => resp.status,
            Reply::Streamed(s) => s.head.status,
        }
    }

    /// Collapses the reply into a whole [`Response`], joining a
    /// streamed body into `body`. The bytes are exactly the payload a
    /// client would reassemble from the chunked frames (still
    /// gzip-encoded when the stream negotiated gzip).
    pub fn into_response(self) -> Response {
        match self {
            Reply::Whole(resp) => resp,
            Reply::Streamed(s) => {
                let mut resp = s.head;
                resp.body = s.body.chunks[s.body.next..].concat();
                resp
            }
        }
    }
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Reply {
        Reply::Whole(resp)
    }
}

/// A finished artifact body replayed chunk by chunk: one chunk per
/// selected artifact (the CLI's `render()` + newline, or `to_csv`),
/// then the gzip trailer when gzip-encoded. Each chunk is shared with
/// the memo, so a replay copies no body bytes.
pub struct BodyStream {
    chunks: Body,
    next: usize,
}

impl Iterator for BodyStream {
    type Item = Arc<[u8]>;

    fn next(&mut self) -> Option<Arc<[u8]>> {
        let chunk = self.chunks.get(self.next)?;
        self.next += 1;
        Some(Arc::clone(chunk))
    }
}

/// Renders one representation of the `selected` artifacts: a chunk per
/// artifact, each pushed through one gzip stream when `gzip`, whose
/// trailer (final empty block, CRC-32, ISIZE) is then its own last
/// chunk; identity bodies end with the artifacts.
fn render_body(selected: &[&Artifact], csv: bool, gzip: bool) -> Body {
    let mut encoder = gzip.then(gzip::StreamEncoder::new);
    let mut chunks: Vec<Arc<[u8]>> = selected
        .iter()
        .map(|artifact| {
            let chunk = if csv {
                artifact.to_csv().into_bytes()
            } else {
                let mut text = artifact.render();
                text.push('\n');
                text.into_bytes()
            };
            match &mut encoder {
                Some(enc) => enc.push(&chunk),
                None => chunk,
            }
            .into()
        })
        .collect();
    chunks.extend(encoder.map(|enc| enc.finish().into()));
    chunks.into()
}

/// The stateful request handler shared by every connection.
pub struct ArtifactService {
    cache: ArtifactCache,
    jobs: Option<usize>,
    faults: Option<FaultPlan>,
    policy: FaultPolicy,
    flights: Flights<FlightResult>,
    contexts: Mutex<ContextPool>,
    memo: BodyMemo,
}

impl ArtifactService {
    /// A service over the cache in `options.cache_dir`.
    pub fn new(options: ServeOptions) -> Self {
        let cache = ArtifactCache::new(options.cache_dir);
        let flights = Flights::new(cache.dir(), options.crossflight_stale);
        ArtifactService {
            cache,
            jobs: options.jobs,
            faults: options.faults,
            policy: options.policy,
            flights,
            contexts: Mutex::new(std::collections::HashMap::new()),
            memo: BodyMemo::new(BODY_MEMO_BUDGET),
        }
    }

    /// Dispatches one request and returns the reply. Telemetry:
    /// `serve.request` (+ per-endpoint), `serve.status.<code>`, and a
    /// `serve.latency.<endpoint>` histogram recorded after the reply
    /// is built (bodies included, before any byte is written), so
    /// `/metrics` never includes its own in-flight request.
    pub fn handle(&self, req: &Request) -> Reply {
        let started = Instant::now();
        let endpoint = endpoint_label(&req.path);
        telemetry::metrics::counter("serve.request").inc();
        telemetry::metrics::counter(&format!("serve.request.{endpoint}")).inc();
        let mut reply = self.route(req);
        self.negotiate_encoding(req, &mut reply);
        telemetry::metrics::counter(&format!("serve.status.{}", reply.status())).inc();
        telemetry::metrics::histogram(&format!("serve.latency.{endpoint}"))
            .record(started.elapsed().as_secs_f64());
        reply
    }

    /// Applies content negotiation to a routed reply: any `200` with a
    /// body is gzip-encoded when the client negotiated it (artifact
    /// bodies were already rendered encoded by the handler), and every
    /// negotiable response — including `304`, whose validator is
    /// per-variant — carries `Vary: Accept-Encoding`.
    fn negotiate_encoding(&self, req: &Request, reply: &mut Reply) {
        fn add_vary(resp: &mut Response) {
            if resp.header("Vary").is_none() {
                resp.headers
                    .push(("Vary".to_string(), "Accept-Encoding".to_string()));
            }
        }
        match reply {
            Reply::Whole(resp) => {
                if resp.status == 200 && !resp.body.is_empty() {
                    if gzip::negotiates_gzip(req.header("accept-encoding"))
                        && resp.header("Content-Encoding").is_none()
                    {
                        resp.body = gzip::encode(&resp.body);
                        resp.headers
                            .push(("Content-Encoding".to_string(), "gzip".to_string()));
                    }
                    add_vary(resp);
                } else if resp.status == 304 {
                    add_vary(resp);
                }
            }
            Reply::Streamed(s) => add_vary(&mut s.head),
        }
    }

    fn route(&self, req: &Request) -> Reply {
        if req.method != "GET" {
            return Response::text(405, "only GET is supported\n").into();
        }
        match req.path.as_str() {
            "/healthz" => Response::text(200, "ok\n").into(),
            "/metrics" => Response::text(200, render_metrics()).into(),
            "/v1/experiments" => Response::text(200, render_experiments()).into(),
            path => {
                if let Some(id) = path.strip_prefix("/v1/artifacts/") {
                    self.artifacts_endpoint(id, req)
                } else if let Some(id) = path.strip_prefix("/v1/manifest/") {
                    self.manifest_endpoint(id, req).into()
                } else {
                    Response::text(404, format!("no such route: {path}\n")).into()
                }
            }
        }
    }

    /// `GET /v1/artifacts/{id}?seed=&scale=&format=&artifact=`
    ///
    /// HTTP/1.1 clients get the body streamed with chunked framing, one
    /// artifact per chunk; HTTP/1.0 clients get the same bytes whole
    /// under `Content-Length`. With `Accept-Encoding: gzip` the payload
    /// is gzip-encoded (either way) and the ETag switches to the gzip
    /// variant's validator. A body kept in the memo counts as a
    /// `cache.hit`, as a disk hit does: the memo is the cache's
    /// in-memory tier.
    fn artifacts_endpoint(&self, id: &str, req: &Request) -> Reply {
        let (experiment, scale, seed) = match self.resolve(id, req) {
            Ok(triple) => triple,
            Err(resp) => return resp.into(),
        };
        let key = CacheKey::for_params(experiment, scale, seed);
        let gzip_negotiated = gzip::negotiates_gzip(req.header("accept-encoding"));
        let etag = etag(&key, gzip_negotiated);
        if req.header("if-none-match") == Some(etag.as_str()) {
            return Response::empty(304).with_header("ETag", etag).into();
        }
        let representation = Representation {
            fingerprint: key.fingerprint(),
            format: req.query_param("format").unwrap_or("text").to_string(),
            artifact: req.query_param("artifact").map(str::to_string),
            gzip: gzip_negotiated,
        };
        let chunks = match self.memo.get(&representation) {
            Some(chunks) => {
                telemetry::metrics::counter("cache.hit").inc();
                chunks
            }
            None => {
                let chunks = match self.render(id, experiment, scale, seed, &key, &representation) {
                    Ok(chunks) => chunks,
                    Err(resp) => return resp.into(),
                };
                if experiment.cacheable() {
                    self.memo.insert(representation, &chunks);
                }
                chunks
            }
        };
        let mut head = Response::text(200, "").with_header("ETag", etag);
        if gzip_negotiated {
            head.headers
                .push(("Content-Encoding".to_string(), "gzip".to_string()));
        }
        if req.accepts_chunked() {
            let body = BodyStream { chunks, next: 0 };
            Reply::Streamed(Streamed { head, body })
        } else {
            head.body = chunks.concat();
            Reply::Whole(head)
        }
    }

    /// The miss path of [`Self::artifacts_endpoint`]: the artifacts from
    /// the disk cache or the engine, then the one render of the
    /// requested representation, or the `400`/`404`/`500` to answer.
    fn render(
        &self,
        id: &str,
        experiment: &'static dyn Experiment,
        scale: Scale,
        seed: u64,
        key: &CacheKey,
        representation: &Representation,
    ) -> Result<Body, Response> {
        // An unknown format is refused before the fetch, so it never
        // computes or stores a cold key.
        let csv = match representation.format.as_str() {
            "text" => false,
            "csv" => true,
            other => return Err(Response::text(400, format!("unknown format `{other}`\n"))),
        };
        let artifacts = self
            .artifacts_for_key(experiment, scale, seed, key)
            .map_err(|why| Response::text(500, format!("{id}: {why}\n")))?;
        let selected: Vec<&Artifact> = match &representation.artifact {
            Some(aid) => match artifacts.iter().find(|a| a.id() == aid) {
                Some(artifact) => vec![artifact],
                None => {
                    return Err(Response::text(
                        404,
                        format!("{id} has no artifact `{aid}`\n"),
                    ))
                }
            },
            None => artifacts.iter().collect(),
        };
        if csv && selected.len() != 1 {
            return Err(Response::text(
                400,
                "format=csv requires an artifact= selector\n",
            ));
        }
        Ok(render_body(&selected, csv, representation.gzip))
    }

    /// `GET /v1/manifest/{id}?seed=&scale=`: experiment metadata plus
    /// the artifact inventory, as JSON with a fixed key order.
    fn manifest_endpoint(&self, id: &str, req: &Request) -> Response {
        let (experiment, scale, seed) = match self.resolve(id, req) {
            Ok(triple) => triple,
            Err(resp) => return resp,
        };
        let key = CacheKey::for_params(experiment, scale, seed);
        let artifacts = match self.artifacts_for_key(experiment, scale, seed, &key) {
            Ok(artifacts) => artifacts,
            Err(why) => return Response::text(500, format!("{id}: {why}\n")),
        };
        let inventory = artifacts
            .iter()
            .map(|artifact| {
                let kind = match artifact {
                    Artifact::Table(_) => "table",
                    Artifact::Figure(_) => "figure",
                };
                Json::object([
                    ("id", artifact.id().into()),
                    ("kind", kind.into()),
                    ("bytes", artifact.render().len().into()),
                ])
            })
            .collect();
        let manifest = Json::object([
            ("experiment", experiment.id().into()),
            ("kind", experiment.kind().label().into()),
            ("cost", experiment.cost().label().into()),
            ("title", experiment.title().into()),
            (
                "code",
                format!("{:016x}", analysis::CODE_FINGERPRINT).into(),
            ),
            ("scale", scale.label().into()),
            ("seed", seed.into()),
            ("cacheable", experiment.cacheable().into()),
            ("fingerprint", format!("{:016x}", key.fingerprint()).into()),
            ("artifacts", inventory),
        ]);
        let body = manifest.compact() + "\n";
        Response::text(200, body).with_content_type("application/json")
    }

    /// Validates id / scale / seed, or produces the error response.
    fn resolve(
        &self,
        id: &str,
        req: &Request,
    ) -> Result<(&'static dyn Experiment, Scale, u64), Response> {
        let Some(experiment) = find(id) else {
            return Err(Response::text(
                404,
                format!("unknown experiment id `{id}` (see /v1/experiments)\n"),
            ));
        };
        let scale_param = req.query_param("scale").unwrap_or("quick");
        let Some(scale) = Scale::parse(scale_param) else {
            return Err(Response::text(
                400,
                format!("unknown scale `{scale_param}` (quick|paper)\n"),
            ));
        };
        let seed = match req.query_param("seed").unwrap_or("42").parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => return Err(Response::text(400, "seed must be an unsigned integer\n")),
        };
        Ok((experiment, scale, seed))
    }

    /// Returns the experiment's artifacts, from the cache when hot,
    /// computing through the engine when cold. Concurrent callers for
    /// the same `key` share one computation: the key's fingerprint names
    /// the flight, and a cacheable key's cache entry is what sibling
    /// daemons share.
    fn artifacts_for_key(
        &self,
        experiment: &'static dyn Experiment,
        scale: Scale,
        seed: u64,
        key: &CacheKey,
    ) -> FlightResult {
        let load = || {
            self.cache
                .lookup(key)
                .map(|artifacts| Ok(Arc::new(artifacts)))
        };
        let shared = experiment.cacheable().then(|| Shared {
            entry: self.cache.dir().join(key.file_name()),
            load: &load,
        });
        self.flights.run(key.fingerprint(), shared, || {
            self.compute(experiment, scale, seed, key)
        })
    }

    /// A full pipeline run on a pooled context, then the engine's
    /// retried store-back ([`ArtifactCache::store_retrying`]). The
    /// engine is invoked with `cache: None` — the flight already did the
    /// lookup, and one cold request must count exactly one `cache.miss`.
    fn compute(
        &self,
        experiment: &'static dyn Experiment,
        scale: Scale,
        seed: u64,
        key: &CacheKey,
    ) -> FlightResult {
        let ctx = self.context(scale, seed);
        let options = EngineOptions {
            jobs: self.jobs,
            cache: None,
            faults: self.faults,
            policy: self.policy,
        };
        let (runs, fault_stats) = run_experiments_opts(&ctx, &[experiment], &options, &|_| {});
        telemetry::metrics::counter("serve.faults.injected").add(fault_stats.injected);
        telemetry::metrics::counter("serve.faults.retried").add(fault_stats.retried);
        let run = runs
            .into_iter()
            .next()
            .ok_or_else(|| "engine returned no report".to_string())?;
        let artifacts = run.outcome.map_err(|e| e.message().to_string())?;
        if experiment.cacheable() {
            // Best-effort: a store past the budget is logged, never served
            // as an error; the artifacts were computed fine.
            let tally = FaultTally::default();
            let (faults, policy) = (self.faults, &self.policy);
            let stored = self
                .cache
                .store_retrying(key, &artifacts, faults, policy, &tally);
            if let Err(err) = stored {
                // A closed stderr must not turn a lost store into a panic.
                let _ = writeln!(
                    std::io::stderr(),
                    "serve: cannot store {}: {err}",
                    experiment.id()
                );
            }
            telemetry::metrics::counter("serve.faults.injected").add(tally.injected());
            telemetry::metrics::counter("serve.faults.retried").add(tally.retried());
        }
        Ok(Arc::new(artifacts))
    }

    /// `(entries, body bytes)` the memo keeps.
    #[cfg(test)]
    pub(crate) fn memo_resident(&self) -> (usize, usize) {
        self.memo.resident()
    }

    /// A context from the pool, provisioning the campaign on first use.
    /// `OnceLock::get_or_init` gives context builds their own
    /// single-flight: concurrent cold requests for different experiments
    /// at the same `(scale, seed)` provision one campaign, not two. Each
    /// run that walks the dataset regenerates its shards.
    fn context(&self, scale: Scale, seed: u64) -> Arc<Context> {
        let cell = {
            let mut pool = self
                .contexts
                .lock()
                .expect("context pool lock not poisoned");
            let pool_key = (scale.label().to_string(), seed);
            if pool.len() >= CONTEXT_POOL_CAP && !pool.contains_key(&pool_key) {
                // Evict an arbitrary entry; in-flight users hold Arcs and
                // are unaffected, and contexts are pure functions of their
                // key, so eviction only costs a rebuild.
                if let Some(evict) = pool.keys().next().cloned() {
                    pool.remove(&evict);
                }
            }
            Arc::clone(pool.entry(pool_key).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            let options = CollectOptions {
                jobs: self.jobs,
                ..CollectOptions::default()
            };
            let (ctx, _) = Context::collect(scale, seed, &options)
                .expect("a context without a journal collects nothing up front");
            Arc::new(ctx)
        }))
    }
}

/// The strong validator for an artifact response: the fingerprint of
/// the request's cache key, derivable without collecting a campaign.
/// Each encoding is its own representation with its own validator
/// (`"<fp>"` vs `"<fp>-gzip"`), so `If-None-Match` can only revalidate
/// the representation the negotiation would actually serve.
fn etag(key: &CacheKey, gzip: bool) -> String {
    let fp = key.fingerprint();
    if gzip {
        format!("\"{fp:016x}-gzip\"")
    } else {
        format!("\"{fp:016x}\"")
    }
}

/// Which latency/request bucket a path belongs to.
fn endpoint_label(path: &str) -> &'static str {
    if path == "/healthz" {
        "healthz"
    } else if path == "/metrics" {
        "metrics"
    } else if path == "/v1/experiments" {
        "experiments"
    } else if path.starts_with("/v1/artifacts/") {
        "artifacts"
    } else if path.starts_with("/v1/manifest/") {
        "manifest"
    } else {
        "other"
    }
}

/// The registry listing, byte-identical to `repro list`.
fn render_experiments() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4}  {:<6}  {:<6}  title\n",
        "id", "kind", "cost"
    ));
    for e in analysis::all() {
        out.push_str(&format!(
            "{:<4}  {:<6}  {:<6}  {}\n",
            e.id(),
            e.kind().label(),
            e.cost().label(),
            e.title(),
        ));
    }
    out
}

/// The live metrics snapshot as a deterministic text format: one line
/// per metric, sections in snapshot order (alphabetical by name — the
/// [`telemetry::metrics::MetricsSnapshot`] ordering contract).
fn render_metrics() -> String {
    fn opt(v: Option<f64>) -> String {
        v.map_or_else(|| "-".to_string(), |v| format!("{v}"))
    }
    let snapshot = telemetry::metrics::snapshot();
    let mut out = String::from("# serve metrics v1\n");
    for c in &snapshot.counters {
        out.push_str(&format!("counter {} {}\n", c.name, c.value));
    }
    for g in &snapshot.gauges {
        out.push_str(&format!("gauge {} {}\n", g.name, g.value));
    }
    for h in &snapshot.histograms {
        out.push_str(&format!(
            "histogram {} count {} rejected {} total {} min {} max {} p50 {} p90 {} p95 {} p99 {}\n",
            h.name,
            h.count,
            h.rejected,
            h.total,
            opt(h.min),
            opt(h.max),
            opt(h.p50),
            opt(h.p90),
            opt(h.p95),
            opt(h.p99),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn get(path: &str) -> Request {
        Request::read_from(&mut BufReader::new(
            format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes(),
        ))
        .unwrap()
        .unwrap()
    }

    fn get_1_0(path: &str) -> Request {
        Request::read_from(&mut BufReader::new(
            format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes(),
        ))
        .unwrap()
        .unwrap()
    }

    fn with_header(mut req: Request, name: &str, value: &str) -> Request {
        req.headers.push((name.to_string(), value.to_string()));
        req
    }

    fn temp_service() -> (ArtifactService, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "serve-unit-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        let service = ArtifactService::new(ServeOptions {
            jobs: Some(2),
            ..ServeOptions::new(&dir)
        });
        (service, dir)
    }

    #[test]
    fn experiments_listing_matches_the_registry() {
        let listing = render_experiments();
        let mut lines = listing.lines();
        assert_eq!(lines.next(), Some("id    kind    cost    title"));
        assert_eq!(listing.lines().count(), analysis::all().len() + 1);
        assert!(listing.lines().any(|l| l.starts_with("T1")));
        assert!(listing.lines().any(|l| l.starts_with("F6")));
    }

    #[test]
    fn routing_rejects_what_it_should() {
        let (service, dir) = temp_service();
        assert_eq!(service.handle(&get("/nope")).status(), 404);
        assert_eq!(
            service.handle(&get("/v1/artifacts/ZZ?seed=1")).status(),
            404,
            "unknown experiment id"
        );
        assert_eq!(
            service
                .handle(&get("/v1/artifacts/T1?scale=galactic"))
                .status(),
            400
        );
        assert_eq!(
            service
                .handle(&get("/v1/artifacts/T1?seed=minus-one"))
                .status(),
            400
        );
        assert_eq!(
            service
                .handle(&get("/v1/artifacts/T1?format=yaml"))
                .status(),
            400
        );
        let mut post = get("/healthz");
        post.method = "POST".to_string();
        assert_eq!(service.handle(&post).status(), 405);
        assert_eq!(service.handle(&get("/healthz")).status(), 200);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn etag_round_trip_yields_304_without_recomputing() {
        let (service, dir) = temp_service();
        let first = service
            .handle(&get("/v1/artifacts/T1?seed=7&scale=quick"))
            .into_response();
        assert_eq!(first.status, 200);
        let etag = first
            .header("ETag")
            .expect("artifact responses carry an ETag")
            .to_string();
        let conditional = with_header(
            get("/v1/artifacts/T1?seed=7&scale=quick"),
            "if-none-match",
            &etag,
        );
        let second = service.handle(&conditional).into_response();
        assert_eq!(second.status, 304);
        assert_eq!(
            second.header("Vary"),
            Some("Accept-Encoding"),
            "variant-selecting 304s must carry Vary"
        );
        assert!(second.body.is_empty());
        // The validator is the cache fingerprint, so it must differ
        // across seeds and scales.
        let other = service
            .handle(&get("/v1/artifacts/T1?seed=8&scale=quick"))
            .into_response();
        let other_etag = other.header("ETag").map(str::to_string);
        assert_ne!(Some(etag), other_etag);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn streamed_and_whole_bodies_are_byte_identical() {
        let (service, dir) = temp_service();
        let streamed = service.handle(&get("/v1/artifacts/T1?seed=7&scale=quick"));
        assert!(
            matches!(streamed, Reply::Streamed(_)),
            "HTTP/1.1 artifact responses stream"
        );
        let whole = service.handle(&get_1_0("/v1/artifacts/T1?seed=7&scale=quick"));
        assert!(
            matches!(whole, Reply::Whole(_)),
            "HTTP/1.0 gets Content-Length framing"
        );
        let streamed_body = streamed.into_response().body;
        let whole_body = whole.into_response().body;
        assert!(!streamed_body.is_empty());
        assert_eq!(streamed_body, whole_body);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gzip_negotiation_encodes_and_varies_the_validator() {
        let (service, dir) = temp_service();
        let plain = service
            .handle(&get("/v1/artifacts/T1?seed=7&scale=quick"))
            .into_response();
        let plain_etag = plain.header("ETag").unwrap().to_string();
        let gz_req = || {
            with_header(
                get("/v1/artifacts/T1?seed=7&scale=quick"),
                "accept-encoding",
                "gzip",
            )
        };
        let gz = service.handle(&gz_req()).into_response();
        assert_eq!(gz.status, 200);
        assert_eq!(gz.header("Content-Encoding"), Some("gzip"));
        assert_eq!(gz.header("Vary"), Some("Accept-Encoding"));
        let gz_etag = gz.header("ETag").unwrap().to_string();
        assert_ne!(
            plain_etag, gz_etag,
            "each representation has its own validator"
        );
        assert!(gz_etag.contains("-gzip"));
        // The identity validator cannot revalidate the gzip variant...
        let stale = with_header(gz_req(), "if-none-match", &plain_etag);
        assert_eq!(service.handle(&stale).status(), 200);
        // ...but the variant's own validator can.
        let fresh = with_header(gz_req(), "if-none-match", &gz_etag);
        assert_eq!(service.handle(&fresh).status(), 304);
        // And the encoded body decodes to exactly the identity bytes.
        let plain_body = plain.body;
        let gz_body = gz.body;
        assert!(gz_body.len() < plain_body.len(), "gzip should shrink text");
        assert_eq!(gzip::decode(&gz_body).unwrap(), plain_body);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn non_artifact_endpoints_gzip_whole_bodies_on_request() {
        let (service, dir) = temp_service();
        let plain = service.handle(&get("/v1/experiments")).into_response();
        let gz = service
            .handle(&with_header(
                get("/v1/experiments"),
                "accept-encoding",
                "gzip",
            ))
            .into_response();
        assert_eq!(gz.header("Content-Encoding"), Some("gzip"));
        assert_eq!(gzip::decode(&gz.body).unwrap(), plain.body);
        // Refused encodings stay identity.
        let refused = service
            .handle(&with_header(
                get("/v1/experiments"),
                "accept-encoding",
                "gzip;q=0",
            ))
            .into_response();
        assert_eq!(refused.header("Content-Encoding"), None);
        assert_eq!(refused.body, plain.body);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn manifest_lists_artifacts_with_fixed_key_order() {
        let (service, dir) = temp_service();
        let resp = service
            .handle(&get("/v1/manifest/T1?seed=7&scale=quick"))
            .into_response();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.starts_with("{\"experiment\":\"T1\",\"kind\":\"table\","));
        assert!(body.contains("\"scale\":\"quick\",\"seed\":7,"));
        assert!(body.contains("\"artifacts\":[{\"id\":"));
        assert!(body.ends_with("]}\n"));
        let code = format!("\"code\":\"{:016x}\"", analysis::CODE_FINGERPRINT);
        let key = CacheKey::for_params(find("T1").unwrap(), Scale::Quick, 7);
        let fingerprint = format!("\"fingerprint\":\"{:016x}\"", key.fingerprint());
        assert!(body.contains(&code), "{body}");
        assert!(body.contains(&fingerprint), "{body}");
        // Every other byte: a change to the key order or the layout shows
        // up here. The two hashes move with every source edit, so they
        // are placeholders in the fixture.
        let normalized = body.replacen(&code, "\"code\":\"<code>\"", 1).replacen(
            &fingerprint,
            "\"fingerprint\":\"<fingerprint>\"",
            1,
        );
        assert_eq!(
            normalized,
            include_str!("../tests/fixtures/manifest_T1_seed7_quick.json")
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_memo_holds_its_budget_and_serves_larger_bodies_unkept() {
        let (service, dir) = temp_service();
        let requests: Vec<Request> = ["T1", "T2", "F6", "F7"]
            .into_iter()
            .flat_map(|id| {
                let text = get(&format!("/v1/artifacts/{id}?seed=7"));
                let gz = with_header(text.clone(), "accept-encoding", "gzip");
                [text, gz]
            })
            .collect();
        let reference: Vec<Vec<u8>> = requests
            .iter()
            .map(|req| service.handle(req).into_response().body)
            .collect();
        let sizes = reference.iter().map(Vec::len);
        let (smallest, largest) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
        // Each budget reads the same cache directory, now warm on disk.
        let with_budget = |budget| ArtifactService {
            memo: BodyMemo::new(budget),
            ..ArtifactService::new(ServeOptions::new(&dir))
        };

        let budget = 2 * largest;
        let filled = with_budget(budget);
        for _ in 0..2 {
            for (req, body) in requests.iter().zip(&reference) {
                assert_eq!(&filled.handle(req).into_response().body, body);
                let (entries, bytes) = filled.memo_resident();
                assert!(entries >= 1 && bytes <= budget, "{bytes} > {budget}");
            }
        }

        let too_small = with_budget(smallest - 1);
        for _ in 0..2 {
            for (req, body) in requests.iter().zip(&reference) {
                assert_eq!(&too_small.handle(req).into_response().body, body);
            }
        }
        assert_eq!(too_small.memo_resident(), (0, 0), "no body fits");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_format_selects_one_artifact() {
        let (service, dir) = temp_service();
        let manifest = service
            .handle(&get("/v1/manifest/T1?seed=7"))
            .into_response();
        let body = String::from_utf8(manifest.body).unwrap();
        let aid = body
            .split("\"artifacts\":[{\"id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("manifest names at least one artifact")
            .to_string();
        let csv = service.handle(&get(&format!(
            "/v1/artifacts/T1?seed=7&format=csv&artifact={aid}"
        )));
        assert_eq!(csv.status(), 200);
        assert!(!csv.into_response().body.is_empty());
        let missing = service.handle(&get("/v1/artifacts/T1?seed=7&artifact=nope"));
        assert_eq!(missing.status(), 404);
        let _ = std::fs::remove_dir_all(dir);
    }
}
