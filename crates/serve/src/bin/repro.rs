//! Command-line driver that regenerates the paper's tables and figures.
//! `repro --help` prints every command and flag; both are specified
//! once, in the tables of `repro/cli.rs`.
//!
//! Experiments run on the engine's deterministic parallel scheduler:
//! the stdout report, artifacts, and manifest are byte-identical for any
//! `--jobs`. A failing experiment does not abort the run: its siblings'
//! artifacts are still produced and the failure is reported per-id with
//! a non-zero exit at the end. Successful artifacts are cached
//! content-addressed, and a rerun replays them byte-identically.
//!
//! The walk reads the journal exactly when `--resume DIR` is given: a
//! killed run replays the finished shards and re-collects only the
//! rest. Without `--resume` the walk regenerates each machine's shard on
//! demand. Either way peak memory is bounded by a few shards (DESIGN.md
//! §11), and the artifacts are byte-identical. `--chaos SEED` arms the
//! fault-injection harness of DESIGN.md §8; `repro collect` is the
//! collection on its own, in one process or supervised across worker
//! subprocesses (DESIGN.md §12). `repro serve` drains and exits 0 on
//! SIGTERM/SIGINT (DESIGN.md §10).
//!
//! With `--trace` / `--metrics` the run measures itself through the
//! `telemetry` crate, and every fully successful run appends a record to
//! the regression sentinel's history (DESIGN.md §9).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

/// Set once a write to stdout fails, after which stdout output is
/// dropped.
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
/// [`STDOUT_CLOSED`] for stderr.
static STDERR_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Writes to a stream the reader may close early (`repro all | head`,
/// `repro ... 2>&1 | head`). The standard print macros panic on the
/// resulting EPIPE; this ends that stream's output quietly and lets the
/// run finish its files and its exit code. SIGPIPE stays ignored, as
/// Rust sets it, so `repro serve` survives clients that hang up.
macro_rules! write_unless_closed {
    ($stream:expr, $closed:expr, $($arg:tt)*) => {{
        use std::io::Write as _;
        if !$closed.load(std::sync::atomic::Ordering::Relaxed)
            && write!($stream, $($arg)*).is_err()
        {
            $closed.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }};
}

/// `print!` through [`write_unless_closed!`].
macro_rules! print {
    ($($arg:tt)*) => {
        write_unless_closed!(std::io::stdout(), $crate::STDOUT_CLOSED, $($arg)*)
    };
}

/// `eprint!` through [`write_unless_closed!`].
macro_rules! eprint {
    ($($arg:tt)*) => {
        write_unless_closed!(std::io::stderr(), $crate::STDERR_CLOSED, $($arg)*)
    };
}

/// `println!` on top of the closed-stdout-tolerant [`print!`].
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

/// `eprintln!` on top of the closed-stderr-tolerant [`eprint!`].
macro_rules! eprintln {
    () => {
        eprint!("\n")
    };
    ($($arg:tt)*) => {
        eprint!("{}\n", format_args!($($arg)*))
    };
}

// The helper modules live under `repro/` so cargo's bin auto-discovery
// does not mistake them for standalone binaries.
#[path = "repro/cli.rs"]
mod cli;
#[path = "repro/collect.rs"]
mod collect;
#[path = "repro/signals.rs"]
mod signals;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use analysis::{
    all, find, Artifact, Context, Experiment, ExperimentError, ShardFold, ShardView, Table,
};
use cli::{Cmd, Parsed};

/// Registry experiment plus optional injected failure or slowdown, so
/// the failure path (`REPRO_FAIL=F9,T3 repro all`) and the sentinel's
/// regression path (`REPRO_SLOWDOWN_MS=250 repro all`) are testable end
/// to end without a genuinely broken or slow pipeline.
struct Wrapped {
    inner: &'static dyn Experiment,
    fail: bool,
    slowdown: Option<std::time::Duration>,
}

impl Experiment for Wrapped {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn kind(&self) -> analysis::Kind {
        self.inner.kind()
    }
    fn title(&self) -> &str {
        self.inner.title()
    }
    fn cost(&self) -> analysis::Cost {
        self.inner.cost()
    }
    fn cacheable(&self) -> bool {
        // A cached success must never mask an injected failure, and a
        // cache replay must never hide an injected slowdown from the
        // sentinel's wall-time metrics.
        !self.fail && self.slowdown.is_none() && self.inner.cacheable()
    }
    fn run(&self, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        if self.fail {
            return Err(ExperimentError::new("injected failure (REPRO_FAIL)"));
        }
        if let Some(pause) = self.slowdown {
            std::thread::sleep(pause);
        }
        self.inner.run(ctx)
    }
    fn fold(&self) -> Option<Box<dyn ShardFold>> {
        // An injected failure never joins the walk: `run` reports it.
        if self.fail {
            return None;
        }
        let inner = self.inner.fold()?;
        Some(match self.slowdown {
            Some(pause) => Box::new(SlowFold { inner, pause }),
            None => inner,
        })
    }
}

/// A walker's fold with the injected slowdown in its finish, so the
/// pause lands in the experiment's own wall time.
struct SlowFold {
    inner: Box<dyn ShardFold>,
    pause: std::time::Duration,
}

impl ShardFold for SlowFold {
    fn step(&mut self, shard: ShardView<'_>) -> Result<(), ExperimentError> {
        self.inner.step(shard)
    }
    fn finish(self: Box<Self>, ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
        std::thread::sleep(self.pause);
        self.inner.finish(ctx)
    }
}

fn injected_failures() -> std::collections::HashSet<String> {
    std::env::var("REPRO_FAIL")
        .map(|v| {
            v.split(',')
                .map(|id| id.trim().to_ascii_uppercase())
                .filter(|id| !id.is_empty())
                .collect()
        })
        .unwrap_or_default()
}

fn audit_config(args: &Parsed) -> sentinel::AuditConfig {
    sentinel::AuditConfig {
        min_history: args.value("--min-history"),
        two_sided: args.on("--two-sided"),
        ..Default::default()
    }
}

/// Appends this run to the sentinel history. Recording is best-effort
/// observability: a failure warns and never fails the run that produced
/// perfectly good artifacts.
fn sentinel_record_run(ids: &[String], dir: &Path, manifest: &telemetry::RunManifest) {
    let workload = if ids.len() == all().len() {
        "all".to_string()
    } else {
        sentinel::record::workload_fingerprint(Some(ids))
    };
    match sentinel::RunRecord::from_manifest(manifest, "repro-all", &workload)
        .and_then(|rec| sentinel::HistoryStore::new(dir).append(&rec))
    {
        Ok(seq) => eprintln!("sentinel: recorded run #{seq} in {}", dir.display()),
        Err(err) => eprintln!("sentinel: could not record run: {err}"),
    }
}

/// Audits the record at `idx` against everything before it and prints
/// the report. Returns whether the record flagged a regression.
fn audit_one(
    loaded: &sentinel::LoadedHistory,
    idx: usize,
    config: &sentinel::AuditConfig,
) -> Result<bool, sentinel::SentinelError> {
    let (seq, latest) = &loaded.records[idx];
    let priors: Vec<sentinel::RunRecord> = loaded.records[..idx]
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    let report = sentinel::audit(&priors, latest, config)?;
    print!("run #{seq}: {}", sentinel::report::render_audit(&report));
    Ok(report.regression())
}

fn run_sentinel(cmd: &str, args: &Parsed) -> ExitCode {
    let dir: PathBuf = args.value("--sentinel-dir");
    let store = sentinel::HistoryStore::new(&dir);
    let fail = |err: &dyn std::fmt::Display| {
        eprintln!("sentinel {cmd} failed in {}: {err}", dir.display());
        ExitCode::FAILURE
    };
    match cmd {
        "record" => {
            let from: PathBuf = args.value("--from");
            let path = if from.is_dir() {
                from.join("manifest.json")
            } else {
                from
            };
            let manifest = match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    telemetry::RunManifest::from_json(&text).map_err(|e| e.to_string())
                }) {
                Ok(m) => m,
                Err(err) => {
                    eprintln!("sentinel record: cannot read {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            // A bench suite's manifest is filed as a bench run; audits
            // never compare it with `repro all` runs.
            let kind = if manifest.tool == "bench" {
                "bench"
            } else {
                "repro-all"
            };
            let record = match sentinel::RunRecord::from_manifest(&manifest, kind, "all") {
                Ok(rec) => rec,
                Err(err) => return fail(&err),
            };
            match store.append(&record) {
                Ok(seq) => {
                    println!("sentinel: recorded run #{seq} in {}", dir.display());
                    ExitCode::SUCCESS
                }
                Err(err) => fail(&err),
            }
        }
        "audit" => {
            let loaded = match store.load() {
                Ok(l) => l,
                Err(err) => return fail(&err),
            };
            if loaded.corrupt > 0 {
                eprintln!(
                    "sentinel: skipped {} corrupt record file(s)",
                    loaded.corrupt
                );
            }
            if loaded.records.is_empty() {
                println!("sentinel audit: history is empty; nothing to audit");
                return ExitCode::SUCCESS;
            }
            match audit_one(&loaded, loaded.records.len() - 1, &audit_config(args)) {
                Ok(true) => ExitCode::FAILURE,
                Ok(false) => ExitCode::SUCCESS,
                Err(err) => fail(&err),
            }
        }
        "watch" => {
            let config = audit_config(args);
            let poll = std::time::Duration::from_millis(args.value("--poll-ms"));
            let mut last_seq = match store.load() {
                Ok(l) => l.records.last().map_or(0, |(seq, _)| *seq),
                Err(err) => return fail(&err),
            };
            eprintln!(
                "sentinel watch: {} (from run #{last_seq}, every {}ms)",
                dir.display(),
                poll.as_millis()
            );
            let polls = args.get("--iterations").unwrap_or(u64::MAX);
            let mut regressed = false;
            // `HistoryStore::load` treats a missing directory as an empty
            // history (so `watch` can start before the first record), but
            // a directory that *was* there and vanished mid-watch means
            // the history is gone — polling forever would just busy-loop
            // on ENOENT. Track whether we ever saw it.
            let mut dir_seen = dir.is_dir();
            for _ in 0..polls {
                std::thread::sleep(poll);
                let dir_exists = dir.is_dir();
                if dir_seen && !dir_exists {
                    eprintln!(
                        "sentinel watch: history directory {} disappeared",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
                dir_seen |= dir_exists;
                let loaded = match store.load() {
                    Ok(l) => l,
                    Err(err) => return fail(&err),
                };
                for idx in 0..loaded.records.len() {
                    if loaded.records[idx].0 <= last_seq {
                        continue;
                    }
                    last_seq = loaded.records[idx].0;
                    match audit_one(&loaded, idx, &config) {
                        Ok(flag) => regressed |= flag,
                        Err(err) => return fail(&err),
                    }
                }
            }
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "report" => match store.load() {
            Ok(loaded) => {
                let cusum = varstats::online::OnlineCusumConfig {
                    warm_up: args.value::<usize>("--min-history").max(2),
                    ..Default::default()
                };
                print!("{}", sentinel::report::render_history(&loaded, None, cusum));
                ExitCode::SUCCESS
            }
            Err(err) => fail(&err),
        },
        _ => match store.clear() {
            Ok(removed) => {
                println!(
                    "sentinel {}: removed {removed} records",
                    store.dir().display()
                );
                ExitCode::SUCCESS
            }
            Err(err) => fail(&err),
        },
    }
}

/// Artifact writer under the fault model: every write is atomic
/// ([`durable::publish`]), and with `--chaos` armed the site
/// `artifact.write.{name}` may raise injected I/O errors that retry
/// under the policy like every other fault site.
struct ArtifactWriter {
    faults: Option<testbed::FaultPlan>,
    policy: testbed::FaultPolicy,
    tally: testbed::FaultTally,
}

impl ArtifactWriter {
    fn new(faults: Option<testbed::FaultPlan>, policy: testbed::FaultPolicy) -> Self {
        Self {
            faults,
            policy,
            tally: testbed::FaultTally::default(),
        }
    }

    fn write(&self, dir: &Path, name: &str, payload: &str) -> Result<(), ExitCode> {
        let path = dir.join(name);
        let site = format!("artifact.write.{name}");
        let attempt = |attempt| {
            if self.faults.is_some_and(|p| p.io_error(&site, attempt)) {
                self.tally.inject();
                return Err(std::io::Error::other("injected I/O fault (chaos)"));
            }
            durable::publish_bytes(&path, payload)
        };
        match self.policy.retry(0, &self.tally, attempt, |_| true) {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                Ok(())
            }
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                Err(ExitCode::FAILURE)
            }
        }
    }
}

fn timing_table(manifest: &telemetry::RunManifest) -> Table {
    let mut table = Table::new(
        "timing",
        "per-experiment wall time",
        &["experiment", "wall s", "artifacts"],
    );
    for t in &manifest.experiments {
        table.push_row(vec![
            t.id.clone(),
            format!("{:.3}", t.wall_secs),
            t.artifacts.to_string(),
        ]);
    }
    table.push_row(vec![
        "TOTAL".to_string(),
        format!("{:.3}", manifest.total_wall_secs),
        manifest.artifact_count.to_string(),
    ]);
    table
}

fn metrics_table(snapshot: &telemetry::metrics::MetricsSnapshot) -> Table {
    let mut table = Table::new(
        "metrics",
        "metrics summary (counters, gauges, histograms)",
        &["metric", "kind", "count", "value / p50", "p95", "max"],
    );
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.6}"));
    for c in &snapshot.counters {
        table.push_row(vec![
            c.name.clone(),
            "counter".to_string(),
            "-".to_string(),
            c.value.to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    for g in &snapshot.gauges {
        table.push_row(vec![
            g.name.clone(),
            "gauge".to_string(),
            "-".to_string(),
            format!("{}", g.value),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    for h in &snapshot.histograms {
        table.push_row(vec![
            h.name.clone(),
            "histogram".to_string(),
            h.count.to_string(),
            opt(h.p50),
            opt(h.p95),
            opt(h.max),
        ]);
    }
    table
}

fn span_table(report: &[telemetry::SpanStats]) -> Table {
    let mut table = Table::new(
        "spans",
        "span latency summary (median + non-parametric 95% CI + CoV)",
        &["span", "count", "total s", "median s", "95% CI s", "CoV"],
    );
    for s in report {
        table.push_row(vec![
            s.name.clone(),
            s.count.to_string(),
            format!("{:.3}", s.total_secs),
            format!("{:.6}", s.latency.median_secs),
            s.latency
                .ci_secs
                .map_or_else(|| "-".to_string(), |(lo, hi)| format!("[{lo:.6}, {hi:.6}]")),
            s.latency
                .cov
                .map_or_else(|| "-".to_string(), |cov| format!("{cov:.3}")),
        ]);
    }
    table
}

/// `repro cache stats|clear`.
fn run_cache(cmd: &str, dir: &Path) -> ExitCode {
    let cache = analysis::ArtifactCache::new(dir);
    let (verb, done) = match cmd {
        "stats" => (
            "read",
            cache
                .stats()
                .map(|s| format!("{} entries, {} bytes", s.entries, s.bytes)),
        ),
        _ => (
            "clear",
            cache.clear().map(|n| format!("removed {n} entries")),
        ),
    };
    match done {
        Ok(summary) => {
            println!("cache {}: {summary}", cache.dir().display());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("cannot {verb} cache {}: {err}", cache.dir().display());
            ExitCode::FAILURE
        }
    }
}

/// `repro serve`: runs the daemon until SIGTERM/SIGINT.
fn run_serve(args: &Parsed, cache_dir: PathBuf) -> ExitCode {
    // The daemon's telemetry (request counters, latency histograms,
    // cache hit/miss tallies) is what /metrics serves; it is always
    // on for the lifetime of the process.
    telemetry::set_enabled(true);
    let faults = args.chaos().map(testbed::FaultPlan::new);
    if let Some(plan) = &faults {
        eprintln!("chaos armed (seed {})", plan.seed());
    }
    let service = Arc::new(serve::ArtifactService::new(serve::ServeOptions {
        jobs: args.get("--jobs"),
        faults,
        ..serve::ServeOptions::new(cache_dir)
    }));
    let defaults = serve::ServerConfig::default();
    let config = serve::ServerConfig {
        workers: args.get("--workers"),
        queue_cap: args.value("--queue-cap"),
        read_timeout: defaults.read_timeout,
    };
    let addr: String = args.value("--addr");
    let server = match serve::Server::bind_with(addr.as_str(), service, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot bind {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Install before accepting so no delivery window is unguarded;
    // the main thread parks on the shutdown flag.
    signals::install_shutdown_handler();
    println!("serving on http://{}", server.addr());
    // Harnesses parse the line above to learn the ephemeral port;
    // stdout is block-buffered when piped, so push it out now.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    while !signals::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Graceful drain: stop accepting, let in-flight requests
    // complete, then flush the run's telemetry to stderr — the same
    // counters /metrics was serving — and exit cleanly.
    eprintln!("shutdown: signal received, draining in-flight requests");
    server.shutdown();
    let snapshot = telemetry::metrics::snapshot();
    eprintln!("{}", metrics_table(&snapshot).render());
    eprintln!("shutdown: drained, exiting");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv).and_then(|a| a.with_env(|var| std::env::var(var).ok())) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };
    let cache_dir: PathBuf = args.value("--cache-dir");
    let ids = match &args.cmd {
        Cmd::Help => {
            println!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Cmd::Cache(cmd) => return run_cache(cmd, &cache_dir),
        Cmd::Sentinel(cmd) => return run_sentinel(cmd, &args),
        Cmd::JournalFsck(dir) => return collect::run_fsck(dir),
        Cmd::CollectWorker => return collect::run_collect_worker(&args),
        Cmd::Collect => return collect::run_collect(&args),
        Cmd::Serve => return run_serve(&args, cache_dir),
        Cmd::List => {
            println!("{:<4}  {:<6}  {:<6}  title", "id", "kind", "cost");
            for e in all() {
                println!(
                    "{:<4}  {:<6}  {:<6}  {}",
                    e.id(),
                    e.kind().label(),
                    e.cost().label(),
                    e.title()
                );
            }
            return ExitCode::SUCCESS;
        }
        Cmd::Run(ids) => ids,
    };
    let (scale, seed): (_, u64) = (args.scale(), args.value("--seed"));
    let out: Option<PathBuf> = args.get("--out");
    let resume: Option<PathBuf> = args.get("--resume");
    let jobs = args.get("--jobs");
    let trace_chrome = args.on("--trace-chrome");
    let trace = args.on("--trace") || trace_chrome;
    // Resolve ids before paying for the campaign.
    let fail_ids = injected_failures();
    let mut wrapped = Vec::new();
    for id in ids {
        match find(id) {
            Some(e) => wrapped.push(Wrapped {
                inner: e,
                fail: fail_ids.contains(&e.id().to_ascii_uppercase()),
                slowdown: args.slowdown,
            }),
            None => {
                eprintln!("unknown experiment id `{id}` (see `repro list`)");
                return ExitCode::FAILURE;
            }
        }
    }
    let experiments: Vec<&dyn Experiment> = wrapped.iter().map(|w| w as &dyn Experiment).collect();
    let self_measuring = trace || args.on("--metrics");
    if self_measuring {
        telemetry::set_enabled(true);
    }
    let mut manifest =
        telemetry::RunManifest::new("repro", env!("CARGO_PKG_VERSION"), seed, scale.label());
    // The workspace shares one version across crates.
    for name in [
        "varstats",
        "confirm",
        "testbed",
        "workloads",
        "dataset",
        "analysis",
        "telemetry",
    ] {
        manifest.push_crate(name, env!("CARGO_PKG_VERSION"));
    }

    let faults = args.chaos().map(testbed::FaultPlan::new);
    let policy = testbed::FaultPolicy::default();
    if let Some(plan) = &faults {
        eprintln!("chaos armed (seed {})", plan.seed());
    }
    let journal = match &resume {
        Some(dir) => match dataset::ShardJournal::open(dir, &scale.campaign(seed)) {
            Ok(j) => Some(j),
            Err(err) => {
                eprintln!("cannot open journal {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let run_started = Instant::now();
    eprintln!("building campaign context (scale {scale:?}, seed {seed}) ...");
    let collect_options = dataset::CollectOptions {
        jobs,
        journal: journal.as_ref(),
        faults,
        policy,
    };
    let built = Context::collect(scale, seed, &collect_options);
    let (ctx, campaign_report) = match built {
        Ok(built) => built,
        Err(err) => {
            eprintln!("campaign collection failed: {err}");
            if let (dataset::CampaignError::WorkerKilled { .. }, Some(dir)) = (&err, &resume) {
                eprintln!(
                    "completed shards are journaled; rerun with --resume {} to continue",
                    dir.display()
                );
            }
            return ExitCode::FAILURE;
        }
    };
    let ctx = Arc::new(ctx);
    if journal.is_some() {
        eprintln!(
            "journal: {} shards replayed, {} machines collected",
            campaign_report.replayed, campaign_report.collected
        );
        eprintln!("streaming: experiments replay the journal one shard at a time");
    }
    manifest.records = ctx.records_len() as u64;
    manifest.machines = ctx.cluster.machines().len() as u64;
    eprintln!(
        "campaign: {} machines, {} records ({:.2}s)",
        manifest.machines,
        manifest.records,
        run_started.elapsed().as_secs_f64()
    );
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // The engine merges results back in input order; progress lines go to
    // stderr in completion order and are not under the determinism
    // contract.
    let cache = (!args.on("--no-cache")).then(|| analysis::ArtifactCache::new(&cache_dir));
    let total = experiments.len();
    let done = AtomicUsize::new(0);
    let engine_options = analysis::EngineOptions {
        jobs,
        cache: cache.as_ref(),
        faults,
        policy,
    };
    let (report, fault_stats) =
        analysis::run_experiments_opts(&ctx, &experiments, &engine_options, &|run| {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            let status = if run.outcome.is_ok() { "ok" } else { "FAILED" };
            let cached = if run.cached { " (cached)" } else { "" };
            eprintln!(
                "[{finished}/{total}] {} {status}{cached} ({:.2}s)",
                run.id, run.wall_secs
            );
        });
    let cache_section = telemetry::CacheSection {
        enabled: cache.is_some(),
        hits: cache.as_ref().map_or(0, |c| c.hits()),
        invalidated: cache.as_ref().map_or(0, |c| c.invalidated()),
        misses: cache.as_ref().map_or(0, |c| c.misses()),
        stored: cache.as_ref().map_or(0, |c| c.stored()),
    };
    manifest.cache = Some(cache_section);
    eprintln!("{}", cache_section.summary());

    let writer = ArtifactWriter::new(faults, policy);
    let mut failures: Vec<(&str, &ExperimentError)> = Vec::new();
    for run in &report {
        manifest.push_experiment(&run.id, run.wall_secs, run.artifact_count());
        let artifacts = match &run.outcome {
            Ok(artifacts) => artifacts,
            Err(err) => {
                failures.push((&run.id, err));
                continue;
            }
        };
        for artifact in artifacts {
            println!("{}", artifact.render());
            if let Some(dir) = &out {
                let (name, payload) = if args.on("--json") {
                    (
                        format!("{}.json", artifact.id()),
                        artifact.to_json().pretty(),
                    )
                } else {
                    (format!("{}.csv", artifact.id()), artifact.to_csv())
                };
                if let Err(code) = writer.write(dir, &name, &payload) {
                    return code;
                }
            }
        }
    }
    manifest.total_wall_secs = run_started.elapsed().as_secs_f64();

    if self_measuring {
        telemetry::set_enabled(false);
        println!("{}", timing_table(&manifest).render());
    }
    if trace {
        let trace = telemetry::trace::drain();
        println!(
            "{}",
            span_table(&telemetry::span_report(&trace, 0.95)).render()
        );
        if let Some(dir) = &out {
            let payload = trace.to_json().pretty();
            if let Err(code) = writer.write(dir, "trace.json", &payload) {
                return code;
            }
            if trace_chrome {
                let payload = telemetry::chrome::to_chrome_trace(&trace).pretty();
                if let Err(code) = writer.write(dir, "trace.chrome.json", &payload) {
                    return code;
                }
            }
        }
    }
    if args.on("--metrics") {
        let snapshot = telemetry::metrics::snapshot();
        println!("{}", metrics_table(&snapshot).render());
        if let Some(dir) = &out {
            let payload = snapshot.to_json().pretty();
            if let Err(code) = writer.write(dir, "metrics.json", &payload) {
                return code;
            }
        }
    }
    // Fault accounting spans every layer that can inject or retry:
    // campaign collection (up front with a journal, in the walk's
    // regeneration without one, in the journal writes of a streamed
    // walk's heals), the engine, and artifact writes. The manifest write
    // below is the one site whose retries land after the section is
    // sealed; its faults still retry, they are just not counted.
    let produced = ctx.production_report().unwrap_or_default();
    let fault_section = telemetry::FaultSection {
        enabled: faults.is_some(),
        injected: campaign_report.injected
            + produced.injected
            + fault_stats.injected
            + writer.tally.injected(),
        quarantined: fault_stats.quarantined,
        retried: campaign_report.retried
            + produced.retried
            + fault_stats.retried
            + writer.tally.retried(),
    };
    manifest.faults = Some(fault_section);
    eprintln!("{}", fault_section.summary());
    // The streaming gauges are filled in by the shard reads the
    // experiments just performed; the manifest records the observed
    // memory bound (peak live samples ~= the largest shard, not the
    // fleet).
    if let Some(stats) = ctx.stream_stats() {
        let stream_section = telemetry::StreamSection {
            enabled: true,
            peak_live_samples: stats.peak_live_samples(),
            peak_shards_resident: stats.peak_shards_resident(),
            shards_streamed: stats.shards_streamed(),
        };
        manifest.stream = Some(stream_section);
        eprintln!("{}", stream_section.summary());
        // Its own line: the `stream:` line's format is matched to its end.
        if stats.shards_healed() > 0 {
            eprintln!(
                "journal: {} shards healed in the walk",
                stats.shards_healed()
            );
        }
    }
    if let Some(dir) = &out {
        let payload = manifest.to_json().pretty();
        if let Err(code) = writer.write(dir, "manifest.json", &payload) {
            return code;
        }
    }
    if !failures.is_empty() {
        for (id, err) in &failures {
            eprintln!("experiment {id} failed: {err}");
        }
        eprintln!(
            "{} of {total} experiments failed; artifacts for the rest were produced",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    // Only fully successful runs join the baseline: a run with failed
    // experiments has misleading wall times.
    if !args.on("--no-sentinel") {
        sentinel_record_run(ids, &args.value::<PathBuf>("--sentinel-dir"), &manifest);
    }
    ExitCode::SUCCESS
}
