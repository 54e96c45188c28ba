//! Integration tests for `repro serve` through the real binary: spawn
//! the daemon on an ephemeral port, drive a fixed request session over
//! TCP, and pin the responses against golden fixtures — the registry
//! listing byte-for-byte, the `/metrics` text format with numeric
//! values normalized. Then SIGKILL the daemon and prove a restart over
//! the same cache directory serves identical bytes, from the cache.
//!
//! Regenerate fixtures after an intentional format change with:
//! `REGEN_FIXTURES=1 cargo test -p serve --test serve_cli`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn temp_root(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-serve-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture; with `REGEN_FIXTURES=1`
/// rewrites the fixture instead (for intentional format changes).
fn assert_matches_fixture(actual: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var("REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "response does not match fixture {name}; if the format change is \
         intentional, regenerate with REGEN_FIXTURES=1"
    );
}

/// A running daemon child plus the address it printed.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `repro serve` on an ephemeral port and parses the
    /// announced address from its stdout.
    fn spawn(cache_dir: &Path) -> Daemon {
        Self::spawn_with(cache_dir, &[], Stdio::null())
    }

    /// Like [`Daemon::spawn`], with extra CLI flags appended and stderr
    /// going to `stderr`.
    fn spawn_with(cache_dir: &Path, extra: &[&str], stderr: Stdio) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .args(["--cache-dir", cache_dir.to_str().unwrap()])
            .args(extra)
            .env_remove("REPRO_CHAOS")
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon announces its address before exiting")
                .expect("stdout readable");
            if let Some(rest) = line.strip_prefix("serving on http://") {
                break rest.parse().expect("announced address parses");
            }
        };
        Daemon { child, addr }
    }

    fn get(&self, path: &str, extra_header: Option<&str>) -> (u16, Vec<String>, String) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        let extra = extra_header.map_or(String::new(), |h| format!("{h}\r\n"));
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\n{extra}Connection: close\r\n\r\n").as_bytes(),
            )
            .expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("receive");
        let raw = String::from_utf8(raw).expect("utf-8 response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let headers: Vec<String> = lines.map(str::to_string).collect();
        // HTTP/1.1 artifact responses stream with chunked framing;
        // decode back to the payload so assertions see the real bytes.
        let body = if header(&headers, "Transfer-Encoding").as_deref() == Some("chunked") {
            let payload =
                serve::http::decode_chunked(body.as_bytes()).expect("valid chunked framing");
            String::from_utf8(payload).expect("utf-8 payload")
        } else {
            body.to_string()
        };
        (status, headers, body)
    }

    /// Kills the daemon now ([`Drop`]).
    fn kill(self) {
        drop(self);
    }
}

/// A daemon dies with its handle: SIGKILLed (no notice, no cleanup) and
/// reaped, so a test that panics leaves no `repro serve` running.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn header(headers: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}: ");
    headers
        .iter()
        .find_map(|l| l.strip_prefix(&prefix).map(str::to_string))
}

/// Replaces every numeric token with `N` so the fixture pins the metric
/// *names and shape*, not wall-clock-dependent values.
fn normalize_metrics(metrics: &str) -> String {
    metrics
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| if tok.parse::<f64>().is_ok() { "N" } else { tok })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn daemon_serves_the_golden_session_and_survives_sigkill() {
    let root = temp_root("golden");
    let cache_dir = root.join("cache");
    let daemon = Daemon::spawn(&cache_dir);

    // A fixed request session; its telemetry is what the /metrics
    // fixture pins, so order matters.
    let (status, _, body) = daemon.get("/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _, listing) = daemon.get("/v1/experiments", None);
    assert_eq!(status, 200);
    assert_matches_fixture(&listing, "golden_experiments.txt");

    let (status, headers, cold_body) = daemon.get("/v1/artifacts/T1?seed=7&scale=quick", None);
    assert_eq!(status, 200);
    assert!(!cold_body.is_empty());
    let etag = header(&headers, "ETag").expect("artifact responses carry an ETag");
    assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");

    let (status, headers, not_modified) = daemon.get(
        "/v1/artifacts/T1?seed=7&scale=quick",
        Some(&format!("If-None-Match: {etag}")),
    );
    assert_eq!(status, 304);
    assert!(not_modified.is_empty());
    assert_eq!(header(&headers, "ETag").as_deref(), Some(etag.as_str()));

    let (status, _, metrics) = daemon.get("/metrics", None);
    assert_eq!(status, 200);
    assert_matches_fixture(&normalize_metrics(&metrics), "golden_metrics.txt");
    // Beyond the shape, the session's exact counts are deterministic.
    assert!(metrics.contains("counter cache.miss 1\n"), "{metrics}");
    assert!(metrics.contains("counter cache.stored 1\n"), "{metrics}");
    assert!(metrics.contains("counter serve.singleflight.lead 1\n"));
    assert!(metrics.contains("counter serve.status.304 1\n"));

    // SIGKILL mid-flight leaves only the cache directory behind; a new
    // daemon over it must serve the very same bytes, without computing.
    daemon.kill();
    let revived = Daemon::spawn(&cache_dir);
    let (status, headers, hot_body) = revived.get("/v1/artifacts/T1?seed=7&scale=quick", None);
    assert_eq!(status, 200);
    assert_eq!(hot_body, cold_body, "restart must not change a single byte");
    assert_eq!(header(&headers, "ETag").as_deref(), Some(etag.as_str()));
    let (_, _, metrics) = revived.get("/metrics", None);
    assert!(
        metrics.contains("counter cache.hit 1\n"),
        "the revived daemon served from the cache:\n{metrics}"
    );
    assert!(!metrics.contains("counter cache.miss"), "{metrics}");
    revived.kill();

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn workers_flag_sizes_the_pool_and_queue_cap_is_reported() {
    let root = temp_root("workers");
    let daemon = Daemon::spawn_with(
        &root.join("cache"),
        &["--workers", "3", "--queue-cap", "7"],
        Stdio::null(),
    );
    let (status, _, metrics) = daemon.get("/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("gauge serve.workers 3\n"),
        "--workers must size the pool:\n{metrics}"
    );
    assert!(
        metrics.contains("gauge serve.queue.cap 7\n"),
        "--queue-cap must bound the accept queue:\n{metrics}"
    );
    daemon.kill();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn gzip_is_negotiated_end_to_end_over_the_real_binary() {
    let root = temp_root("gzip");
    let daemon = Daemon::spawn(&root.join("cache"));
    let path = "/v1/artifacts/T1?seed=7&scale=quick";
    let (status, _, identity) = daemon.get(path, None);
    assert_eq!(status, 200);
    // Raw fetch (no chunked auto-decode applies to the encoded bytes
    // either way — gzip output is binary, so fetch manually).
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nAccept-Encoding: gzip\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("receive");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    assert!(head.contains("Content-Encoding: gzip"), "{head}");
    assert!(head.contains("Vary: Accept-Encoding"), "{head}");
    let framed = &raw[head_end + 4..];
    let payload = if head.contains("Transfer-Encoding: chunked") {
        serve::http::decode_chunked(framed).expect("valid chunked framing")
    } else {
        framed.to_vec()
    };
    let decoded = serve::gzip::decode(&payload).expect("valid gzip stream");
    assert_eq!(
        String::from_utf8(decoded).expect("utf-8 payload"),
        identity,
        "gzip and identity representations must decode to the same bytes"
    );
    daemon.kill();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let root = temp_root("sigterm");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .args(["--cache-dir", root.join("cache").to_str().unwrap()])
        .env_remove("REPRO_CHAOS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("daemon announces its address before exiting")
            .expect("stdout readable");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.parse().expect("announced address parses");
        }
    };
    // Prove the daemon serves before the signal lands.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("receive");
    assert!(String::from_utf8_lossy(&raw).contains("200 OK"));

    // SIGTERM must drain and exit 0 — unlike the SIGKILL path above,
    // this is the orderly operator shutdown.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let mut stderr_text = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr_text)
        .expect("stderr readable");
    let status = child.wait().expect("daemon exits");
    assert!(
        status.success(),
        "graceful shutdown must exit 0, got {status:?}\nstderr:\n{stderr_text}"
    );
    assert!(
        stderr_text.contains("shutdown: signal received, draining in-flight requests"),
        "{stderr_text}"
    );
    assert!(
        stderr_text.contains("shutdown: drained, exiting"),
        "{stderr_text}"
    );
    // The drain flushed the run's telemetry: the request we made above
    // is visible in the flushed counters.
    assert!(stderr_text.contains("serve.request"), "{stderr_text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_rejects_bad_requests_without_dying() {
    let root = temp_root("badreq");
    let daemon = Daemon::spawn(&root.join("cache"));
    let (status, _, body) = daemon.get("/v1/artifacts/ZZ?seed=1", None);
    assert_eq!(status, 404);
    assert!(body.contains("unknown experiment id"), "{body}");
    let (status, _, _) = daemon.get("/v1/artifacts/T1?scale=cosmic", None);
    assert_eq!(status, 400);
    let (status, _, _) = daemon.get("/nope", None);
    assert_eq!(status, 404);
    // Still alive and serving after every rejection.
    let (status, _, body) = daemon.get("/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.kill();
    let _ = std::fs::remove_dir_all(&root);
}

/// The value of `counter NAME` in a `/metrics` body; a counter that was
/// never touched is not listed, which reads as 0.
fn counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.parse().expect("counter value"))
}

#[test]
fn unknown_format_is_refused_before_anything_is_computed() {
    let root = temp_root("badformat");
    let cache_dir = root.join("cache");
    let daemon = Daemon::spawn(&cache_dir);
    let (status, _, body) = daemon.get("/v1/artifacts/F9?seed=3&scale=quick&format=yaml", None);
    assert_eq!(status, 400);
    assert!(body.contains("unknown format `yaml`"), "{body}");
    let (_, _, metrics) = daemon.get("/metrics", None);
    assert_eq!(counter(&metrics, "cache.miss"), 0, "{metrics}");
    assert_eq!(counter(&metrics, "cache.stored"), 0, "{metrics}");
    let entries = std::fs::read_dir(&cache_dir).map_or(0, |dir| {
        dir.filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "entry"))
        })
        .count()
    });
    assert_eq!(entries, 0, "a refused request left a cache entry");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn closed_stderr_survives_a_failed_cache_store() {
    // A store the daemon could not make is reported on stderr; with the
    // reader gone the report is dropped and the computed artifact is
    // still served. A cache directory under a regular file makes every
    // store fail.
    let root = temp_root("lost-store");
    std::fs::write(root.join("file"), "").unwrap();
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let daemon = Daemon::spawn_with(&root.join("file/cache"), &[], writer.into());
    let (status, _, body) = daemon.get("/v1/artifacts/T1?scale=quick&seed=7", None);
    assert_eq!(status, 200, "{body}");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&root);
}
