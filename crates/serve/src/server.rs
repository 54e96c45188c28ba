//! The TCP front end: an accept thread feeding a configurable worker
//! pool over a bounded connection queue, keep-alive connections, load
//! shedding, and cooperative shutdown.
//!
//! Workers are plain threads over a shared [`ArtifactService`]; there is
//! no async runtime (the container builds offline, and a daemon serving
//! a reproducibility cache does not need one). Backpressure is explicit:
//! accepted connections wait in a queue bounded by
//! [`ServerConfig::queue_cap`], and when it is full the accept loop
//! sheds the connection with a fast `503 Retry-After` instead of letting
//! latency grow without bound — the daemon degrades loudly
//! (`serve.shed`), never by hanging. Shutdown flips a flag and nudges
//! the accept loop with a self-connection so tests can stop a server
//! deterministically; the daemon simply never calls it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{ParseError, Request, Response};
use crate::service::{ArtifactService, Reply};

/// Capacity of a connection's response buffer, in bytes: every artifact
/// body the experiments render at either scale (the largest, F13's, is
/// ~20 KB) leaves in one flush with its head.
const RESPONSE_BUFFER: usize = 32 * 1024;

/// Tuning knobs for [`Server::bind_with`]. `Default` matches the
/// daemon's defaults: one worker per core, a 128-connection queue, and
/// a 30-second read timeout.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handling worker threads; `None` = available cores.
    pub workers: Option<usize>,
    /// Accepted connections allowed to wait for a worker before the
    /// accept loop starts shedding with `503`.
    pub queue_cap: usize,
    /// How long a connection may sit idle (or stall mid-request) before
    /// the worker answers `408`/drops it.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: None,
            queue_cap: 128,
            read_timeout: Duration::from_secs(30),
        }
    }
}

impl ServerConfig {
    /// The effective worker count (resolves `None` to the machine's
    /// available parallelism, and never goes below one thread).
    fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .max(1)
    }
}

/// The bounded hand-off between the accept loop and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    cap: usize,
}

struct QueueState {
    pending: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a connection, or gives it back when the queue is full —
    /// the caller sheds it. Telemetry: `serve.queue.depth` tracks the
    /// live depth, `serve.queue.peak` its high-water mark.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("connection queue lock");
        if state.closed || state.pending.len() >= self.cap {
            return Err(stream);
        }
        state.pending.push_back(stream);
        let depth = state.pending.len() as f64;
        telemetry::metrics::gauge("serve.queue.depth").set(depth);
        telemetry::metrics::gauge("serve.queue.peak").set_max(depth);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` means the queue closed
    /// and drained, so the worker retires.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("connection queue lock");
        loop {
            if let Some(stream) = state.pending.pop_front() {
                telemetry::metrics::gauge("serve.queue.depth").set(state.pending.len() as f64);
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("connection queue lock");
        }
    }

    /// Closes the queue and wakes every waiting worker.
    fn close(&self) {
        let mut state = self.state.lock().expect("connection queue lock");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }
}

/// A running server: listener address, worker pool, shutdown switch.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` with the default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<ArtifactService>) -> std::io::Result<Self> {
        Self::bind_with(addr, service, ServerConfig::default())
    }

    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `service` in background threads under `config`.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<ArtifactService>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let worker_count = config.worker_count();
        telemetry::metrics::gauge("serve.workers").set(worker_count as f64);
        telemetry::metrics::gauge("serve.queue.cap").set(config.queue_cap.max(1) as f64);

        let queue = Arc::new(ConnQueue::new(config.queue_cap));
        let read_timeout = config.read_timeout;
        let workers = (0..worker_count)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            handle_connection(stream, &service, read_timeout);
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        if let Err(stream) = queue.push(stream) {
                            shed(stream);
                        }
                    }
                    // Closing the queue retires the worker pool once the
                    // backlog drains.
                    queue.close();
                })
                .expect("spawn serve accept loop")
        };

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// In-flight requests complete; idle keep-alive connections are cut
    /// at their next read timeout.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `incoming()`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropped without `wait`/`shutdown` (e.g. a panicking test):
        // stop accepting so the threads can retire, but don't block.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Sheds a connection the queue has no room for: a fast `503` with
/// `Retry-After`, written from the accept thread with a short write
/// timeout so a slow receiver cannot stall accepting. The tiny response
/// fits any socket send buffer, so in practice the write never blocks.
fn shed(stream: TcpStream) {
    telemetry::metrics::counter("serve.shed").inc();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::with_capacity(RESPONSE_BUFFER, stream);
    let _ = Response::text(503, "server is at capacity, retry shortly\n")
        .with_header("Retry-After", "1")
        .write_to(&mut writer, false);
}

/// Serves one connection until the client closes, errors, stops asking
/// for keep-alive, or idles past the read timeout.
fn handle_connection(stream: TcpStream, service: &ArtifactService, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    serve_connection(&mut BufReader::new(stream), writer, service);
}

/// Answers the requests read from `reader` on `writer` until the reader
/// ends or fails, or a response closes the connection.
///
/// Every response, the `400` and `408` included, goes through one
/// [`RESPONSE_BUFFER`]-byte buffer and leaves in one flush when it fits:
/// formatted output issues one `write` per piece, and under `TCP_NODELAY`
/// each unbuffered piece would leave as its own segment. A body or chunk
/// larger than the buffer is written through, never accumulated, so
/// each write stays O(chunk) and the buffer never grows.
fn serve_connection(reader: &mut impl BufRead, writer: impl Write, service: &ArtifactService) {
    let mut writer = BufWriter::with_capacity(RESPONSE_BUFFER, writer);
    loop {
        let request = match Request::read_from(reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::TimedOut) => {
                // A stalled (slow-loris) or idle client: best-effort 408,
                // then free the worker for clients that actually talk.
                telemetry::metrics::counter("serve.timeout").inc();
                let resp = Response::text(408, "request timed out\n");
                let _ = resp.write_to(&mut writer, false);
                return;
            }
            Err(ParseError::Io(_)) => return,
            Err(ParseError::Malformed(why)) => {
                let resp = Response::text(400, format!("malformed request: {why}\n"));
                let _ = resp.write_to(&mut writer, false);
                return;
            }
        };
        let keep_alive = request.keep_alive();
        let written = match service.handle(&request) {
            Reply::Whole(response) => response.write_to(&mut writer, keep_alive),
            Reply::Streamed(streamed) => {
                streamed
                    .head
                    .write_chunked_to(&mut writer, keep_alive, streamed.body)
            }
        };
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeOptions;
    use std::io::Read;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "serve-server-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ))
    }

    fn start_with(tag: &str, config: ServerConfig) -> (Server, std::path::PathBuf) {
        let dir = temp_dir(tag);
        let service = Arc::new(ArtifactService::new(ServeOptions {
            jobs: Some(2),
            ..ServeOptions::new(&dir)
        }));
        let server = Server::bind_with("127.0.0.1:0", service, config).expect("bind ephemeral");
        (server, dir)
    }

    fn start(tag: &str) -> (Server, std::path::PathBuf) {
        start_with(
            tag,
            ServerConfig {
                workers: Some(4),
                ..ServerConfig::default()
            },
        )
    }

    fn fetch(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        response
    }

    /// A connection's writer that records each `write` it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_reaches_the_connection_in_one_write() {
        let dir = temp_dir("one-write");
        let service = ArtifactService::new(ServeOptions {
            jobs: Some(2),
            ..ServeOptions::new(&dir)
        });
        let parse = |raw: &str| {
            Request::read_from(&mut raw.as_bytes())
                .expect("a well-formed request")
                .expect("one request")
        };
        // F2 renders two artifacts, so its streamed bodies carry two
        // chunks (three with the gzip trailer).
        let target = "/v1/artifacts/F2?seed=1&scale=quick";
        let etag = service
            .handle(&parse(&format!("GET {target} HTTP/1.1\r\n\r\n")))
            .into_response()
            .header("ETag")
            .expect("artifact responses carry an ETag")
            .to_string();
        let requests = [
            format!("GET {target} HTTP/1.1\r\n\r\n"),
            format!("GET {target} HTTP/1.1\r\nAccept-Encoding: gzip\r\n\r\n"),
            format!("GET {target} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            format!("GET {target} HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n"),
        ];
        // Each response as the unbuffered serialization writes it.
        let expected: Vec<Vec<u8>> = requests
            .iter()
            .map(|raw| {
                let mut out = Vec::new();
                match service.handle(&parse(raw)) {
                    Reply::Whole(response) => response.write_to(&mut out, true),
                    Reply::Streamed(s) => s.head.write_chunked_to(&mut out, true, s.body),
                }
                .expect("writing to a Vec");
                out
            })
            .collect();
        let statuses: Vec<&[u8]> = expected.iter().map(|r| &r[9..12]).collect();
        assert_eq!(statuses, [b"200", b"200", b"200", b"304"]);
        assert!(expected.iter().all(|r| r.len() <= RESPONSE_BUFFER));

        // A malformed request ends the connection with a 400.
        let stream = requests.concat() + "NONSENSE\r\n\r\n";
        let mut writes = Writes::default();
        serve_connection(&mut stream.as_bytes(), &mut writes, &service);
        let sizes: Vec<usize> = writes.0.iter().map(Vec::len).collect();
        let expected_sizes: Vec<usize> = expected.iter().map(Vec::len).collect();
        assert_eq!(sizes[..4], expected_sizes, "one write per response");
        assert_eq!(writes.0[..4], expected);
        assert_eq!(writes.0.len(), 5, "the 400 in one write");
        assert!(writes.0[4].starts_with(b"HTTP/1.1 400 Bad Request\r\n"));
        assert!(writes.0[4].ends_with(b"malformed request: missing path\n"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memo_hits_are_byte_identical_on_the_wire() {
        let dir = temp_dir("memo-wire");
        let options = || ServeOptions {
            jobs: Some(2),
            ..ServeOptions::new(&dir)
        };
        let wire = |service: &ArtifactService, raw: &str| {
            let mut out = Vec::new();
            serve_connection(&mut raw.as_bytes(), &mut out, service);
            out
        };
        let base = "/v1/artifacts/F2?seed=1&scale=quick";
        let manifest = wire(
            &ArtifactService::new(options()),
            "GET /v1/manifest/F2?seed=1&scale=quick HTTP/1.0\r\n\r\n",
        );
        let manifest = String::from_utf8(manifest).expect("a JSON manifest");
        let aid = manifest
            .split("\"artifacts\":[{\"id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("F2 has an artifact");
        let representations = [
            (base.to_string(), ""),
            (format!("{base}&artifact={aid}"), ""),
            (format!("{base}&format=csv&artifact={aid}"), ""),
            (base.to_string(), "Accept-Encoding: gzip\r\n"),
        ];
        for version in ["1.1", "1.0"] {
            // A fresh memo per protocol, over the warm disk cache.
            let service = ArtifactService::new(options());
            for (n, (target, headers)) in representations.iter().enumerate() {
                let raw = format!("GET {target} HTTP/{version}\r\n{headers}\r\n");
                let rendered = wire(&service, &raw);
                assert!(rendered.starts_with(b"HTTP/1.1 200 OK\r\n"), "{raw}");
                assert_eq!(service.memo_resident().0, n + 1, "{raw} is kept");
                let replayed = wire(&service, &raw);
                assert_eq!(rendered, replayed, "{raw}: the memo changed the wire");
                assert_eq!(service.memo_resident().0, n + 1, "{raw} kept once");
            }
            let kept = service.memo_resident();
            for (raw, status) in [
                (
                    format!("GET {base}&artifact=nope HTTP/{version}\r\n\r\n"),
                    "404",
                ),
                (
                    format!("GET {base}&format=yaml HTTP/{version}\r\n\r\n"),
                    "400",
                ),
                (
                    format!("GET {base}&format=csv HTTP/{version}\r\n\r\n"),
                    "400",
                ),
            ] {
                for _ in 0..2 {
                    let response = wire(&service, &raw);
                    assert_eq!(&response[9..12], status.as_bytes(), "{raw}");
                }
            }
            assert_eq!(service.memo_resident(), kept, "errors are never kept");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serves_healthz_and_shuts_down() {
        let (server, dir) = start("health");
        let addr = server.addr();
        let response = fetch(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("ok\n"), "{response}");
        server.shutdown();
        assert!(
            TcpStream::connect(addr).map_or(true, |mut s| {
                // Accept queue may take the connection, but nothing serves it.
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                s.read_to_string(&mut buf).map_or(true, |_| buf.is_empty())
            }),
            "a shut-down server answers nothing"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Reads one full response (head + `Content-Length` body) so short
    /// TCP reads cannot truncate what the assertions see.
    fn read_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(end) = head_end {
                let head = String::from_utf8_lossy(&buf[..end]).to_string();
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.parse().ok())
                    .expect("responses declare Content-Length");
                if buf.len() >= end + 4 + length {
                    return String::from_utf8_lossy(&buf[..end + 4 + length]).to_string();
                }
            }
            let n = stream.read(&mut chunk).expect("receive");
            assert!(n > 0, "connection closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (server, dir) = start("keepalive");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        for _ in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("send");
            let response = read_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
            assert!(response.contains("Connection: keep-alive\r\n"));
            assert!(response.ends_with("ok\n"));
        }
        // Hang up first: an open keep-alive connection holds its worker
        // until the read timeout, and shutdown joins the workers.
        drop(stream);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_requests_get_a_400_not_a_hang() {
        let (server, dir) = start("malformed");
        let response = fetch(server.addr(), "NONSENSE\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 400 Bad Request\r\n"),
            "{response}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stalled_clients_time_out_with_408_and_free_the_worker() {
        let (server, dir) = start_with(
            "loris",
            ServerConfig {
                workers: Some(1),
                queue_cap: 8,
                read_timeout: Duration::from_millis(200),
            },
        );
        let addr = server.addr();
        // A slow-loris client: request line, partial headers, then silence.
        let mut loris = TcpStream::connect(addr).expect("connect");
        loris
            .write_all(b"GET /healthz HTTP/1.1\r\nX-Slow:")
            .expect("send partial");
        let mut response = String::new();
        loris.read_to_string(&mut response).expect("receive");
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{response}"
        );
        // With the single worker freed, an honest client is served.
        let healthy = fetch(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(healthy.starts_with("HTTP/1.1 200 OK\r\n"), "{healthy}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn full_queue_sheds_with_fast_503_retry_after() {
        // One worker, pinned by a deliberately silent connection; a
        // one-slot queue holds a second connection; everything beyond
        // that must shed immediately instead of waiting.
        let (server, dir) = start_with(
            "shed",
            ServerConfig {
                workers: Some(1),
                queue_cap: 1,
                read_timeout: Duration::from_secs(5),
            },
        );
        let addr = server.addr();
        let pin = TcpStream::connect(addr).expect("pin worker");
        // Give the accept loop time to hand `pin` to the worker, then
        // fill the single queue slot.
        std::thread::sleep(Duration::from_millis(100));
        let queued = TcpStream::connect(addr).expect("fill queue");
        std::thread::sleep(Duration::from_millis(100));
        let mut shed_seen = false;
        for _ in 0..3 {
            let mut extra = TcpStream::connect(addr).expect("overflow connect");
            extra
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let mut response = String::new();
            if extra.read_to_string(&mut response).is_ok()
                && response.starts_with("HTTP/1.1 503 Service Unavailable\r\n")
            {
                assert!(response.contains("Retry-After: 1\r\n"), "{response}");
                assert!(response.contains("Connection: close\r\n"), "{response}");
                shed_seen = true;
                break;
            }
        }
        assert!(shed_seen, "overflow connections must be shed with 503");
        drop(pin);
        drop(queued);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
