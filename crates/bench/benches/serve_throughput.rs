//! Benches for the serving daemon's hot path: in-process request
//! handling (text, CSV, gzip), streamed-body chunk replay, and full
//! HTTP round trips over a real TCP connection. CI records this suite
//! into a fresh sentinel history (`repro sentinel record --from`), so a
//! serving-throughput regression trips the same audit as an engine
//! slowdown.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use bench::Suite;
use serve::{ArtifactService, Reply, Request, ServeOptions, Server};

fn temp_cache(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-bench-{label}-{}", std::process::id()))
}

fn warm_service(label: &str) -> Arc<ArtifactService> {
    let service = Arc::new(ArtifactService::new(ServeOptions {
        jobs: Some(2),
        ..ServeOptions::new(temp_cache(label))
    }));
    // Warm the key every bench hits so iterations measure serving, not
    // the one-time artifact computation.
    let reply = service.handle(&request("/v1/artifacts/T1?seed=7&scale=quick", &[]));
    assert_eq!(reply.status(), 200);
    service
}

fn request(path: &str, extra: &[&str]) -> Request {
    let mut raw = format!("GET {path} HTTP/1.1\r\n");
    for h in extra {
        raw.push_str(h);
        raw.push_str("\r\n");
    }
    raw.push_str("\r\n");
    Request::read_from(&mut BufReader::new(raw.as_bytes()))
        .expect("well-formed")
        .expect("one request")
}

fn handle(s: &mut Suite) {
    let service = warm_service("handle");
    let text = request("/v1/artifacts/T1?seed=7&scale=quick", &[]);
    s.bench("hot_text", 50, || {
        let reply = service.handle(black_box(&text));
        reply.into_response().body.len()
    });
    let gzip = request(
        "/v1/artifacts/T1?seed=7&scale=quick",
        &["Accept-Encoding: gzip"],
    );
    s.bench("hot_gzip", 50, || {
        let reply = service.handle(black_box(&gzip));
        reply.into_response().body.len()
    });
    s.bench("hot_streamed_chunks", 50, || {
        match service.handle(black_box(&text)) {
            Reply::Streamed(s) => s.body.map(|chunk| chunk.len()).sum::<usize>(),
            Reply::Whole(r) => r.body.len(),
        }
    });
}

fn tcp_round_trip(s: &mut Suite) {
    let server = Server::bind("127.0.0.1:0", warm_service("tcp")).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream);
    s.bench("tcp_round_trip_hot", 50, || {
        reader
            .get_mut()
            .write_all(b"GET /v1/artifacts/T1?seed=7&scale=quick HTTP/1.1\r\n\r\n")
            .expect("send");
        // Drain head, then chunked frames until the terminal chunk.
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).expect("head line");
            if line == "\r\n" {
                break;
            }
        }
        let mut total = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("chunk size");
            let size = usize::from_str_radix(line.trim(), 16).expect("hex size");
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk).expect("chunk data");
            if size == 0 {
                break;
            }
            total += size;
        }
        total
    });
    drop(reader);
    server.shutdown();
}

fn main() {
    let mut s = Suite::new("serve_throughput");
    handle(&mut s);
    tcp_round_trip(&mut s);
    for label in ["handle", "tcp"] {
        let _ = std::fs::remove_dir_all(temp_cache(label));
    }
    s.finish();
}
