//! A deliberately small HTTP/1.1 implementation over std I/O.
//!
//! The serving daemon needs exactly what a reproducibility artifact
//! server needs and nothing more: `GET` requests with a path, a query
//! string, and a handful of headers in; status + headers + body out,
//! with keep-alive. Hand-rolling ~200 lines keeps the workspace free of
//! network dependencies (the container builds offline) and keeps every
//! byte of the response under the byte-identity contract's control.

use std::io::{BufRead, Write};

/// Longest request line and longest single header accepted, in bytes.
/// Anything beyond this is a client error, not a buffer to grow.
const MAX_LINE: usize = 8 * 1024;

/// Maximum headers per request.
const MAX_HEADERS: usize = 64;

/// A parsed request head. Bodies are not modeled: the artifact server
/// is read-only, and `GET`/`HEAD` requests carry none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased (e.g. `GET`).
    pub method: String,
    /// Path component, without the query string (e.g. `/v1/artifacts/F6`).
    pub path: String,
    /// Decoded `key=value` query pairs, in request order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Minor HTTP version: `1` for `HTTP/1.1`, `0` for `HTTP/1.0`.
    /// Chunked transfer coding is only legal at 1.1; keep-alive
    /// defaults differ.
    pub minor: u8,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The connection closed cleanly before a request line.
    ConnectionClosed,
    /// The socket's read timeout expired mid-request — a stalled
    /// (slow-loris) or idle client. The server answers `408` and drops
    /// the connection rather than letting the client pin a worker.
    TimedOut,
    /// I/O failure mid-request.
    Io(String),
    /// The bytes are not HTTP the server understands.
    Malformed(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::TimedOut => write!(f, "read timed out"),
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
        }
    }
}

/// Reads one `\r\n`- (or `\n`-) terminated line, capped at [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ParseError> {
    let mut line = String::new();
    let mut taken = 0usize;
    loop {
        let mut byte = [0u8; 1];
        let n = std::io::Read::read(reader, &mut byte).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ParseError::ConnectionClosed,
            // Both kinds occur for an expired `set_read_timeout`,
            // platform-dependently.
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ParseError::TimedOut,
            _ => ParseError::Io(e.to_string()),
        })?;
        if n == 0 {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ParseError::Malformed("truncated line"))
            };
        }
        taken += 1;
        if taken > MAX_LINE {
            return Err(ParseError::Malformed("line too long"));
        }
        match byte[0] {
            b'\n' => {
                if line.ends_with('\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            b => line.push(b as char),
        }
    }
}

/// Splits a query string into decoded pairs. Only `%XX` and `+` are
/// decoded; experiment ids and the parameters the server accepts are
/// ASCII, so this covers every legal request.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            // RFC 3986: `%` then exactly two hex digits; anything else
            // (`%+5`, a dangling `%4`) stays literal.
            b'%' => match (hex_digit(bytes.get(i + 1)), hex_digit(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The value of `byte` if it is an ASCII hex digit.
fn hex_digit(byte: Option<&u8>) -> Option<u8> {
    Some(char::from(*byte?).to_digit(16)? as u8)
}

impl Request {
    /// Reads one request head from `reader`. `Ok(None)` is a clean
    /// end-of-connection (the client finished a keep-alive session).
    pub fn read_from(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
        let Some(request_line) = read_line(reader)? else {
            return Ok(None);
        };
        if request_line.is_empty() {
            return Err(ParseError::Malformed("empty request line"));
        }
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(ParseError::Malformed("missing method"))?
            .to_ascii_uppercase();
        let target = parts.next().ok_or(ParseError::Malformed("missing path"))?;
        let version = parts
            .next()
            .ok_or(ParseError::Malformed("missing version"))?;
        let minor = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            _ => return Err(ParseError::Malformed("unsupported version")),
        };
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };
        let mut headers = Vec::new();
        loop {
            let line = read_line(reader)?.ok_or(ParseError::Malformed("truncated headers"))?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(ParseError::Malformed("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(ParseError::Malformed("header without colon"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            minor,
        }))
    }

    /// First header with `name` (case-insensitive), if any.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter named `name`, if any.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after this
    /// response: HTTP/1.1 defaults to keep-alive unless
    /// `Connection: close`, HTTP/1.0 defaults to close unless
    /// `Connection: keep-alive`.
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("keep-alive"),
            None => self.minor >= 1,
        }
    }

    /// Whether the response may use chunked transfer coding (HTTP/1.1
    /// only; a 1.0 client must get `Content-Length` framing).
    pub(crate) fn accepts_chunked(&self) -> bool {
        self.minor >= 1
    }
}

/// A response ready to serialize. Header order is fixed by insertion
/// order, so responses are byte-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `(name, value)` headers, serialized in order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    /// A plain-text response (`text/plain; charset=utf-8`).
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; charset=utf-8".to_string(),
            )],
            body: body.into().into_bytes(),
        }
    }

    /// An empty response with no content-type (e.g. `304`).
    pub(crate) fn empty(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// First response header named `name` (case-insensitive), if any.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Appends a header, builder style.
    pub(crate) fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Replaces the declared content type.
    pub(crate) fn with_content_type(mut self, value: &str) -> Self {
        self.headers.retain(|(n, _)| n != "Content-Type");
        self.headers
            .insert(0, ("Content-Type".to_string(), value.to_string()));
        self
    }

    /// Serializes the response. `Content-Length` and `Connection` are
    /// written by the server, so handlers never get them wrong.
    pub(crate) fn write_to(
        &self,
        writer: &mut impl Write,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(writer, "Content-Length: {}\r\n", self.body.len())?;
        write!(
            writer,
            "Connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }

    /// Serializes this response head with `Transfer-Encoding: chunked`
    /// framing and streams `chunks` as the body, one `chunk-size CRLF
    /// chunk-data CRLF` frame each (empty chunks are skipped — an empty
    /// frame would terminate the body early), ending with the `0` frame.
    /// `self.body` must be empty: the chunks ARE the body.
    ///
    /// Each chunk is written as it is pulled from the iterator and may
    /// be borrowed or shared (`AsRef<[u8]>`), so serving a kept body
    /// copies none of it.
    pub(crate) fn write_chunked_to<C: AsRef<[u8]>>(
        &self,
        writer: &mut impl Write,
        keep_alive: bool,
        chunks: impl Iterator<Item = C>,
    ) -> std::io::Result<()> {
        debug_assert!(
            self.body.is_empty(),
            "chunked responses carry no eager body"
        );
        write!(
            writer,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(writer, "Transfer-Encoding: chunked\r\n")?;
        write!(
            writer,
            "Connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        for chunk in chunks {
            let chunk = chunk.as_ref();
            if chunk.is_empty() {
                continue;
            }
            write!(writer, "{:x}\r\n", chunk.len())?;
            writer.write_all(chunk)?;
            writer.write_all(b"\r\n")?;
        }
        writer.write_all(b"0\r\n\r\n")?;
        writer.flush()
    }
}

/// Decodes a chunked transfer-coded body back to its payload bytes.
/// Used by tests and the load harness to compare streamed responses
/// against whole-body ones; returns an error on malformed framing.
pub fn decode_chunked(body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut rest = body;
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("missing chunk-size line")?;
        let size_line = std::str::from_utf8(&rest[..line_end]).map_err(|_| "bad chunk size")?;
        let size_token = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16).map_err(|_| "bad chunk size")?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        out.extend_from_slice(&rest[..size]);
        if &rest[size..size + 2] != b"\r\n" {
            return Err("chunk not CRLF-terminated".to_string());
        }
        rest = &rest[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, ParseError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_request_with_query_and_headers() {
        let req = parse(
            "GET /v1/artifacts/F6?seed=7&scale=quick HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"abc\"\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/artifacts/F6");
        assert_eq!(req.query_param("seed"), Some("7"));
        assert_eq!(req.query_param("scale"), Some("quick"));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.header("if-none-match"), Some("\"abc\""));
        assert_eq!(req.header("IF-NONE-MATCH"), Some("\"abc\""));
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_and_clean_eof() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        assert_eq!(parse("").unwrap(), None, "clean EOF yields no request");
    }

    #[test]
    fn http_1_0_defaults_to_close_and_whole_bodies() {
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert_eq!(old.minor, 0);
        assert!(!old.keep_alive(), "1.0 defaults to close");
        assert!(!old.accepts_chunked(), "chunked framing is 1.1-only");
        let pinned = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(pinned.keep_alive(), "1.0 opts in explicitly");
        let new = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(new.minor, 1);
        assert!(new.keep_alive());
        assert!(new.accepts_chunked());
    }

    #[test]
    fn chunked_responses_frame_and_decode_round_trip() {
        let mut out = Vec::new();
        let head = Response {
            status: 200,
            headers: vec![("Content-Type".to_string(), "text/plain".to_string())],
            body: Vec::new(),
        };
        let chunks = vec![b"first ".to_vec(), Vec::new(), b"second".to_vec()];
        head.write_chunked_to(&mut out, true, chunks.into_iter())
            .unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"), "chunked excludes length");
        assert!(text.ends_with("0\r\n\r\n"));
        let body_at = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(decode_chunked(&out[body_at..]).unwrap(), b"first second");
    }

    #[test]
    fn chunked_decoding_rejects_damage() {
        assert!(decode_chunked(b"").is_err());
        assert!(decode_chunked(b"zz\r\nabc\r\n0\r\n\r\n").is_err());
        assert!(decode_chunked(b"5\r\nab").is_err(), "truncated chunk");
        assert!(decode_chunked(b"3\r\nabcXY0\r\n\r\n").is_err(), "bad CRLF");
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        assert!(matches!(parse("\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(matches!(parse(&long), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn percent_decoding_covers_the_ascii_cases() {
        assert_eq!(percent_decode("F6"), "F6");
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%", "dangling % passes through");
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .with_header("ETag", "\"d00d\"")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: text/plain; charset=utf-8\r\n"));
        assert!(text.contains("ETag: \"d00d\"\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
        let mut out = Vec::new();
        Response::empty(304).write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
    }
}
