//! HTTP/1.1 request parsing and response serialization.
//!
//! Supports what an evented REST JSON API needs: request line, headers,
//! `Content-Length`-framed bodies, percent-decoded query strings, an
//! incremental zero-copy-in parser ([`try_parse`]) driving the
//! per-connection state machines (keep-alive, pipelining, header/body
//! limits), and [`Response::serialize`] emitting either keep-alive or
//! close framing.

use std::collections::HashMap;
use std::io::Write;

/// HTTP status codes used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 201
    Created,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 408
    RequestTimeout,
    /// 413
    PayloadTooLarge,
    /// 429
    TooManyRequests,
    /// 500
    InternalServerError,
    /// 503
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(&self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::RequestTimeout => 408,
            Status::PayloadTooLarge => 413,
            Status::TooManyRequests => 429,
            Status::InternalServerError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(&self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::RequestTimeout => "Request Timeout",
            Status::PayloadTooLarge => "Payload Too Large",
            Status::TooManyRequests => "Too Many Requests",
            Status::InternalServerError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb (uppercase).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Lowercased header names → values.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Query parameter accessor.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Body as UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line code.
    pub status: Status,
    /// Content type.
    pub content_type: String,
    /// Extra headers `(name, value)`, serialized after `Content-Type`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// JSON response.
    pub fn json(status: Status, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// SVG response.
    pub fn svg(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            content_type: "image/svg+xml".to_string(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Plain-text response.
    pub fn text(status: Status, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Standard error envelope.
    pub fn error(status: Status, message: &str) -> Response {
        let doc = create_docstore::json::obj([("error", message.into())]);
        Response::json(status, doc.to_json())
    }

    /// Appends a header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the full HTTP response with the given connection
    /// disposition (`Connection: keep-alive` or `Connection: close`).
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let disposition = if keep_alive { "keep-alive" } else { "close" };
        let _ = write!(out, "Connection: {disposition}\r\n\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Percent-decodes a URL component (plus `+` → space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parser limits enforced by the evented server.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers before 400.
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` before 413.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why an incremental parse rejected the request — drives which rejection
/// counter the server increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed request line, invalid header, or oversized header block.
    Syntax,
    /// `Content-Length` exceeded the configured body cap.
    BodyTooLarge,
}

/// One fully parsed request plus its connection framing.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request itself.
    pub request: Request,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`; HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`).
    pub keep_alive: bool,
    /// Bytes of the buffer this request consumed (pipelined successors
    /// start right after).
    pub consumed: usize,
}

/// Result of an incremental parse over a connection's read buffer.
#[derive(Debug)]
pub enum Parse {
    /// Need more bytes. `headers_done` distinguishes waiting on headers
    /// (header timeout) from waiting on the body (body timeout).
    Incomplete {
        /// Whether the header block is complete and only body bytes are
        /// outstanding.
        headers_done: bool,
    },
    /// One complete request.
    Ready(ParsedRequest),
    /// The connection's current request can never complete; respond with
    /// `status` and close.
    Failed {
        /// Which rejection counter applies.
        kind: ParseErrorKind,
        /// The status to respond with (400 or 413).
        status: Status,
        /// Human-readable cause for the error envelope.
        message: String,
    },
}

/// Index one past the blank line ending the header block, if present.
/// Accepts both `\r\n` and bare `\n` line endings.
pub(crate) fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            let mut line = &buf[line_start..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

fn syntax_error(message: impl Into<String>) -> Parse {
    Parse::Failed {
        kind: ParseErrorKind::Syntax,
        status: Status::BadRequest,
        message: message.into(),
    }
}

/// Incrementally parses the front of `buf` as one HTTP request.
pub fn try_parse(buf: &[u8], limits: &HttpLimits) -> Parse {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > limits.max_header_bytes {
            return syntax_error(format!(
                "header block exceeds {} bytes",
                limits.max_header_bytes
            ));
        }
        return Parse::Incomplete {
            headers_done: false,
        };
    };
    if header_end > limits.max_header_bytes {
        return syntax_error(format!(
            "header block exceeds {} bytes",
            limits.max_header_bytes
        ));
    }
    let Ok(head) = std::str::from_utf8(&buf[..header_end]) else {
        return syntax_error("header block is not valid UTF-8");
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return syntax_error("malformed request line: missing method");
    };
    let Some(target) = parts.next() else {
        return syntax_error("malformed request line: missing target");
    };
    let http11 = match parts.next() {
        None => false, // HTTP/0.9-style simple request: one-shot
        Some(v) if v.eq_ignore_ascii_case("HTTP/1.1") => true,
        Some(v) if v.len() >= 5 && v[..5].eq_ignore_ascii_case("HTTP/") => false,
        Some(v) => {
            return syntax_error(format!("malformed request line: bad version {v:?}"));
        }
    };
    if parts.next().is_some() {
        return syntax_error("malformed request line: trailing tokens");
    }

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((k, v)) = line.split_once(':') else {
            return syntax_error(format!("malformed header line {line:?}"));
        };
        headers.insert(k.trim().to_lowercase(), v.trim().to_string());
    }

    let content_length: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => return syntax_error(format!("invalid Content-Length {v:?}")),
        },
    };
    if content_length > limits.max_body_bytes {
        return Parse::Failed {
            kind: ParseErrorKind::BodyTooLarge,
            status: Status::PayloadTooLarge,
            message: format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                limits.max_body_bytes
            ),
        };
    }
    if buf.len() < header_end + content_length {
        return Parse::Incomplete { headers_done: true };
    }

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = HashMap::new();
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(url_decode(k), url_decode(v));
    }

    let connection = headers.get("connection").map(String::as_str).unwrap_or("");
    let mentions = |token: &str| {
        connection
            .split(',')
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    let keep_alive = if http11 {
        !mentions("close")
    } else {
        mentions("keep-alive")
    };

    let body = buf[header_end..header_end + content_length].to_vec();
    Parse::Ready(ParsedRequest {
        request: Request {
            method: method.to_uppercase(),
            path: url_decode(&path),
            query,
            headers,
            body,
        },
        keep_alive,
        consumed: header_end + content_length,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete request fixture, parsed as the event loop parses it.
    fn parse(raw: &[u8]) -> Request {
        match try_parse(raw, &HttpLimits::default()) {
            Parse::Ready(parsed) => parsed.request,
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /search?q=fever+and%20cough&k=5 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.param("q"), Some("fever and cough"));
        assert_eq!(req.param("k"), Some("5"));
    }

    #[test]
    fn parses_post_body() {
        let req = parse(b"POST /submit HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str(), Some("hello world"));
    }

    #[test]
    fn header_names_lowercased() {
        let req = parse(b"GET / HTTP/1.1\r\nX-Custom-Header: Value\r\n\r\n");
        assert_eq!(req.headers.get("x-custom-header").unwrap(), "Value");
    }

    #[test]
    fn url_decode_handles_percent_and_plus() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("f%C3%A8vre"), "fèvre");
    }

    #[test]
    fn response_serializes() {
        let out = Response::json(Status::Ok, "{\"ok\":true}").serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.contains("Content-Length: 11"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn serialize_emits_the_connection_disposition() {
        let keep = Response::text(Status::Ok, "x").serialize(true);
        let close = Response::text(Status::Ok, "x").serialize(false);
        assert!(String::from_utf8(keep)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
        assert!(String::from_utf8(close)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn error_envelope() {
        let r = Response::error(Status::NotFound, "missing");
        assert_eq!(r.status.code(), 404);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"missing\"}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            try_parse(b"\r\n", &HttpLimits::default()),
            Parse::Failed { .. }
        ));
    }

    #[test]
    fn new_statuses_have_codes_and_reasons() {
        for (status, code) in [
            (Status::RequestTimeout, 408),
            (Status::PayloadTooLarge, 413),
            (Status::TooManyRequests, 429),
            (Status::ServiceUnavailable, 503),
        ] {
            assert_eq!(status.code(), code);
            assert!(!status.reason().is_empty());
        }
    }

    #[test]
    fn incremental_parse_reports_phases() {
        let limits = HttpLimits::default();
        assert!(matches!(
            try_parse(b"GET /x HT", &limits),
            Parse::Incomplete {
                headers_done: false
            }
        ));
        assert!(matches!(
            try_parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", &limits),
            Parse::Incomplete { headers_done: true }
        ));
        let Parse::Ready(p) = try_parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde",
            &limits,
        ) else {
            panic!("complete request must parse");
        };
        assert_eq!(p.request.body, b"abcde");
        assert_eq!(p.consumed, 39 + 5);
        assert!(p.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn keep_alive_honors_connection_header_and_version() {
        let limits = HttpLimits::default();
        let ka = |raw: &[u8]| match try_parse(raw, &limits) {
            Parse::Ready(p) => p.keep_alive,
            other => panic!("expected Ready, got {other:?}"),
        };
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n"));
    }

    #[test]
    fn pipelined_requests_consume_in_sequence() {
        let limits = HttpLimits::default();
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Parse::Ready(first) = try_parse(raw, &limits) else {
            panic!("first request parses");
        };
        assert_eq!(first.request.path, "/a");
        let Parse::Ready(second) = try_parse(&raw[first.consumed..], &limits) else {
            panic!("second request parses");
        };
        assert_eq!(second.request.path, "/b");
        assert_eq!(first.consumed + second.consumed, raw.len());
    }

    #[test]
    fn malformed_request_lines_fail_with_syntax() {
        let limits = HttpLimits::default();
        for raw in [
            &b"\r\n\r\n"[..],
            b"GARBAGE\r\n\r\n",
            b"GET /x JUNK/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            match try_parse(raw, &limits) {
                Parse::Failed { kind, status, .. } => {
                    assert_eq!(kind, ParseErrorKind::Syntax, "{raw:?}");
                    assert_eq!(status, Status::BadRequest, "{raw:?}");
                }
                other => panic!("{raw:?} should fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_headers_and_bodies_are_rejected() {
        let limits = HttpLimits {
            max_header_bytes: 64,
            max_body_bytes: 16,
        };
        // Header block too large, even before the terminator arrives.
        let long = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(128));
        assert!(matches!(
            try_parse(long.as_bytes(), &limits),
            Parse::Failed {
                kind: ParseErrorKind::Syntax,
                ..
            }
        ));
        let trickle = format!("GET /x HTTP/1.1\r\nX-Pad: {}", "a".repeat(128));
        assert!(matches!(
            try_parse(trickle.as_bytes(), &limits),
            Parse::Failed {
                kind: ParseErrorKind::Syntax,
                ..
            }
        ));
        // Declared body over the cap → 413 without waiting for the bytes.
        match try_parse(b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n", &limits) {
            Parse::Failed { kind, status, .. } => {
                assert_eq!(kind, ParseErrorKind::BodyTooLarge);
                assert_eq!(status, Status::PayloadTooLarge);
            }
            other => panic!("expected body rejection, got {other:?}"),
        }
    }
}
