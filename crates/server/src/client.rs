//! A minimal blocking keep-alive client for tests and benches: one
//! socket, many requests, with pipelining support. Deliberately strict —
//! it only understands the `Content-Length`-framed responses this server
//! emits.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response off the wire.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Lowercased header names → values.
    pub headers: HashMap<String, String>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server will keep the connection open afterwards.
    pub fn keep_alive(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// A persistent HTTP/1.1 connection.
#[derive(Debug)]
pub struct KeepAliveClient {
    stream: TcpStream,
    /// Read-ahead buffer: bytes past `pos` belong to responses not yet
    /// parsed (pipelined successors land here).
    buf: Vec<u8>,
    /// Start of the next unparsed response within `buf`.
    pos: usize,
    /// High-water mark of the header-terminator scan, so refills resume
    /// where the last scan stopped instead of rescanning the buffer.
    scanned: usize,
}

impl KeepAliveClient {
    /// Connects with `TCP_NODELAY` (small pipelined writes must not sit
    /// in Nagle's buffer).
    pub fn connect(addr: SocketAddr) -> std::io::Result<KeepAliveClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KeepAliveClient {
            stream,
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
        })
    }

    /// Caps how long [`KeepAliveClient::read_response`] blocks.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Writes a GET without reading the response (pipelining building
    /// block). One `write` syscall per request: `write!` on a raw
    /// `TcpStream` would emit each format fragment as its own packet
    /// under `TCP_NODELAY`, fragmenting the server's batch collection.
    pub fn send_get(&mut self, path_and_query: &str) -> std::io::Result<()> {
        let req = format!("GET {path_and_query} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        self.stream.write_all(req.as_bytes())
    }

    /// Writes a POST without reading the response.
    pub fn send_post(&mut self, path: &str, body: &str) -> std::io::Result<()> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())
    }

    /// Writes raw bytes (malformed-request and slowloris tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads exactly one `Content-Length`-framed response.
    pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let header_end = loop {
            // Resume the terminator scan at the high-water mark (backing
            // up 3 bytes in case the refill split the `\r\n\r\n`).
            let from = self.scanned.max(self.pos + 3) - 3;
            if let Some(i) = find_double_newline(&self.buf[from.min(self.buf.len())..]) {
                break from + i;
            }
            self.scanned = self.buf.len();
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[self.pos..header_end]).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 header")
        })?;
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut headers = HashMap::new();
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                headers.insert(k.trim().to_lowercase(), v.trim().to_string());
            }
        }
        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < header_end + content_length {
            self.fill()?;
        }
        let body = self.buf[header_end..header_end + content_length].to_vec();
        self.pos = header_end + content_length;
        self.scanned = self.pos;
        if self.pos == self.buf.len() {
            // Everything parsed: reset in place instead of shifting bytes.
            self.buf.clear();
            self.pos = 0;
            self.scanned = 0;
        }
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads one response but only returns its status code, skipping the
    /// header map and body copy. This is the load-generator fast path:
    /// under a deep pipeline the full [`ClientResponse`] parse costs more
    /// than the server spends answering.
    pub fn read_status(&mut self) -> std::io::Result<u16> {
        let header_end = loop {
            let from = self.scanned.max(self.pos + 3) - 3;
            if let Some(i) = find_double_newline(&self.buf[from.min(self.buf.len())..]) {
                break from + i;
            }
            self.scanned = self.buf.len();
            self.fill()?;
        };
        let head = &self.buf[self.pos..header_end];
        let status = parse_status_line(head).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
        let content_length = parse_content_length(head).unwrap_or(0);
        while self.buf.len() < header_end + content_length {
            self.fill()?;
        }
        self.pos = header_end + content_length;
        self.scanned = self.pos;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.scanned = 0;
        }
        Ok(status)
    }

    /// One GET round trip on the persistent socket.
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<ClientResponse> {
        self.send_get(path_and_query)?;
        self.read_response()
    }

    /// One POST round trip on the persistent socket.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.send_post(path, body)?;
        self.read_response()
    }

    /// Writes all requests back-to-back in one syscall, then reads all
    /// responses — the server must answer in order.
    pub fn pipeline_get(&mut self, paths: &[&str]) -> std::io::Result<Vec<ClientResponse>> {
        let mut batch = String::new();
        for path in paths {
            batch.push_str("GET ");
            batch.push_str(path);
            batch.push_str(" HTTP/1.1\r\nHost: localhost\r\n\r\n");
        }
        self.stream.write_all(batch.as_bytes())?;
        paths.iter().map(|_| self.read_response()).collect()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        // Read straight into the buffer's tail — a deep pipelined batch
        // arrives in one or two syscalls instead of 8 KiB nibbles.
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + n.as_ref().copied().unwrap_or(0));
        let n = n?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        Ok(())
    }
}

fn find_double_newline(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Pulls the status code out of `HTTP/1.1 NNN ...` without UTF-8 checks.
fn parse_status_line(head: &[u8]) -> Option<u16> {
    let after_version = head.iter().position(|&b| b == b' ')? + 1;
    let digits = &head[after_version..];
    let end = digits.iter().position(|&b| b == b' ')?;
    let mut code: u16 = 0;
    for &b in &digits[..end] {
        if !b.is_ascii_digit() {
            return None;
        }
        code = code.checked_mul(10)?.checked_add(u16::from(b - b'0'))?;
    }
    Some(code)
}

/// Finds `Content-Length` case-insensitively without building a header map.
fn parse_content_length(head: &[u8]) -> Option<usize> {
    const NAME: &[u8] = b"content-length:";
    for line in head.split(|&b| b == b'\n') {
        if line.len() > NAME.len() && line[..NAME.len()].eq_ignore_ascii_case(NAME) {
            let value = &line[NAME.len()..];
            let text = std::str::from_utf8(value).ok()?;
            return text.trim().parse().ok();
        }
    }
    None
}
