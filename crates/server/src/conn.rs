//! Per-connection state for the evented server: a read buffer feeding the
//! incremental parser, a write buffer drained on writability, and the
//! phase/deadline pair driving the slowloris timeouts.

use create_util::poller::Interest;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// What the connection is waiting on — picks which timeout applies.
/// Deadlines move only on phase *transitions*, so a client trickling one
/// byte per second cannot keep renewing its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Between requests on a kept-alive connection (idle timeout).
    Idle,
    /// A partial request head is buffered (header timeout).
    Header,
    /// Headers complete, body bytes outstanding (body timeout).
    Body,
    /// A request is executing on a worker; the server owns the clock, so
    /// no client-facing deadline runs.
    Dispatch,
    /// A response is queued and the socket is not accepting it (write
    /// timeout).
    Write,
}

/// One accepted socket and its buffered state.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub token: u64,
    /// Bytes read but not yet consumed by the parser.
    pub in_buf: Vec<u8>,
    /// Serialized responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Exactly one dispatch unit (a pipelined run of requests) may be on
    /// a worker at a time; pipelined successors wait in `in_buf`.
    pub in_flight: bool,
    /// The interest currently registered with the poller — lets the loop
    /// skip the `epoll_ctl` syscall when nothing changed.
    pub registered_interest: Interest,
    /// Close once `out` drains (error responses, `Connection: close`).
    pub close_after_write: bool,
    /// The peer sent EOF; no more requests can arrive.
    pub peer_closed: bool,
    pub phase: Phase,
    /// When the current phase gives up (`None` while dispatched).
    pub deadline: Option<Instant>,
    /// Completed responses on this connection (keep-alive reuse counter).
    pub requests_served: u64,
}

/// Per-event read cap: level-triggered polling re-reports leftover bytes,
/// so bounding one fill keeps a fast sender from starving other
/// connections in the same wake-up.
const MAX_FILL_PER_EVENT: usize = 512 * 1024;

/// Read-ahead ceiling: while a dispatch unit executes, the loop keeps
/// reading pipelined successors into `in_buf` up to this size, then drops
/// read interest (backpressure) until the buffer drains.
const READ_AHEAD_CAP: usize = 256 * 1024;

impl Conn {
    pub fn new(stream: TcpStream, token: u64, header_deadline: Instant) -> Conn {
        Conn {
            stream,
            token,
            in_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            in_flight: false,
            registered_interest: Interest::READ,
            close_after_write: false,
            peer_closed: false,
            phase: Phase::Header,
            deadline: Some(header_deadline),
            requests_served: 0,
        }
    }

    /// Reads until `WouldBlock`, EOF, or the per-event cap. EOF sets
    /// `peer_closed`; hard socket errors propagate (caller closes).
    pub fn fill(&mut self) -> std::io::Result<usize> {
        let mut total = 0;
        let mut chunk = [0u8; 8192];
        while total < MAX_FILL_PER_EVENT {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Appends serialized response bytes to the write buffer.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Writes as much of the output buffer as the socket accepts;
    /// compacts once fully drained. Hard errors propagate.
    pub fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Whether response bytes are still waiting on the socket.
    pub fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The readiness interest matching the current state: writable while
    /// output is pending, readable while another request could still
    /// arrive and the read-ahead buffer has room. `NONE` still reports
    /// errors/hangups, so a vanished peer is noticed under backpressure.
    pub fn interest(&self) -> Interest {
        Interest {
            readable: !self.close_after_write
                && !self.peer_closed
                && self.in_buf.len() < READ_AHEAD_CAP,
            writable: self.has_output(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn fill_reads_until_wouldblock_and_sees_eof() {
        let (server, mut client) = pair();
        let mut conn = Conn::new(server, 2, Instant::now() + Duration::from_secs(5));
        client.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill().unwrap();
        assert_eq!(conn.in_buf, b"GET / HTTP/1.1\r\n");
        assert!(!conn.peer_closed);
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        conn.fill().unwrap();
        assert!(conn.peer_closed);
    }

    #[test]
    fn flush_drains_and_interest_tracks_state() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, 2, Instant::now() + Duration::from_secs(5));
        assert_eq!(conn.interest(), Interest::READ);
        conn.queue(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(conn.has_output());
        assert!(conn.interest().writable && conn.interest().readable);
        conn.flush().unwrap();
        assert!(!conn.has_output());
        conn.in_flight = true;
        assert!(
            conn.interest().readable,
            "read-ahead continues while a unit executes"
        );
        conn.in_buf = vec![0u8; READ_AHEAD_CAP];
        assert_eq!(
            conn.interest(),
            Interest::NONE,
            "read-ahead cap backpressure"
        );
        conn.in_buf.clear();
        conn.in_flight = false;
        conn.close_after_write = true;
        assert!(!conn.interest().readable);
    }
}
