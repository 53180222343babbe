//! The evented TCP serving loop.
//!
//! A single readiness-driven event loop (`epoll` on Linux, `poll(2)`
//! fallback — see `create_util::poller`) owns every socket: the
//! nonblocking listener, a self-pipe waker, and one state machine per
//! connection (read header → read body → dispatch → write). Request
//! execution runs on the process's one work pool,
//! `create_util::ThreadPool::global()`; completed responses come back
//! over a channel and a waker. HTTP/1.1 keep-alive
//! and pipelining are supported, with admission control on top:
//!
//! * **connection ceiling** — accepts over [`ServerConfig::max_connections`]
//!   get a best-effort `503` and an immediate close;
//! * **per-route concurrency limits** — a route at its in-flight limit
//!   sheds with `429` + `Retry-After` while keeping the connection open;
//! * **phase deadlines** — header/body/idle/write timeouts whose clocks
//!   start at phase *transitions* (a slowloris trickling bytes cannot
//!   renew them);
//! * **graceful drain** — shutdown stops accepting, closes idle
//!   connections, lets in-flight requests finish (bounded by
//!   [`ServerConfig::drain_timeout`]), flushes, and returns once every
//!   dispatched request has run — past the timeout too, so a handler's
//!   side effects are in place when [`Server::serve`] returns.

use crate::conn::{Conn, Phase};
use crate::http::{HttpLimits, Parse, ParseErrorKind, Response, Status};
use crate::router::Router;
use create_util::poller::{wake_pipe, Interest, Poller, WakeRx, Waker};
use create_util::ThreadPool;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for the evented loop; `Default` matches production use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Open-connection ceiling; accepts beyond it are shed with `503`.
    pub max_connections: usize,
    /// From the first request byte until the blank line ending the
    /// headers.
    pub header_timeout: Duration,
    /// From headers-complete until the full `Content-Length` body.
    pub body_timeout: Duration,
    /// Kept-alive connection with no pending request.
    pub idle_timeout: Duration,
    /// Queued response bytes the socket refuses to accept.
    pub write_timeout: Duration,
    /// Grace period for in-flight requests after shutdown fires.
    pub drain_timeout: Duration,
    /// In-flight request cap per route pattern unless overridden.
    pub default_route_limit: usize,
    /// Per-route overrides of [`ServerConfig::default_route_limit`],
    /// keyed by pattern (`/search`, `/reports/:id`).
    pub route_limits: Vec<(String, usize)>,
    /// `Retry-After` seconds advertised on `429` responses.
    pub retry_after_seconds: u64,
    /// Header/body size caps (`400`/`413` past them).
    pub limits: HttpLimits,
    /// `listen(2)` backlog. `std::net::TcpListener` hardcodes 128, which
    /// a connection storm overflows — dropped SYNs retransmit seconds
    /// later and dominate tail latency.
    pub listen_backlog: usize,
    /// Forces the portable `poll(2)` backend even where epoll exists.
    pub use_poll_backend: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 1024,
            header_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            default_route_limit: 512,
            route_limits: Vec::new(),
            retry_after_seconds: 1,
            limits: HttpLimits::default(),
            listen_backlog: 1024,
            use_poll_backend: false,
        }
    }
}

impl ServerConfig {
    fn route_limit(&self, label: &str) -> usize {
        self.route_limits
            .iter()
            .find(|(pattern, _)| pattern == label)
            .map(|(_, limit)| *limit)
            .unwrap_or(self.default_route_limit)
    }
}

/// A running HTTP server.
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// Run once when [`Server::serve`] exits gracefully (e.g. to flush
    /// the document store to disk).
    on_shutdown: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({:?})", self.local_addr())
    }
}

/// Handle used to stop a serving loop from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Signals the server to drain and stop, poking it with a connection
    /// so the event loop observes the flag immediately.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds with default [`ServerConfig`] (`127.0.0.1:0` picks a port).
    pub fn bind(addr: impl ToSocketAddrs, router: Router) -> std::io::Result<Server> {
        Server::bind_with(addr, router, ServerConfig::default())
    }

    /// Binds with explicit admission-control and timeout settings.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        router: Router,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        if config.listen_backlog > 128 {
            create_util::poller::set_listen_backlog(listener.as_raw_fd(), config.listen_backlog)?;
        }
        Ok(Server {
            listener,
            router: Arc::new(router),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            on_shutdown: Mutex::new(None),
        })
    }

    /// Registers a hook that runs once when [`Server::serve`] exits after
    /// a graceful shutdown — the place to persist state (the REST demo
    /// flushes the document store here).
    pub fn on_shutdown(&self, hook: impl FnOnce() + Send + 'static) {
        let mut slot = self
            .on_shutdown
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Some(Box::new(hook));
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A handle that can stop [`Server::serve`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr(),
        }
    }

    /// Runs the event loop until the shutdown handle fires, then drains
    /// in-flight requests, waits for every dispatched one to finish, and
    /// runs the shutdown hook.
    pub fn serve(&self) {
        if let Err(e) = self.serve_evented() {
            create_obs::log(
                create_obs::Level::Error,
                "create-server",
                format!("event loop failed: {e}"),
            );
        }
        let hook = self
            .on_shutdown
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(hook) = hook {
            hook();
        }
    }

    fn serve_evented(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut event_loop = EventLoop::new(
            &self.listener,
            Arc::clone(&self.router),
            &self.config,
            &self.shutdown,
        )?;
        let result = event_loop.run();
        event_loop.await_dispatched();
        drop(event_loop);
        self.listener.set_nonblocking(false)?;
        result
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Longest pipelined run dispatched as one worker job: bounds the
/// latency a queued successor can hide behind and the batch's memory.
const MAX_UNIT: usize = 32;

/// A finished dispatch unit coming back from a worker: all responses of
/// one pipelined run, serialized in request order.
struct Completion {
    token: u64,
    /// Distinct route labels the unit held admission slots for.
    labels: Vec<String>,
    bytes: Vec<u8>,
    close_after: bool,
}

struct EventLoop<'a> {
    listener: &'a TcpListener,
    router: Arc<Router>,
    config: &'a ServerConfig,
    shutdown: &'a AtomicBool,
    poller: Poller,
    wake_rx: WakeRx,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    /// In-flight dispatch counts per route pattern (admission control).
    in_flight: HashMap<String, usize>,
    /// Units handed to the pool whose completion has not come back yet.
    dispatched: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl<'a> EventLoop<'a> {
    fn new(
        listener: &'a TcpListener,
        router: Arc<Router>,
        config: &'a ServerConfig,
        shutdown: &'a AtomicBool,
    ) -> std::io::Result<EventLoop<'a>> {
        let mut poller = if config.use_poll_backend {
            Poller::with_poll_backend()?
        } else {
            Poller::new()?
        };
        let (wake_rx, waker) = wake_pipe()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READ)?;
        let (tx, rx) = mpsc::channel();
        Ok(EventLoop {
            listener,
            router,
            config,
            shutdown,
            poller,
            wake_rx,
            waker: Arc::new(waker),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            tx,
            rx,
            in_flight: HashMap::new(),
            dispatched: 0,
            draining: false,
            drain_deadline: None,
        })
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut events = Vec::new();
        loop {
            self.poller.wait(&mut events, Some(self.next_timeout()))?;
            let now = Instant::now();
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain(now);
            }
            for ready in events.drain(..) {
                match ready.token {
                    LISTENER_TOKEN => self.accept_ready(now),
                    WAKER_TOKEN => self.wake_rx.drain(),
                    token => self.conn_ready(token, now),
                }
            }
            self.drain_completions(now);
            self.sweep_deadlines(now);
            if self.draining && self.drain_finished(now) {
                return Ok(());
            }
        }
    }

    /// How long the kernel wait may block: up to the nearest connection
    /// or drain deadline, capped at 500ms as a liveness backstop.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = Duration::from_millis(500);
        for conn in self.conns.values() {
            if let Some(deadline) = conn.deadline {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
        if let Some(deadline) = self.drain_deadline {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        timeout
    }

    fn accept_ready(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if create_obs::enabled() {
                        create_obs::counter(create_obs::names::HTTP_CONNECTIONS_ACCEPTED_TOTAL)
                            .inc();
                    }
                    if self.conns.len() >= self.config.max_connections {
                        shed("connection_ceiling", "(any)");
                        // Best-effort refusal: the socket buffer takes a
                        // small 503 even though the stream stays blocking.
                        let refusal = Response::error(
                            Status::ServiceUnavailable,
                            "connection ceiling reached",
                        )
                        .serialize(false);
                        let _ = stream.set_nonblocking(true);
                        best_effort_write(&stream, &refusal);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    let conn = Conn::new(stream, token, now + self.config.header_timeout);
                    if create_obs::enabled() {
                        create_obs::gauge(create_obs::names::HTTP_CONNECTIONS_OPEN_GAUGE).add(1);
                    }
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, now: Instant) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.fill().is_err() {
            self.close_conn(conn);
            return;
        }
        let keep = self.pump(&mut conn, now);
        self.finish(conn, keep, now);
    }

    /// Advances a connection as far as it can go: flush queued output,
    /// then parse buffered requests into a dispatch unit until blocked on
    /// the socket, a worker, or missing bytes. Returns whether to keep
    /// the connection.
    fn pump(&mut self, conn: &mut Conn, now: Instant) -> bool {
        if conn.has_output() && conn.flush().is_err() {
            return false;
        }
        if conn.in_flight {
            return true; // a unit owns the connection until it completes
        }
        if conn.has_output() {
            // The client hasn't taken what it already owes us — no new
            // work until the socket drains (bounds the output buffer
            // against a non-reading pipelining client).
            self.set_phase(conn, Phase::Write, now);
            return true;
        }
        if conn.close_after_write {
            return false;
        }

        // Collect one dispatch unit: the longest run of consecutively
        // admitted pipelined requests. The run executes in order on one
        // worker and comes back as a single completion, so a deep
        // pipeline costs one loop round trip instead of one per request.
        let mut unit: Vec<(crate::http::Request, bool)> = Vec::new();
        let mut unit_labels: Vec<String> = Vec::new();
        let mut unit_closes = false;
        while !unit_closes && !conn.close_after_write && unit.len() < MAX_UNIT {
            match crate::http::try_parse(&conn.in_buf, &self.config.limits) {
                Parse::Ready(parsed) => {
                    let crate::http::ParsedRequest {
                        request,
                        keep_alive,
                        consumed,
                    } = parsed;
                    let label = self.router.route_label(&request).to_string();
                    if self.draining {
                        if !unit.is_empty() {
                            break; // dispatch what was already admitted
                        }
                        shed("draining", &label);
                        conn.in_buf.drain(..consumed);
                        let bytes =
                            Response::error(Status::ServiceUnavailable, "server is draining")
                                .serialize(false);
                        conn.queue(&bytes);
                        conn.close_after_write = true;
                        continue;
                    }
                    // A unit holds one admission slot per distinct route:
                    // its requests execute sequentially on one worker, so
                    // it adds at most one concurrent execution per route.
                    if !unit_labels.contains(&label) {
                        let active = self.in_flight.get(&label).copied().unwrap_or(0);
                        if active >= self.config.route_limit(&label) {
                            if !unit.is_empty() {
                                // Re-evaluate once the unit completes —
                                // a slot may have freed by then.
                                break;
                            }
                            shed("route_limit", &label);
                            conn.in_buf.drain(..consumed);
                            let bytes = Response::error(
                                Status::TooManyRequests,
                                "route concurrency limit reached",
                            )
                            .with_header("Retry-After", self.config.retry_after_seconds.to_string())
                            .serialize(keep_alive);
                            conn.queue(&bytes);
                            self.count_request(conn);
                            if !keep_alive {
                                conn.close_after_write = true;
                            }
                            continue;
                        }
                        unit_labels.push(label);
                    }
                    conn.in_buf.drain(..consumed);
                    self.count_request(conn);
                    if !keep_alive {
                        unit_closes = true; // nothing after Connection: close
                    }
                    unit.push((request, keep_alive));
                }
                Parse::Incomplete { headers_done } => {
                    if unit.is_empty() && !conn.peer_closed {
                        let phase = if headers_done {
                            Phase::Body
                        } else if conn.in_buf.is_empty() {
                            Phase::Idle
                        } else {
                            Phase::Header
                        };
                        self.set_phase(conn, phase, now);
                    }
                    break;
                }
                Parse::Failed {
                    kind,
                    status,
                    message,
                } => {
                    if !unit.is_empty() {
                        break; // answer the good requests first
                    }
                    if create_obs::enabled() {
                        let name = match kind {
                            ParseErrorKind::Syntax => create_obs::names::HTTP_PARSE_ERROR_TOTAL,
                            ParseErrorKind::BodyTooLarge => {
                                create_obs::names::HTTP_BODY_REJECTED_TOTAL
                            }
                        };
                        create_obs::counter(name).inc();
                    }
                    let bytes = Response::error(status, &message).serialize(false);
                    conn.queue(&bytes);
                    conn.close_after_write = true;
                }
            }
        }
        if !unit.is_empty() {
            self.dispatch_unit(conn, unit, unit_labels, unit_closes, now);
        }

        // Epilogue: push out anything queued inline (shed/error
        // responses), then decide the connection's fate.
        if conn.has_output() && conn.flush().is_err() {
            return false;
        }
        if conn.has_output() {
            if !conn.in_flight {
                self.set_phase(conn, Phase::Write, now);
            }
            return true;
        }
        if conn.close_after_write {
            return false;
        }
        if conn.peer_closed && !conn.in_flight {
            // EOF with nothing runnable left: a clean close between
            // requests, or a request truncated mid-transfer.
            return false;
        }
        true
    }

    /// Hands a collected unit to the process's pool and takes its
    /// admission slots.
    fn dispatch_unit(
        &mut self,
        conn: &mut Conn,
        unit: Vec<(crate::http::Request, bool)>,
        labels: Vec<String>,
        unit_closes: bool,
        now: Instant,
    ) {
        for label in &labels {
            *self.in_flight.entry(label.clone()).or_insert(0) += 1;
        }
        self.dispatched += 1;
        conn.in_flight = true;
        conn.phase = Phase::Dispatch;
        conn.deadline = None;
        let router = Arc::clone(&self.router);
        let tx = self.tx.clone();
        let waker = Arc::clone(&self.waker);
        let token = conn.token;
        let admitted = now;
        ThreadPool::global().spawn(move || {
            if create_obs::enabled() {
                create_obs::histogram_with(
                    create_obs::names::HTTP_QUEUE_WAIT_SECONDS,
                    &[("route", &labels[0])],
                )
                .observe(admitted.elapsed().as_secs_f64());
            }
            let mut bytes = Vec::new();
            let mut close_after = unit_closes;
            for (request, keep_alive) in &unit {
                // A panicking handler answers 500 and closes: the unit
                // still completes, so the loop's count comes back to zero.
                let Ok(response) = catch_unwind(AssertUnwindSafe(|| router.dispatch(request)))
                else {
                    let failure = Response::error(Status::InternalServerError, "handler panicked");
                    bytes.extend_from_slice(&failure.serialize(false));
                    close_after = true;
                    break;
                };
                bytes.extend_from_slice(&response.serialize(*keep_alive));
            }
            // Send failures mean the loop already exited; nothing to do.
            let _ = tx.send(Completion {
                token,
                labels,
                bytes,
                close_after,
            });
            waker.wake();
        });
    }

    /// Counts one request consumed off a connection (keep-alive reuse
    /// telemetry).
    fn count_request(&self, conn: &mut Conn) {
        if conn.requests_served > 0 && create_obs::enabled() {
            create_obs::counter(create_obs::names::HTTP_KEEPALIVE_REUSE_TOTAL).inc();
        }
        conn.requests_served += 1;
    }

    fn drain_completions(&mut self, now: Instant) {
        while let Ok(completion) = self.rx.try_recv() {
            self.dispatched -= 1;
            for label in &completion.labels {
                if let Some(active) = self.in_flight.get_mut(label) {
                    *active -= 1;
                    if *active == 0 {
                        self.in_flight.remove(label);
                    }
                }
            }
            // The connection may have died (reset, timeout) mid-dispatch.
            let Some(mut conn) = self.conns.remove(&completion.token) else {
                continue;
            };
            conn.in_flight = false;
            conn.queue(&completion.bytes);
            if completion.close_after {
                conn.close_after_write = true;
            }
            let keep = self.pump(&mut conn, now);
            self.finish(conn, keep, now);
        }
    }

    /// Reinserts a live connection with refreshed poller interest, or
    /// closes it. Draining closes anything left idle.
    fn finish(&mut self, mut conn: Conn, keep: bool, _now: Instant) {
        if !keep {
            self.close_conn(conn);
            return;
        }
        if self.draining && !conn.in_flight && !conn.has_output() {
            self.close_conn(conn);
            return;
        }
        let wanted = conn.interest();
        if wanted != conn.registered_interest {
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, wanted);
            conn.registered_interest = wanted;
        }
        self.conns.insert(conn.token, conn);
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if create_obs::enabled() {
            create_obs::gauge(create_obs::names::HTTP_CONNECTIONS_OPEN_GAUGE).add(-1);
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }

    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| now >= d))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            let kind = match conn.phase {
                Phase::Header => "header",
                Phase::Body => "body",
                Phase::Idle => "idle",
                Phase::Write => "write",
                Phase::Dispatch => continue, // no deadline while dispatched
            };
            if create_obs::enabled() {
                create_obs::counter_with(create_obs::names::HTTP_TIMEOUTS_TOTAL, &[("kind", kind)])
                    .inc();
            }
            if matches!(conn.phase, Phase::Header | Phase::Body) {
                // A slowloris gets a well-formed refusal if the socket
                // takes it immediately; either way the connection dies.
                let bytes =
                    Response::error(Status::RequestTimeout, "request timed out").serialize(false);
                conn.queue(&bytes);
                let _ = conn.flush();
            }
            self.close_conn(conn);
        }
    }

    fn set_phase(&self, conn: &mut Conn, phase: Phase, now: Instant) {
        if conn.phase == phase {
            return; // same phase: the existing clock keeps running
        }
        conn.phase = phase;
        conn.deadline = Some(
            now + match phase {
                Phase::Idle => self.config.idle_timeout,
                Phase::Header => self.config.header_timeout,
                Phase::Body => self.config.body_timeout,
                Phase::Write => self.config.write_timeout,
                Phase::Dispatch => return,
            },
        );
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.drain_deadline = Some(now + self.config.drain_timeout);
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.in_flight && !c.has_output())
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            if let Some(conn) = self.conns.remove(&token) {
                self.close_conn(conn);
            }
        }
    }

    /// Blocks until every dispatched unit has come back. A drain that hit
    /// its deadline closed their connections, but the handlers still run
    /// to the end; their responses go nowhere.
    fn await_dispatched(&mut self) {
        while self.dispatched > 0 {
            let _unanswered = self.rx.recv().expect("the loop holds a sender itself");
            self.dispatched -= 1;
        }
    }

    fn drain_finished(&mut self, now: Instant) -> bool {
        if self.conns.is_empty() {
            return true;
        }
        if self.drain_deadline.is_some_and(|d| now >= d) {
            let remaining: Vec<u64> = self.conns.keys().copied().collect();
            for token in remaining {
                if let Some(conn) = self.conns.remove(&token) {
                    self.close_conn(conn);
                }
            }
            return true;
        }
        false
    }
}

impl Drop for EventLoop<'_> {
    fn drop(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn shed(reason: &str, route: &str) {
    if create_obs::enabled() {
        create_obs::counter_with(
            create_obs::names::HTTP_SHED_TOTAL,
            &[("reason", reason), ("route", route)],
        )
        .inc();
    }
}

/// One nonblocking best-effort write (the connection-ceiling refusal):
/// whatever the socket buffer takes, no retries, no error reporting.
fn best_effort_write(mut stream: &TcpStream, bytes: &[u8]) {
    use std::io::Write;
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Minimal test/bench client: sends one request, returns `(status, body)`.
pub fn http_get(
    addr: std::net::SocketAddr,
    path_and_query: &str,
) -> std::io::Result<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path_and_query} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Minimal POST client.
pub fn http_post(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let response_body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, response_body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    fn test_router() -> Router {
        let mut r = Router::new();
        r.route("GET", "/ping", |_, _| Response::text(Status::Ok, "pong"));
        r.route("POST", "/echo", |req, _| {
            Response::text(Status::Ok, String::from_utf8_lossy(&req.body).into_owned())
        });
        r
    }

    #[test]
    fn serves_post_and_shutdown() {
        let server = Server::bind("127.0.0.1:0", test_router()).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.serve());
        let (status, body) = http_post(addr, "/echo", "hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello");
        // Unknown route → 404.
        let (status, _) = http_get(addr, "/missing").unwrap();
        assert_eq!(status, 404);
        handle.shutdown();
        t.join().unwrap();
    }

    #[test]
    fn shutdown_hook_runs_once_on_graceful_exit() {
        let server = Server::bind("127.0.0.1:0", test_router()).unwrap();
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        server.on_shutdown(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.serve());
        assert_eq!(fired.load(Ordering::SeqCst), 0, "hook waits for shutdown");
        handle.shutdown();
        t.join().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook ran exactly once");
    }

    #[test]
    fn concurrent_requests() {
        let server = Server::bind("127.0.0.1:0", test_router()).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.serve());
        let mut clients = Vec::new();
        for _ in 0..8 {
            clients.push(std::thread::spawn(move || http_get(addr, "/ping").unwrap()));
        }
        for c in clients {
            let (status, body) = c.join().unwrap();
            assert_eq!((status, body.as_str()), (200, "pong"));
        }
        handle.shutdown();
        t.join().unwrap();
    }

    #[test]
    fn poll_backend_serves_requests() {
        let config = ServerConfig {
            use_poll_backend: true,
            ..ServerConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", test_router(), config).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.serve());
        let (status, body) = http_get(addr, "/ping").unwrap();
        assert_eq!((status, body.as_str()), (200, "pong"));
        handle.shutdown();
        t.join().unwrap();
    }
}
