//! Evented-server behavior under adversarial and high-concurrency
//! clients: keep-alive reuse, pipelining, slowloris timeouts, admission
//! control (429/503/413/400), and graceful drain.

use create::server::client::KeepAliveClient;
use create::server::http::{Response, Status};
use create::server::server::{http_get, ServerConfig};
use create::server::{Router, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn storm_router() -> Router {
    let mut r = Router::new();
    r.route("GET", "/ping", |_, _| Response::text(Status::Ok, "pong"));
    r.route("GET", "/echo/:id", |_, p| {
        Response::text(Status::Ok, p["id"].clone())
    });
    r.route("GET", "/slow", |_, _| {
        std::thread::sleep(Duration::from_millis(400));
        Response::text(Status::Ok, "slept")
    });
    r.route("POST", "/submit", |req, _| {
        Response::text(Status::Created, format!("got {}", req.body.len()))
    });
    r.route("GET", "/boom", |_, _| panic!("handler failure"));
    r
}

/// Spawns a serving thread, returns `(addr, shutdown, join)`.
fn spawn_server(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    create::server::server::ShutdownHandle,
    std::thread::JoinHandle<()>,
) {
    let server = Server::bind_with("127.0.0.1:0", storm_router(), config).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

#[test]
fn keep_alive_socket_serves_many_requests() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..50 {
        let resp = client.get("/ping").unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.body_str(), "pong");
        assert!(
            resp.keep_alive(),
            "HTTP/1.1 default must keep the socket open"
        );
    }
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let paths: Vec<String> = (0..16).map(|i| format!("/echo/{i}")).collect();
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let responses = client.pipeline_get(&refs).unwrap();
    assert_eq!(responses.len(), 16);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body_str(),
            i.to_string(),
            "responses must arrive in order"
        );
    }
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_close_header_is_honored() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
        .send_raw(b"GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("connection").map(String::as_str),
        Some("close")
    );
    // The server must actually close: the next read sees EOF.
    assert!(
        client.read_response().is_err(),
        "socket should be closed after Connection: close"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn keep_alive_and_close_responses_match() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut ka = KeepAliveClient::connect(addr).unwrap();
    ka.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let via_keep_alive = ka.get("/echo/xyz").unwrap();
    let (status, body) = http_get(addr, "/echo/xyz").unwrap();
    assert_eq!(via_keep_alive.status, status);
    assert_eq!(
        via_keep_alive.body_str(),
        body,
        "payload identical across framings"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn slowloris_header_trickle_gets_timed_out() {
    let config = ServerConfig {
        header_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(config);
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.send_raw(b"GET /ping HT").unwrap(); // never finishes the header
    let started = std::time::Instant::now();
    let resp = client.read_response();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server must reap the connection promptly"
    );
    // Best-effort 408 before the close; a bare EOF is also acceptable.
    if let Ok(resp) = resp {
        assert_eq!(resp.status, 408);
    }
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn idle_keep_alive_connection_is_reaped() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(config);
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(client.get("/ping").unwrap().status, 200);
    // Silent close after the idle window: EOF, no response bytes.
    assert!(client.read_response().is_err());
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn route_limit_sheds_with_429_and_retry_after() {
    let config = ServerConfig {
        route_limits: vec![("/slow".to_string(), 1)],
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(config);
    let mut busy = KeepAliveClient::connect(addr).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    busy.send_get("/slow").unwrap(); // occupies the route's single slot
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = KeepAliveClient::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = shed.get("/slow").unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    assert!(
        resp.keep_alive(),
        "shedding must not cost the client its connection"
    );
    // The shed connection keeps working for other routes.
    assert_eq!(shed.get("/ping").unwrap().status, 200);
    // And the occupied slot still completes.
    let slow = busy.read_response().unwrap();
    assert_eq!(slow.status, 200);
    assert_eq!(slow.body_str(), "slept");
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_ceiling_sheds_with_503() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(config);
    let mut a = KeepAliveClient::connect(addr).unwrap();
    let mut b = KeepAliveClient::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(a.get("/ping").unwrap().status, 200);
    assert_eq!(b.get("/ping").unwrap().status, 200);

    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = String::new();
    let _ = over.read_to_string(&mut raw); // 503 then immediate close
    assert!(
        raw.starts_with("HTTP/1.1 503"),
        "over-ceiling accept should be refused, got {raw:?}"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_body_rejected_with_413() {
    let mut config = ServerConfig::default();
    config.limits.max_body_bytes = 1024;
    let (addr, shutdown, join) = spawn_server(config);
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = "x".repeat(4096);
    client.send_post("/submit", &body).unwrap();
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 413);
    assert_eq!(
        resp.headers.get("connection").map(String::as_str),
        Some("close")
    );
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_request_gets_a_400_not_a_dropped_socket() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET /x HTTP/1.1 extra\r\n\r\n",
        b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
    ] {
        let mut client = KeepAliveClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.send_raw(raw).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 400, "{raw:?}");
        assert!(!resp.body.is_empty(), "400 carries an error envelope");
    }
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.send_get("/slow").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // request is now on a worker
    shutdown.shutdown();
    let resp = client.read_response().unwrap();
    assert_eq!(
        resp.status, 200,
        "in-flight request must finish during drain"
    );
    assert_eq!(resp.body_str(), "slept");
    join.join().unwrap();

    // After drain the server is gone: new connections fail or see EOF.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(b"GET /ping HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let n = s.read_to_string(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "drained server must not serve new requests");
        }
    }
}

#[test]
fn requests_during_drain_are_shed_with_503() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut slow = KeepAliveClient::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut bystander = KeepAliveClient::connect(addr).unwrap();
    bystander
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(bystander.get("/ping").unwrap().status, 200);

    slow.send_get("/slow").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    shutdown.shutdown();
    std::thread::sleep(Duration::from_millis(50));
    // A request racing the drain on a previously-idle connection either
    // gets shed with 503 or finds the socket already closed.
    bystander.send_get("/ping").unwrap_or(());
    if let Ok(resp) = bystander.read_response() {
        assert_eq!(resp.status, 503);
    }
    assert_eq!(slow.read_response().unwrap().status, 200);
    join.join().unwrap();
}

#[test]
fn serve_returns_after_a_handler_that_outlives_the_drain_timeout() {
    // The handler sleeps past `drain_timeout`, so the drain gives up on
    // its connection; `serve()` must still wait for the handler itself.
    let (started_tx, started) = std::sync::mpsc::channel();
    let finished = Arc::new(AtomicBool::new(false));
    let mut router = Router::new();
    {
        let finished = Arc::clone(&finished);
        router.route("GET", "/linger", move |_, _| {
            let _ = started_tx.send(());
            std::thread::sleep(Duration::from_millis(600));
            finished.store(true, Ordering::SeqCst);
            Response::text(Status::Ok, "done")
        });
    }
    let config = ServerConfig {
        drain_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", router, config).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client.send_get("/linger").unwrap();
    started
        .recv_timeout(Duration::from_secs(30))
        .expect("the handler started");
    shutdown.shutdown();
    join.join().unwrap();
    assert!(
        finished.load(Ordering::SeqCst),
        "serve() returned before a dispatched handler finished"
    );
}

#[test]
fn a_panicking_handler_answers_500_and_serve_still_returns() {
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let mut client = KeepAliveClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = client.get("/boom").unwrap();
    assert_eq!(resp.status, 500);
    assert!(!resp.keep_alive(), "a failed unit closes its connection");
    // The failed unit came back, so the drain has nothing to wait for.
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_storm_smoke() {
    // A miniature version of the bench gate: many concurrent keep-alive
    // sockets, every request answered, zero errors.
    let (addr, shutdown, join) = spawn_server(ServerConfig::default());
    let clients: Vec<_> = (0..32)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = KeepAliveClient::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut ok = 0;
                for _ in 0..25 {
                    if c.get("/ping").map(|r| r.status).unwrap_or(0) == 200 {
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let total: usize = clients.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(total, 32 * 25, "every storm request must succeed");
    shutdown.shutdown();
    join.join().unwrap();
}
