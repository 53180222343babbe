//! Raw-socket smoke check for the evented HTTP server, run by
//! `scripts/verify.sh` (no curl dependency). Binds a real `Server` on an
//! ephemeral port and exercises the connection-layer contract directly:
//! keep-alive reuse, pipelined ordering, `Connection: close`, malformed
//! requests, and the request-body ceiling. Exits nonzero on any failure.
//! Prints the served `create_pool_workers` line to stdout, which
//! `scripts/verify.sh` compares with `nproc`: the process runs one pool.
//!
//! ```bash
//! cargo run --release -p create-bench --bin server_smoke
//! ```

use create_core::{Create, CreateConfig};
use create_server::{build_api, KeepAliveClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let reports = create_bench::corpus(20, 7);
    let system = Arc::new(Create::new(CreateConfig::default()));
    system.ingest_gold_batch(&reports, 0).expect("ingest");

    let server = Server::bind_with("127.0.0.1:0", build_api(system), ServerConfig::default())
        .expect("bind smoke server");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.serve());

    // Keep-alive reuse: many requests over one socket, plus pipelined
    // ordering — /health and /stats bodies differ, so out-of-order
    // responses would be caught by the body checks.
    let mut client = KeepAliveClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let responses = client
        .pipeline_get(&["/health", "/stats", "/health"])
        .expect("pipelined GETs");
    assert_eq!(responses.len(), 3);
    for resp in &responses {
        assert_eq!(resp.status, 200, "pipelined request failed");
        assert!(resp.keep_alive(), "server dropped keep-alive mid-pipeline");
    }
    assert!(
        responses[0].body_str().contains("ok"),
        "first pipelined response is not /health"
    );
    assert!(
        responses[1].body_str().contains("reports"),
        "second pipelined response is not /stats — ordering broken"
    );
    let again = client.get("/health").expect("socket reuse after pipeline");
    assert_eq!(again.status, 200);
    eprintln!("smoke: keep-alive reuse + pipelined ordering OK");

    // The requests above ran on the process's pool, so its worker gauge
    // is live by now.
    let metrics = client.get("/metrics").expect("/metrics");
    assert_eq!(metrics.status, 200);
    let workers = metrics
        .body_str()
        .lines()
        .find(|line| line.starts_with("create_pool_workers "))
        .expect("/metrics has create_pool_workers")
        .to_string();
    println!("{workers}");

    // Connection: close is honored — the response says close and the
    // server actually closes the socket.
    let mut closer = KeepAliveClient::connect(addr).expect("connect");
    closer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    closer
        .send_raw(b"GET /health HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send close request");
    let resp = closer.read_response().expect("close response");
    assert_eq!(resp.status, 200);
    assert!(!resp.keep_alive(), "Connection: close not echoed");
    assert!(
        closer.read_response().is_err(),
        "socket still open after Connection: close"
    );
    eprintln!("smoke: Connection: close honored OK");

    // Malformed request line → 400 and the connection is dropped.
    let mut bad = KeepAliveClient::connect(addr).expect("connect");
    bad.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    bad.send_raw(b"NOT-HTTP\r\n\r\n").expect("send garbage");
    let resp = bad.read_response().expect("parse-error response");
    assert_eq!(resp.status, 400, "malformed request not rejected with 400");
    eprintln!("smoke: malformed request -> 400 OK");

    // Declared body above the 8 MiB ceiling → 413 without reading it.
    let mut big = KeepAliveClient::connect(addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    big.send_raw(
        b"POST /submit HTTP/1.1\r\nHost: localhost\r\n\
          Content-Type: application/json\r\nContent-Length: 16777216\r\n\r\n",
    )
    .expect("send oversized header");
    let resp = big.read_response().expect("payload-too-large response");
    assert_eq!(resp.status, 413, "oversized body not rejected with 413");
    eprintln!("smoke: oversized body -> 413 OK");

    shutdown.shutdown();
    server_thread.join().expect("server thread");
    eprintln!("server_smoke: OK");
}
