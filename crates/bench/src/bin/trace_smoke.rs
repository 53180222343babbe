//! End-to-end trace smoke check, run by `scripts/verify.sh`. Boots a
//! real sharded `Server` with the slow threshold at zero, sends a batch
//! search over a raw socket, then follows the `X-Trace-Id` response
//! header to `GET /trace/{id}` and asserts the flight recorder returns a
//! span tree that covers every shard, and that `GET /slowlog` lists the
//! same trace. Also checks that `/metrics` renders at least one
//! histogram-bucket exemplar. Prints the trace JSON, then the slowlog
//! JSON, one line each to stdout so the caller can grep them; exits
//! nonzero on any failure.
//!
//! ```bash
//! cargo run --release -p create-bench --bin trace_smoke
//! ```

use create_core::{Create, CreateConfig};
use create_server::{build_api, KeepAliveClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// GETs `path`, asserting a 200 whose body contains `needle`.
fn get_containing(client: &mut KeepAliveClient, path: &str, needle: &str) -> String {
    let resp = client.get(path).expect(path);
    let body = resp.body_str();
    assert_eq!(resp.status, 200, "GET {path}: {body}");
    assert!(body.contains(needle), "GET {path} lacks {needle}: {body}");
    eprintln!("trace_smoke: {path} has {needle} OK");
    body
}

fn main() {
    // Every request is slow at zero: the batch below lands in /slowlog.
    create_obs::set_slow_query_threshold(Duration::ZERO);
    let reports = create_bench::corpus(30, 11);
    let system = Arc::new(Create::new(CreateConfig { shards: 2 }));
    system.ingest_gold_batch(&reports, 0).expect("ingest");

    let server = Server::bind_with("127.0.0.1:0", build_api(system), ServerConfig::default())
        .expect("bind trace smoke server");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.serve());

    let mut client = KeepAliveClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Batch search: dispatch hands the queries to pool workers, each of
    // which runs keyword/graph search over both shards in turn — so the
    // recorded tree must contain per-shard child spans.
    let resp = client
        .post(
            "/search_batch",
            r#"{"queries": ["fever and productive cough", "chest pain"], "k": 5}"#,
        )
        .expect("POST /search_batch");
    assert_eq!(resp.status, 200, "batch search failed: {}", resp.body_str());
    let trace_id = resp
        .headers
        .get("x-trace-id")
        .expect("X-Trace-Id response header")
        .clone();
    assert!(!trace_id.is_empty(), "empty trace id header");
    eprintln!("trace_smoke: batch search traced as {trace_id}");

    // stdout carries the tree, then the slowlog, for the caller's greps.
    let tree = get_containing(&mut client, &format!("/trace/{trace_id}"), "keyword_shard");
    assert!(tree.contains("\"parent\""), "no parent linkage: {tree}");
    println!("{tree}");
    let listed = format!("\"traceId\":\"{trace_id}\"");
    println!("{}", get_containing(&mut client, "/slowlog", &listed));
    get_containing(&mut client, "/debug/traces", &trace_id);
    let text = get_containing(&mut client, "/metrics", "# {trace_id=\"");
    assert!(
        text.contains("create_pool_jobs_executed_total"),
        "pool series missing from /metrics"
    );

    shutdown.shutdown();
    server_thread.join().expect("server thread");
    eprintln!("trace_smoke: OK");
}
