//! End-to-end trace smoke check, run by `scripts/verify.sh`. Boots a
//! real sharded `Server`, sends a batch search over a raw socket, then
//! follows the `X-Trace-Id` response header to `GET /trace/{id}` and
//! asserts the flight recorder returns a span tree that covers the
//! shard fan-out. Also checks that `/metrics` renders at least one
//! histogram-bucket exemplar. Prints the trace JSON to stdout so the
//! caller can grep it; exits nonzero on any failure.
//!
//! ```bash
//! cargo run --release -p create-bench --bin trace_smoke
//! ```

use create_core::{Create, CreateConfig};
use create_server::{build_api, KeepAliveClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
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

    // Batch search: dispatch fans queries out to pool workers, each of
    // which fans keyword/graph search out across both shards — so the
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

    let trace = client
        .get(&format!("/trace/{trace_id}"))
        .expect("GET /trace/{id}");
    assert_eq!(
        trace.status,
        200,
        "trace not recorded: {}",
        trace.body_str()
    );
    let body = trace.body_str();
    assert!(
        body.contains("keyword_shard"),
        "span tree missing shard fan-out spans: {body}"
    );
    assert!(
        body.contains("\"parent\""),
        "span tree missing parent linkage: {body}"
    );
    // stdout carries the tree for the caller's greps.
    println!("{body}");
    eprintln!("trace_smoke: /trace/{trace_id} span tree OK");

    let summaries = client.get("/debug/traces").expect("GET /debug/traces");
    assert_eq!(summaries.status, 200);
    assert!(
        summaries.body_str().contains(&trace_id),
        "recorder summary does not list the trace"
    );
    eprintln!("trace_smoke: /debug/traces lists the trace OK");

    let metrics = client.get("/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    assert!(
        text.contains("# {trace_id=\""),
        "no exemplar rendered on /metrics"
    );
    assert!(
        text.contains("create_pool_jobs_executed_total"),
        "pool series missing from /metrics"
    );
    eprintln!("trace_smoke: /metrics exemplar + pool series OK");

    shutdown.shutdown();
    server_thread.join().expect("server thread");
    eprintln!("trace_smoke: OK");
}
