//! End-to-end trace propagation across shards and pool workers.
//!
//! One request must produce ONE coherent span tree no matter where the
//! work runs: `/search` runs its shards one after another on the
//! dispatching thread (`plan::execute`), and `/search_batch` hands each
//! query to a pool worker, which inherits the request's context. At
//! shard counts {1, 2, 4} the recorded tree must carry exactly one
//! keyword-shard (and graph-shard) span per shard per query — and a
//! keyword `/cohort`, which runs the same keyword leg, one keyword-shard
//! span per shard — every span must chain up to the root through parent
//! links, and the trace ID in the `X-Trace-Id` response header must
//! resolve in the flight recorder. A slow `/search_batch` is one
//! `/slowlog` entry holding both queries' spans. Tracing itself must be
//! inert: rankings served with the tree recorded are bit-identical to
//! the facade's own.

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CaseReport, CorpusConfig, Generator};
use create::docstore::json::{parse_json, Value};
use create::server::{build_api, Request, Response, Status};
use std::collections::HashMap;
use std::sync::Mutex;

/// The flight recorder and its slow threshold are process-global; tests
/// that touch them run serialized.
static SERIAL: Mutex<()> = Mutex::new(());

const N_DOCS: usize = 40;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

fn sharded(reports: &[CaseReport], shards: usize) -> Create {
    let system = Create::new(CreateConfig { shards });
    system.ingest_gold_batch(reports, 0).expect("ingest");
    system
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: HashMap::new(),
        body: Vec::new(),
    }
}

fn post(path: &str, body: &str) -> Request {
    let mut req = get(path, &[]);
    req.method = "POST".to_string();
    req.body = body.as_bytes().to_vec();
    req
}

/// Follows the response's `X-Trace-Id` into the flight recorder and
/// returns (trace id, parsed span list).
fn fetch_trace(api: &create::server::Router, resp: &Response) -> (String, Vec<Value>) {
    let trace_id = resp.header("X-Trace-Id").expect("trace header").to_string();
    let trace = api.dispatch(&get(&format!("/trace/{trace_id}"), &[]));
    assert_eq!(
        trace.status,
        Status::Ok,
        "trace {trace_id} not recorded: {}",
        String::from_utf8_lossy(&trace.body)
    );
    let doc = parse_json(std::str::from_utf8(&trace.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("traceId").and_then(Value::as_str),
        Some(trace_id.as_str()),
        "recorded trace carries the header's id"
    );
    let spans = doc.get("spans").unwrap().as_array().unwrap().to_vec();
    (trace_id, spans)
}

fn spans_named<'a>(spans: &'a [Value], name: &str) -> Vec<&'a Value> {
    spans
        .iter()
        .filter(|s| s.get("name").and_then(Value::as_str) == Some(name))
        .collect()
}

/// Every span must reach the root (id 1) through parent links.
fn assert_parent_linkage(spans: &[Value]) {
    let ids: HashMap<i64, i64> = spans
        .iter()
        .map(|s| {
            (
                s.get("id").and_then(Value::as_i64).unwrap(),
                s.get("parent").and_then(Value::as_i64).unwrap(),
            )
        })
        .collect();
    for &id in ids.keys() {
        let mut current = id;
        let mut hops = 0;
        while current != 1 {
            current = *ids
                .get(&current)
                .and_then(|p| ids.contains_key(p).then_some(p))
                .unwrap_or_else(|| panic!("span {id} has a dangling parent chain at {current}"));
            hops += 1;
            assert!(hops < 32, "span {id} parent chain does not terminate");
        }
    }
}

#[test]
fn one_span_tree_per_request_at_every_shard_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reports = corpus(N_DOCS, 20260810);

    for &shards in &SHARD_COUNTS {
        let api = build_api(sharded(&reports, shards).into());

        // Single search, shards run in turn on the dispatching thread:
        // exactly one keyword/graph shard span per shard, all under one
        // trace.
        let resp = api.dispatch(&get("/search", &[("q", "fever and cough"), ("k", "5")]));
        assert_eq!(resp.status, Status::Ok);
        let (_, spans) = fetch_trace(&api, &resp);
        assert_parent_linkage(&spans);
        for name in ["keyword_shard", "graph_shard"] {
            let shard_spans = spans_named(&spans, name);
            assert_eq!(
                shard_spans.len(),
                shards,
                "{name}: one child span per shard at {shards} shards: {spans:?}"
            );
            let mut seen: Vec<i64> = shard_spans
                .iter()
                .map(|s| s.get("shard").and_then(Value::as_i64).unwrap())
                .collect();
            seen.sort_unstable();
            let want: Vec<i64> = (0..shards as i64).collect();
            assert_eq!(seen, want, "{name} spans cover every shard index once");
        }

        // A keyword cohort runs the same keyword leg as `/search`: one
        // keyword-shard span per shard.
        let resp = api.dispatch(&post(
            "/cohort",
            r#"{"filters":[{"field":"sex","values":["female"]}],"keywords":"fever","k":5}"#,
        ));
        assert_eq!(resp.status, Status::Ok);
        let (_, spans) = fetch_trace(&api, &resp);
        assert_parent_linkage(&spans);
        let mut seen: Vec<i64> = spans_named(&spans, "keyword_shard")
            .iter()
            .map(|s| s.get("shard").and_then(Value::as_i64).unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..shards as i64).collect::<Vec<_>>(),
            "/cohort: one keyword_shard span per shard at {shards} shards: {spans:?}"
        );

        // Batch search through the pool: each query's worker inherits
        // the dispatching request's context, so the one tree holds a
        // search span per query and queries × shards shard spans. The
        // queries differ from the warmed single search above — a cache
        // hit would skip the shard fan-out entirely.
        let resp = api.dispatch(&post(
            "/search_batch",
            r#"{"queries": ["headache with nausea", "chest pain"], "k": 5}"#,
        ));
        assert_eq!(resp.status, Status::Ok);
        let (_, spans) = fetch_trace(&api, &resp);
        assert_parent_linkage(&spans);
        let search_spans = spans_named(&spans, "search");
        assert_eq!(search_spans.len(), 2, "one search span per batched query");
        for span in &search_spans {
            assert_eq!(
                span.get("parent").and_then(Value::as_i64),
                Some(1),
                "pool-worker search spans parent to the request root"
            );
        }
        assert_eq!(
            spans_named(&spans, "keyword_shard").len(),
            2 * shards,
            "queries x shards keyword fan-out spans at {shards} shards"
        );
    }
}

#[test]
fn batch_slowlog_entries_carry_the_request_trace_id() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reports = corpus(N_DOCS, 20260811);
    let shards = 2;
    let api = build_api(sharded(&reports, shards).into());

    let prior = create::obs::slow_query_threshold();
    create::obs::set_slow_query_threshold(std::time::Duration::ZERO);
    let resp = api.dispatch(&post(
        "/search_batch",
        r#"{"queries": ["fever and cough", "chest pain"], "k": 5}"#,
    ));
    create::obs::set_slow_query_threshold(prior);
    assert_eq!(resp.status, Status::Ok);
    let trace_id = resp.header("X-Trace-Id").expect("trace header").to_string();

    // Both batched queries ran on pool workers, yet the request is one
    // slowlog entry whose tree holds both queries' spans — the context
    // propagated across the pool boundary.
    let slowlog = api.dispatch(&get("/slowlog", &[]));
    assert_eq!(slowlog.status, Status::Ok);
    let doc = parse_json(std::str::from_utf8(&slowlog.body).unwrap()).unwrap();
    let entries: Vec<&Value> = doc
        .get("entries")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e.get("traceId").and_then(Value::as_str) == Some(trace_id.as_str()))
        .collect();
    assert_eq!(entries.len(), 1, "one entry for the batch request");
    let entry = entries[0];
    assert_eq!(
        entry.get("root").and_then(Value::as_str),
        Some("/search_batch")
    );
    let spans = entry.get("spans").unwrap().as_array().unwrap();
    assert_parent_linkage(spans);
    assert_eq!(spans_named(spans, "search").len(), 2, "both queries' spans");
    assert_eq!(
        spans_named(spans, "keyword_shard").len(),
        2 * shards,
        "queries x shards keyword shard spans"
    );
}

#[test]
fn rankings_are_bit_identical_with_the_tree_recorded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reports = corpus(N_DOCS, 20260812);
    let queries = ["fever and cough", "chest pain", "headache with nausea"];

    for &shards in &SHARD_COUNTS {
        let api = build_api(sharded(&reports, shards).into());
        let reference = sharded(&reports, shards);
        for q in queries {
            let resp = api.dispatch(&get("/search", &[("q", q), ("k", "10")]));
            assert_eq!(resp.status, Status::Ok);
            let trace_id = resp.header("X-Trace-Id").expect("trace header");
            assert!(
                create::obs::find_trace(trace_id).is_some(),
                "{q:?}: the request's tree is recorded"
            );
            let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let served: Vec<(String, u64)> = doc
                .get("hits")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|h| {
                    (
                        h.get("reportId")
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_string(),
                        h.get("score").and_then(Value::as_f64).unwrap().to_bits(),
                    )
                })
                .collect();
            let want: Vec<(String, u64)> = reference
                .search_with_policy(q, 10, MergePolicy::Neo4jFirst)
                .into_iter()
                .map(|h| (h.report_id, h.score.to_bits()))
                .collect();
            assert!(!want.is_empty(), "{q:?} has hits");
            assert_eq!(
                served, want,
                "{q:?} at {shards} shards: span recording must not perturb scoring or merge order"
            );
        }
    }
}
