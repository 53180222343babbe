//! End-to-end trace propagation across shards and pool workers.
//!
//! One request must produce ONE coherent span tree no matter how the
//! work fans out: `/search` scatter-gathers across shards on the
//! global pool, and `/search_batch` additionally dispatches each query
//! to a pool worker. At shard counts {1, 2, 4} the recorded tree must
//! carry exactly one keyword-shard (and graph-shard) span per shard
//! per query — and a keyword `/cohort`, which runs the same keyword leg,
//! one keyword-shard span per shard — every span must chain up to the
//! root through parent links, and the trace ID in the `X-Trace-Id` response header must
//! resolve in the flight recorder. Tracing itself must be inert:
//! rankings are bit-identical whether span recording is sampled in or
//! out.

use create::core::{Create, CreateConfig};
use create::corpus::{CaseReport, CorpusConfig, Generator};
use create::docstore::json::{parse_json, Value};
use create::server::{build_api, Request, Response, Status};
use std::collections::HashMap;
use std::sync::Mutex;

/// The flight recorder, sampling rate, and slowlog are process-global;
/// tests that touch them run serialized.
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
    let prior_rate = create::obs::trace_sample_rate();
    create::obs::set_trace_sample_rate(1.0);
    let reports = corpus(N_DOCS, 20260810);

    for &shards in &SHARD_COUNTS {
        let api = build_api(sharded(&reports, shards).into());

        // Shard-fanned single search: exactly one keyword/graph shard
        // span per shard, all under one trace.
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
    create::obs::set_trace_sample_rate(prior_rate);
}

#[test]
fn batch_slowlog_entries_carry_the_request_trace_id() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reports = corpus(N_DOCS, 20260811);
    let api = build_api(sharded(&reports, 2).into());

    let prior = create::obs::slow_query_threshold();
    create::obs::set_slow_query_threshold(std::time::Duration::ZERO);
    create::obs::clear_slow_queries();
    let resp = api.dispatch(&post(
        "/search_batch",
        r#"{"queries": ["fever and cough", "chest pain"], "k": 5}"#,
    ));
    create::obs::set_slow_query_threshold(prior);
    assert_eq!(resp.status, Status::Ok);
    let trace_id = resp.header("X-Trace-Id").expect("trace header").to_string();

    // Both batched queries ran on pool workers, yet their slowlog
    // entries carry the dispatching request's trace ID — the context
    // propagated across the pool boundary.
    let slow = create::obs::slow_queries();
    assert!(slow.len() >= 2, "both batched queries captured");
    for entry in &slow {
        let id = entry
            .trace_id
            .as_deref()
            .expect("slowlog entry has a trace id");
        assert!(!id.is_empty());
        assert_eq!(
            id, trace_id,
            "pool-worker query inherited the request trace"
        );
    }
}

#[test]
fn rankings_are_bit_identical_with_tracing_sampled_out() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reports = corpus(N_DOCS, 20260812);
    let system = sharded(&reports, 4);
    let queries = ["fever and cough", "chest pain", "headache with nausea"];

    let prior_rate = create::obs::trace_sample_rate();
    let ranking = |sys: &Create| -> Vec<Vec<(String, u64)>> {
        queries
            .iter()
            .map(|q| {
                sys.search(q, 10)
                    .into_iter()
                    .map(|h| (h.report_id, h.score.to_bits()))
                    .collect()
            })
            .collect()
    };

    create::obs::set_trace_sample_rate(1.0);
    let traced = ranking(&system);
    create::obs::set_trace_sample_rate(0.0);
    let untraced = ranking(&system);
    create::obs::set_trace_sample_rate(prior_rate);

    assert_eq!(
        traced, untraced,
        "span recording must not perturb scoring or merge order"
    );
}
