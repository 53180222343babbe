//! The CREATe REST API.
//!
//! Endpoints (the demo's service surface):
//!
//! | Method | Path                          | Description |
//! |--------|-------------------------------|-------------|
//! | GET    | `/health`                     | liveness |
//! | GET    | `/stats`                      | store/graph/index counters |
//! | GET    | `/search?q=…&k=…&policy=…`    | CREATe-IR search |
//! | GET    | `/reports/:id`                | stored report document |
//! | GET    | `/reports/:id/annotations`    | BRAT standoff export |
//! | GET    | `/reports/:id/graph.svg`      | Fig-7 visualization |
//! | POST   | `/cohort`                     | cohort retrieval: criteria JSON (facet filters, keywords, temporal constraints, facet counts) |
//! | POST   | `/submit`                     | raw-text submission (JSON) |
//! | POST   | `/search_batch`               | batched queries, answered in parallel |
//! | POST   | `/submit_batch`               | batched raw-text submissions, extracted in parallel |
//! | POST   | `/flush`                      | seal WAL tails into segments |
//! | GET    | `/metrics`                    | Prometheus text exposition of the obs registry |
//! | GET    | `/slowlog`                    | recorded span trees of requests over the slow threshold, with their query parameters |
//! | GET    | `/trace/:id`                  | recorded span tree for one request (flight recorder) |
//! | GET    | `/debug/traces`               | recorder summaries + ring capacities |
//!
//! The platform is shared as a plain `Arc<Create>`: reads run against the
//! currently published snapshot without any server-side locking, and
//! writes serialize inside the facade's writer half — the API layer holds
//! no lock of its own.

use crate::http::{Response, Status};
use crate::router::Router;
use create_core::{Create, IngestError, MergePolicy, StorageError};
use create_docstore::json::{obj, parse_json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn policy_from(name: Option<&str>) -> Result<MergePolicy, String> {
    match name.unwrap_or("neo4j_first") {
        "neo4j_first" => Ok(MergePolicy::Neo4jFirst),
        "es_first" => Ok(MergePolicy::EsFirst),
        "es_only" => Ok(MergePolicy::EsOnly),
        "graph_only" => Ok(MergePolicy::GraphOnly),
        "interleave" => Ok(MergePolicy::Interleave),
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// A submitted document's `year`: 2020 when the field is absent,
/// otherwise it must be an integer that fits `u32`.
fn year_from(doc: &Value) -> Result<u32, &'static str> {
    let Some(year) = doc.get("year") else {
        return Ok(2020);
    };
    year.as_i64()
        .and_then(|year| u32::try_from(year).ok())
        .ok_or("year must be an integer from 0 to 4294967295")
}

/// The answer to a failed write: a storage failure is the server's
/// ([`storage_error_response`]); every other error is the request's
/// (400).
fn ingest_error_response(e: &IngestError) -> Response {
    match e {
        IngestError::Storage(e) => storage_error_response(e),
        IngestError::NoTagger
        | IngestError::Duplicate(_)
        | IngestError::Pdf(_)
        | IngestError::Index(_)
        | IngestError::Config(_) => Response::error(Status::BadRequest, &e.to_string()),
    }
}

/// The answer to a storage failure, on a write or on a read of a sealed
/// report: 500, with its class — `io` is disk-level and often transient,
/// `corruption` needs an operator — and the error, which names the file.
fn storage_error_response(e: &StorageError) -> Response {
    let kind = if e.is_corruption() {
        "corruption"
    } else {
        "io"
    };
    Response::error(
        Status::InternalServerError,
        &format!("storage failed ({kind}): {e}"),
    )
}

/// Builds the API router over a shared platform instance.
pub fn build_api(system: Arc<Create>) -> Router {
    let mut router = Router::new();

    router.route("GET", "/health", |_, _| {
        Response::json(Status::Ok, obj([("status", "ok".into())]).to_json())
    });

    {
        let system = Arc::clone(&system);
        router.route("GET", "/stats", move |_, _| {
            let stats = system.stats();
            let cache = system.cache_stats();
            let shard_generations: Vec<Value> = system
                .shard_generations()
                .into_iter()
                .map(|g| Value::from(g as i64))
                .collect();
            let storage = system.storage_stats();
            // Per shard: its index's segments in RAM beside its files.
            let shard_segments: Vec<Value> = system
                .shard_segments()
                .into_iter()
                .map(|s| {
                    obj([
                        ("disk_segments", (s.disk as i64).into()),
                        ("ram_segments", (s.ram as i64).into()),
                    ])
                })
                .collect();
            let mut memory = Value::object();
            for (component, bytes) in system.memory_stats().components() {
                memory.set(format!("{component}_bytes"), bytes);
            }
            let doc = obj([
                ("reports", (stats.reports as i64).into()),
                ("graph_nodes", (stats.graph_nodes as i64).into()),
                ("graph_edges", (stats.graph_edges as i64).into()),
                ("index_terms", (stats.index_terms as i64).into()),
                ("memory", memory),
                ("cache_hits", (cache.hits as i64).into()),
                ("cache_misses", (cache.misses as i64).into()),
                ("cache_entries", (cache.entries as i64).into()),
                ("index_generation", (cache.generation as i64).into()),
                ("shards", (system.shard_count() as i64).into()),
                ("shard_generations", Value::Array(shard_generations)),
                (
                    "segments",
                    (storage.map_or(0, |s| s.segments) as i64).into(),
                ),
                (
                    "segment_bytes",
                    storage.map_or(0, |s| s.segment_bytes as i64).into(),
                ),
                ("storage", Value::Array(shard_segments)),
            ]);
            Response::json(Status::Ok, doc.to_json())
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("GET", "/search", move |req, _| {
            let Some(q) = req.param("q") else {
                return Response::error(Status::BadRequest, "missing q parameter");
            };
            let k = req
                .param("k")
                .and_then(|k| k.parse::<usize>().ok())
                .unwrap_or(10)
                .clamp(1, 100);
            let policy = match policy_from(req.param("policy")) {
                Ok(p) => p,
                Err(m) => return Response::error(Status::BadRequest, &m),
            };
            let answer = system.search_answer(q, k, policy);
            Response::json(Status::Ok, answer.body().to_string())
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("GET", "/reports/:id", move |_, params| {
            match system.report(&params["id"]) {
                Ok(Some(doc)) => Response::json(Status::Ok, doc.to_json()),
                Ok(None) => Response::error(Status::NotFound, "no such report"),
                Err(e) => storage_error_response(&e),
            }
        });
    }

    {
        let system = Arc::clone(&system);
        router.route(
            "GET",
            "/reports/:id/annotations",
            move |_, params| match system.annotations(&params["id"]) {
                Ok(Some(brat)) => Response::text(Status::Ok, brat.serialize()),
                Ok(None) => Response::error(Status::NotFound, "no annotations"),
                Err(e) => storage_error_response(&e),
            },
        );
    }

    {
        let system = Arc::clone(&system);
        router.route(
            "GET",
            "/reports/:id/graph.svg",
            move |_, params| match system.visualize(&params["id"]) {
                Ok(Some(svg)) => Response::svg(svg),
                Ok(None) => Response::error(Status::NotFound, "no graph for report"),
                Err(e) => storage_error_response(&e),
            },
        );
    }

    {
        let system = Arc::clone(&system);
        router.route("POST", "/cohort", move |req, _| {
            let Some(body) = req.body_str() else {
                return Response::error(Status::BadRequest, "body must be UTF-8");
            };
            let criteria = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
            };
            match system.cohort_from_json(&criteria) {
                Ok(result) => Response::json(Status::Ok, result.to_json().to_json()),
                Err(e) => Response::error(Status::BadRequest, &e),
            }
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("POST", "/submit", move |req, _| {
            let Some(body) = req.body_str() else {
                return Response::error(Status::BadRequest, "body must be UTF-8");
            };
            let parsed = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
            };
            let (Some(id), Some(title), Some(text)) = (
                parsed.get("id").and_then(Value::as_str),
                parsed.get("title").and_then(Value::as_str),
                parsed.get("text").and_then(Value::as_str),
            ) else {
                return Response::error(Status::BadRequest, "need id, title, text fields");
            };
            let year = match year_from(&parsed) {
                Ok(year) => year,
                Err(m) => return Response::error(Status::BadRequest, m),
            };
            match system.ingest_text(id, title, text, year) {
                Ok(()) => Response::json(Status::Created, obj([("ingested", id.into())]).to_json()),
                Err(e) => ingest_error_response(&e),
            }
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("POST", "/search_batch", move |req, _| {
            let Some(body) = req.body_str() else {
                return Response::error(Status::BadRequest, "body must be UTF-8");
            };
            let parsed = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
            };
            let Some(queries) = parsed.get("queries").and_then(Value::as_array) else {
                return Response::error(Status::BadRequest, "need a queries array");
            };
            let queries: Vec<&str> = match queries
                .iter()
                .map(|q| q.as_str().ok_or(()))
                .collect::<Result<_, _>>()
            {
                Ok(qs) => qs,
                Err(()) => return Response::error(Status::BadRequest, "queries must be strings"),
            };
            let k = parsed
                .get("k")
                .and_then(Value::as_i64)
                .unwrap_or(10)
                .clamp(1, 100) as usize;
            let policy = match policy_from(parsed.get("policy").and_then(Value::as_str)) {
                Ok(p) => p,
                Err(m) => return Response::error(Status::BadRequest, &m),
            };
            let all_hits = system.search_many(&queries, k, policy);
            let results: Vec<Value> = queries
                .iter()
                .zip(all_hits)
                .map(|(q, hits)| {
                    let hits_json: Vec<Value> = hits.iter().map(|h| h.to_json()).collect();
                    obj([("query", (*q).into()), ("hits", Value::Array(hits_json))])
                })
                .collect();
            Response::json(
                Status::Ok,
                obj([("results", Value::Array(results))]).to_json(),
            )
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("POST", "/submit_batch", move |req, _| {
            let Some(body) = req.body_str() else {
                return Response::error(Status::BadRequest, "body must be UTF-8");
            };
            let parsed = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
            };
            let Some(docs) = parsed.get("documents").and_then(Value::as_array) else {
                return Response::error(Status::BadRequest, "need a documents array");
            };
            let mut submissions = Vec::with_capacity(docs.len());
            for doc in docs {
                let (Some(id), Some(title), Some(text)) = (
                    doc.get("id").and_then(Value::as_str),
                    doc.get("title").and_then(Value::as_str),
                    doc.get("text").and_then(Value::as_str),
                ) else {
                    return Response::error(
                        Status::BadRequest,
                        "every document needs id, title, text fields",
                    );
                };
                let year = match year_from(doc) {
                    Ok(year) => year,
                    Err(m) => return Response::error(Status::BadRequest, m),
                };
                submissions.push(create_core::TextSubmission {
                    id: id.to_string(),
                    title: title.to_string(),
                    text: text.to_string(),
                    year,
                });
            }
            match system.ingest_text_batch(&submissions, 0) {
                Ok(count) => Response::json(
                    Status::Created,
                    obj([("ingested", (count as i64).into())]).to_json(),
                ),
                Err(e) => ingest_error_response(&e),
            }
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("POST", "/flush", move |_, _| match system.flush() {
            Ok(()) => {
                // Flush now also seals segments; report what is durable
                // so operators can see the swap landed.
                let storage = system.storage_stats();
                Response::json(
                    Status::Ok,
                    obj([
                        ("flushed", true.into()),
                        (
                            "segments",
                            (storage.map_or(0, |s| s.segments) as i64).into(),
                        ),
                        (
                            "segment_bytes",
                            storage.map_or(0, |s| s.segment_bytes as i64).into(),
                        ),
                    ])
                    .to_json(),
                )
            }
            Err(e) => ingest_error_response(&e),
        });
    }

    {
        let system = Arc::clone(&system);
        router.route("GET", "/metrics", move |_, _| {
            // Size gauges are refreshed at scrape time — the counters
            // and histograms maintain themselves as traffic flows.
            {
                let stats = system.stats();
                let cache = system.cache_stats();
                use create_obs::names as n;
                create_obs::gauge(n::REPORTS_GAUGE).set(stats.reports as i64);
                create_obs::gauge(n::GRAPH_NODES_GAUGE).set(stats.graph_nodes as i64);
                create_obs::gauge(n::GRAPH_EDGES_GAUGE).set(stats.graph_edges as i64);
                create_obs::gauge(n::INDEX_TERMS_GAUGE).set(stats.index_terms as i64);
                create_obs::gauge(n::QUERY_CACHE_ENTRIES_GAUGE).set(cache.entries as i64);
                create_obs::gauge(n::INDEX_GENERATION_GAUGE).set(cache.generation as i64);
                for (i, gen) in system.shard_generations().into_iter().enumerate() {
                    create_obs::gauge_with(n::SHARD_GENERATION_GAUGE, &[("shard", &i.to_string())])
                        .set(gen as i64);
                }
                // Refreshes the segment count/bytes gauges from the
                // live manifest (no-op for in-memory instances) and the
                // resident-bytes gauges from the published snapshot.
                let _ = system.storage_stats();
                let _ = system.memory_stats();
            }
            let mut resp = Response::text(Status::Ok, create_obs::render_prometheus());
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
            resp
        });
    }

    router.route(
        "GET",
        "/trace/:id",
        |_, params| match create_obs::find_trace(&params["id"]) {
            Some(t) => Response::json(Status::Ok, trace_json(&t).to_json()),
            None => Response::error(
                Status::NotFound,
                "no recorded trace with that id (evicted or never seen)",
            ),
        },
    );

    router.route("GET", "/debug/traces", |_, _| {
        let traces: Vec<Value> = create_obs::trace_summaries()
            .iter()
            .map(|s| {
                obj([
                    ("traceId", s.trace_id.clone().into()),
                    ("root", s.root.clone().into()),
                    ("totalSeconds", s.total_seconds.into()),
                    ("slow", s.slow.into()),
                    ("spans", (s.spans as i64).into()),
                ])
            })
            .collect();
        let doc = obj([
            ("capacity", (create_obs::RECORDER_CAPACITY as i64).into()),
            (
                "slowCapacity",
                (create_obs::RECORDER_SLOW_CAPACITY as i64).into(),
            ),
            ("traces", Value::Array(traces)),
        ]);
        Response::json(Status::Ok, doc.to_json())
    });

    router.route("GET", "/slowlog", |_, _| {
        let entries: Vec<Value> = create_obs::slow_traces().iter().map(trace_json).collect();
        let doc = obj([
            (
                "threshold_seconds",
                create_obs::slow_query_threshold().as_secs_f64().into(),
            ),
            ("entries", Value::Array(entries)),
        ]);
        Response::json(Status::Ok, doc.to_json())
    });

    router
}

/// A recorded trace as `/trace/{id}` and `/slowlog` serve it: the span
/// tree, each counter summed over the tree, and (on slow traces) the
/// request's query parameters.
fn trace_json(t: &create_obs::TraceRecord) -> Value {
    let mut totals = BTreeMap::new();
    for (name, value) in t.spans.iter().flat_map(|s| &s.counters) {
        *totals.entry(name.clone()).or_insert(0) += *value;
    }
    let totals = totals.into_iter().map(|(n, v)| (n, Value::from(v as i64)));
    let params = t
        .params
        .iter()
        .map(|(k, v)| (k.clone(), Value::from(v.as_str())));
    let spans: Vec<Value> = t
        .spans
        .iter()
        .map(|s| {
            let counters: Vec<Value> = s
                .counters
                .iter()
                .map(|(name, value)| {
                    obj([
                        ("name", name.clone().into()),
                        ("value", (*value as i64).into()),
                    ])
                })
                .collect();
            obj([
                ("id", (s.id as i64).into()),
                ("parent", (s.parent as i64).into()),
                ("name", s.name.clone().into()),
                (
                    "shard",
                    s.shard
                        .map(|x| Value::from(x as i64))
                        .unwrap_or(Value::Null),
                ),
                ("startSeconds", s.start_seconds.into()),
                ("durationSeconds", s.duration_seconds.into()),
                ("counters", Value::Array(counters)),
            ])
        })
        .collect();
    obj([
        ("traceId", t.trace_id.clone().into()),
        ("root", t.root.clone().into()),
        ("totalSeconds", t.total_seconds.into()),
        ("slow", t.slow.into()),
        ("params", Value::Object(params.collect())),
        ("counterTotals", Value::Object(totals.collect())),
        ("spans", Value::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use create_core::CreateConfig;
    use create_corpus::{CorpusConfig, Generator};
    use std::collections::HashMap;

    fn system() -> Arc<Create> {
        let create = Create::new(CreateConfig::default());
        for r in Generator::new(CorpusConfig {
            num_reports: 15,
            seed: 77,
            ..Default::default()
        })
        .generate()
        {
            create.ingest_gold(&r).unwrap();
        }
        Arc::new(create)
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

    #[test]
    fn health_and_stats() {
        let api = build_api(system());
        let h = api.dispatch(&get("/health", &[]));
        assert_eq!(h.status, Status::Ok);
        let s = api.dispatch(&get("/stats", &[]));
        let doc = parse_json(std::str::from_utf8(&s.body).unwrap()).unwrap();
        assert_eq!(doc.get("reports").unwrap().as_i64(), Some(15));
        for field in [
            "cache_hits",
            "cache_misses",
            "cache_entries",
            "index_generation",
        ] {
            assert!(doc.get(field).is_some(), "stats should expose {field}");
        }
    }

    #[test]
    fn stats_report_each_shards_segments_in_ram_and_on_disk() {
        let reports = Generator::new(CorpusConfig {
            num_reports: 4,
            seed: 78,
            ..Default::default()
        })
        .generate();
        let create = Arc::new(Create::new(CreateConfig { shards: 1 }));
        create.ingest_gold_batch(&reports[..3], 1).unwrap();
        let api = build_api(Arc::clone(&create));
        let segments = || {
            let s = api.dispatch(&get("/stats", &[]));
            let doc = parse_json(std::str::from_utf8(&s.body).unwrap()).unwrap();
            let Some(Value::Array(shards)) = doc.get("storage") else {
                panic!("storage is an array of shards")
            };
            let count = |shard: &Value, key| shard.get(key).and_then(Value::as_i64);
            shards
                .iter()
                .map(|shard| (count(shard, "ram_segments"), count(shard, "disk_segments")))
                .collect::<Vec<_>>()
        };
        assert_eq!(segments(), [(Some(1), Some(0))]);
        // An in-memory flush changes nothing; the next write freezes
        // its document as a segment beside the first.
        create.flush().unwrap();
        create.ingest_gold(&reports[3]).unwrap();
        assert_eq!(segments(), [(Some(2), Some(0))]);
    }

    #[test]
    fn stats_reflect_cache_hits_and_misses() {
        let api = build_api(system());
        let _ = api.dispatch(&get("/search", &[("q", "fever"), ("k", "5")]));
        let _ = api.dispatch(&get("/search", &[("q", "fever"), ("k", "5")]));
        let s = api.dispatch(&get("/stats", &[]));
        let doc = parse_json(std::str::from_utf8(&s.body).unwrap()).unwrap();
        assert_eq!(doc.get("cache_hits").unwrap().as_i64(), Some(1));
        assert!(doc.get("cache_misses").unwrap().as_i64().unwrap() >= 1);
        assert!(doc.get("cache_entries").unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn search_accepts_every_policy() {
        let api = build_api(system());
        for policy in [
            "neo4j_first",
            "es_first",
            "es_only",
            "graph_only",
            "interleave",
        ] {
            let resp = api.dispatch(&get(
                "/search",
                &[("q", "fever and cough"), ("k", "5"), ("policy", policy)],
            ));
            assert_eq!(resp.status, Status::Ok, "policy {policy}");
            let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let hits = doc.get("hits").unwrap().as_array().unwrap();
            for hit in hits {
                let source = hit.get("source").unwrap().as_str().unwrap();
                match policy {
                    "es_only" => assert_eq!(source, "keyword", "policy {policy}"),
                    "graph_only" => assert_eq!(source, "graph", "policy {policy}"),
                    _ => assert!(source == "keyword" || source == "graph"),
                }
            }
        }
    }

    #[test]
    fn search_batch_accepts_every_policy() {
        let api = build_api(system());
        for policy in [
            "neo4j_first",
            "es_first",
            "es_only",
            "graph_only",
            "interleave",
        ] {
            let mut req = get("/search_batch", &[]);
            req.method = "POST".to_string();
            req.body =
                format!(r#"{{"queries": ["fever and cough"], "k": 5, "policy": "{policy}"}}"#)
                    .into_bytes();
            let resp = api.dispatch(&req);
            assert_eq!(resp.status, Status::Ok, "policy {policy}");
            let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let results = doc.get("results").unwrap().as_array().unwrap();
            assert_eq!(results.len(), 1, "policy {policy}");
            // The batched result matches the single-query endpoint under
            // the same policy.
            let single = api.dispatch(&get(
                "/search",
                &[("q", "fever and cough"), ("k", "5"), ("policy", policy)],
            ));
            let single_doc = parse_json(std::str::from_utf8(&single.body).unwrap()).unwrap();
            assert_eq!(
                results[0].get("hits"),
                single_doc.get("hits"),
                "policy {policy}"
            );
        }
    }

    #[test]
    fn search_endpoint_returns_hits_and_ie() {
        let api = build_api(system());
        let resp = api.dispatch(&get("/search", &[("q", "fever and cough"), ("k", "5")]));
        assert_eq!(resp.status, Status::Ok);
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(doc.get("hits").unwrap().as_array().is_some());
        assert!(!doc.get("mentions").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn search_requires_q() {
        let api = build_api(system());
        let resp = api.dispatch(&get("/search", &[]));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn search_rejects_unknown_policy() {
        let api = build_api(system());
        let resp = api.dispatch(&get("/search", &[("q", "x"), ("policy", "bogus")]));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn report_endpoints() {
        let sys = system();
        let id = sys
            .search("fever", 1)
            .first()
            .map(|h| h.report_id.clone())
            .unwrap_or_else(|| "pmid:30000000".to_string());
        let api = build_api(sys);
        let report = api.dispatch(&get(&format!("/reports/{id}"), &[]));
        assert_eq!(report.status, Status::Ok, "report {id} should exist");
        let ann = api.dispatch(&get(&format!("/reports/{id}/annotations"), &[]));
        assert_eq!(ann.status, Status::Ok);
        assert!(String::from_utf8(ann.body).unwrap().starts_with('T'));
        let svg = api.dispatch(&get(&format!("/reports/{id}/graph.svg"), &[]));
        assert_eq!(svg.status, Status::Ok);
        assert_eq!(svg.content_type, "image/svg+xml");
        let missing = api.dispatch(&get("/reports/nope", &[]));
        assert_eq!(missing.status, Status::NotFound);
    }

    #[test]
    fn submit_without_tagger_fails_cleanly() {
        let api = build_api(system());
        let mut req = get("/submit", &[]);
        req.method = "POST".to_string();
        req.body = br#"{"id": "user:1", "title": "t", "text": "fever."}"#.to_vec();
        let resp = api.dispatch(&req);
        // No tagger attached in this fixture → 400 with a clear error.
        assert_eq!(resp.status, Status::BadRequest);
        assert!(String::from_utf8(resp.body).unwrap().contains("tagger"));
    }

    #[test]
    fn search_batch_matches_individual_searches() {
        let api = build_api(system());
        let mut req = get("/search_batch", &[]);
        req.method = "POST".to_string();
        req.body = br#"{"queries": ["fever and cough", "chest pain"], "k": 5}"#.to_vec();
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::Ok);
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        // Each batched result equals the corresponding single-query call.
        for result in results {
            let q = result.get("query").unwrap().as_str().unwrap();
            let single = api.dispatch(&get("/search", &[("q", q), ("k", "5")]));
            let single_doc = parse_json(std::str::from_utf8(&single.body).unwrap()).unwrap();
            assert_eq!(result.get("hits"), single_doc.get("hits"), "query {q:?}");
        }
    }

    #[test]
    fn search_batch_validates_input() {
        let api = build_api(system());
        let mut req = get("/search_batch", &[]);
        req.method = "POST".to_string();
        req.body = b"{not json".to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        req.body = br#"{"queries": "not an array"}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        req.body = br#"{"queries": [1, 2]}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        req.body = br#"{"queries": ["x"], "policy": "bogus"}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
    }

    #[test]
    fn submit_batch_without_tagger_fails_cleanly() {
        let api = build_api(system());
        let mut req = get("/submit_batch", &[]);
        req.method = "POST".to_string();
        req.body = br#"{"documents": [{"id": "user:1", "title": "t", "text": "fever."}]}"#.to_vec();
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::BadRequest);
        assert!(String::from_utf8(resp.body).unwrap().contains("tagger"));
        // Malformed documents are rejected before touching the system.
        req.body = br#"{"documents": [{"id": "user:2"}]}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
    }

    #[test]
    fn submit_routes_reject_a_year_that_is_not_a_u32() {
        let api = build_api(system());
        for year in ["-1", "4294967296", r#""2019""#, "2019.5"] {
            let doc =
                format!(r#"{{"id": "user:y", "title": "t", "text": "fever.", "year": {year}}}"#);
            for (path, body) in [
                ("/submit", doc.clone()),
                ("/submit_batch", format!(r#"{{"documents": [{doc}]}}"#)),
            ] {
                let mut req = get(path, &[]);
                req.method = "POST".to_string();
                req.body = body.into_bytes();
                let resp = api.dispatch(&req);
                assert_eq!(resp.status, Status::BadRequest, "{path} year {year}");
                let message = String::from_utf8(resp.body).unwrap();
                assert!(message.contains("year"), "{path} year {year}: {message}");
            }
        }
    }

    #[test]
    fn flush_endpoint_persists_in_memory_noop() {
        let api = build_api(system());
        let mut req = get("/flush", &[]);
        req.method = "POST".to_string();
        let resp = api.dispatch(&req);
        // In-memory store: flush persists nothing and succeeds.
        assert_eq!(resp.status, Status::Ok);
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("flushed").unwrap().as_bool(), Some(true));
        // GET on the admin route is not allowed.
        assert_eq!(
            api.dispatch(&get("/flush", &[])).status,
            Status::MethodNotAllowed
        );
    }

    #[test]
    fn stats_payload_keeps_its_key_order() {
        // The /stats JSON is a stable surface: the serializer emits keys
        // alphabetically, so any drift in the key set or order is a
        // byte-level break for consumers diffing against prior releases.
        let api = build_api(system());
        let resp = api.dispatch(&get("/stats", &[]));
        let text = String::from_utf8(resp.body).unwrap();
        let expected = [
            "cache_entries",
            "cache_hits",
            "cache_misses",
            "graph_edges",
            "graph_nodes",
            "index_generation",
            "index_terms",
            "memory",
            "reports",
            "segment_bytes",
            "segments",
            "shard_generations",
            "shards",
            "storage",
        ];
        let mut pos = 0;
        for key in expected {
            let idx = text
                .find(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("missing {key}"));
            assert!(idx >= pos, "{key} appears out of order in {text}");
            pos = idx;
        }
    }

    #[test]
    fn every_route_sets_a_unique_trace_id() {
        let api = build_api(system());
        let mut ids = std::collections::HashSet::new();
        for path in [
            "/health",
            "/stats",
            "/metrics",
            "/slowlog",
            "/no_such_route",
        ] {
            let resp = api.dispatch(&get(path, &[]));
            let id = resp
                .header("X-Trace-Id")
                .unwrap_or_else(|| panic!("{path} missing X-Trace-Id"))
                .to_string();
            assert_eq!(id.len(), 16, "{path} trace id {id:?}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{path}");
            assert!(ids.insert(id), "{path} reused a trace id");
        }
    }

    #[test]
    fn metrics_renders_valid_exposition_after_traffic() {
        let api = build_api(system());
        let _ = api.dispatch(&get("/search", &[("q", "fever and cough"), ("k", "5")]));
        let resp = api.dispatch(&get("/metrics", &[]));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            resp.content_type,
            "text/plain; version=0.0.4; charset=utf-8"
        );
        let text = String::from_utf8(resp.body).unwrap();
        // Every pipeline stage histogram renders (pre-registered even
        // when gold ingest skipped the text pipeline), the DAAT/cache/
        // graph counters exist, and the size gauges carry /stats values.
        for stage in create_obs::names::PIPELINE_STAGES {
            assert!(
                text.contains(&format!(
                    "create_pipeline_stage_seconds_bucket{{stage=\"{stage}\""
                )),
                "missing pipeline stage {stage}"
            );
        }
        for stage in create_obs::names::QUERY_STAGES {
            assert!(
                text.contains(&format!(
                    "create_query_stage_seconds_bucket{{stage=\"{stage}\""
                )),
                "missing query stage {stage}"
            );
        }
        for series in [
            "create_daat_postings_advanced_total",
            "create_query_cache_hits_total",
            "create_query_cache_misses_total",
            "create_graph_exec_nodes_visited_total",
            "create_search_policy_total{policy=\"neo4j_first\"}",
            "create_http_requests_total",
            "create_query_seconds_count",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
        assert!(text.contains("create_reports 15"), "reports gauge: {text}");
        // Exposition-format sanity: every line is a comment or
        // `name{labels} value` with a numeric value.
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable sample line: {line}"
            );
        }
    }

    /// Serializes the tests that move the process-wide slow threshold.
    static THRESHOLD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Dispatches `req` with the slow threshold at `threshold`, returning
    /// the response's trace id.
    fn traced_at(api: &Router, req: &Request, threshold: std::time::Duration) -> String {
        let _serial = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
        let prior = create_obs::slow_query_threshold();
        create_obs::set_slow_query_threshold(threshold);
        let resp = api.dispatch(req);
        create_obs::set_slow_query_threshold(prior);
        assert_eq!(resp.status, Status::Ok);
        resp.header("X-Trace-Id").expect("trace header").to_string()
    }

    fn json_body(api: &Router, path: &str) -> (Status, Value) {
        let resp = api.dispatch(&get(path, &[]));
        let body = std::str::from_utf8(&resp.body).unwrap();
        (resp.status, parse_json(body).unwrap())
    }

    fn slowlog_entry(api: &Router, trace_id: &str) -> Option<Value> {
        let (status, doc) = json_body(api, "/slowlog");
        assert_eq!(status, Status::Ok);
        assert!(doc.get("threshold_seconds").is_some());
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        entries
            .iter()
            .find(|e| e.get("traceId").and_then(Value::as_str) == Some(trace_id))
            .cloned()
    }

    #[test]
    fn slowlog_entry_is_the_request_trace_with_its_query_parameters() {
        let api = build_api(system());
        let params = [
            ("q", "fever slowlog probe"),
            ("k", "5"),
            ("policy", "es_first"),
        ];
        let trace_id = traced_at(&api, &get("/search", &params), std::time::Duration::ZERO);

        let entry = slowlog_entry(&api, &trace_id).expect("listed at threshold zero");
        let (status, trace) = json_body(&api, &format!("/trace/{trace_id}"));
        assert_eq!(status, Status::Ok);
        assert_eq!(entry, trace, "a /slowlog entry is its /trace/{{id}}");
        assert_eq!(entry.get("slow"), Some(&Value::Bool(true)));
        assert_eq!(entry.get("root").and_then(Value::as_str), Some("/search"));
        for (name, value) in params {
            assert_eq!(
                entry.get("params").and_then(|p| p.get(name)),
                Some(&Value::from(value)),
                "the entry names the request by its {name} parameter"
            );
        }
        let spans = entry.get("spans").unwrap().as_array().unwrap();
        for stage in ["search", "parse", "plan", "keyword_search"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(stage)),
                "{stage} span recorded: {spans:?}"
            );
        }
        let totals = entry.get("counterTotals").expect("summed counters");
        assert!(totals.get("postings_advanced").unwrap().as_i64().unwrap() > 0);
        assert!(entry.get("totalSeconds").unwrap().as_f64().is_some());
    }

    #[test]
    fn slowlog_skips_a_trace_under_the_threshold() {
        let api = build_api(system());
        let req = get("/search", &[("q", "fever fast probe"), ("k", "5")]);
        let trace_id = traced_at(&api, &req, std::time::Duration::from_secs(3600));
        assert_eq!(
            slowlog_entry(&api, &trace_id),
            None,
            "a fast trace is not listed"
        );
        let (status, trace) = json_body(&api, &format!("/trace/{trace_id}"));
        assert_eq!(status, Status::Ok, "the fast trace is still recorded");
        assert_eq!(trace.get("slow"), Some(&Value::Bool(false)));
        assert_eq!(
            trace.get("params"),
            Some(&Value::object()),
            "a fast trace keeps no parameters"
        );
    }

    #[test]
    fn search_batch_trace_records_a_span_tree() {
        let api = build_api(system());
        let mut req = get("/search_batch", &[]);
        req.method = "POST".to_string();
        req.body = br#"{"queries": ["fever and cough", "chest pain"], "k": 5}"#.to_vec();
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::Ok);
        let trace_id = resp.header("X-Trace-Id").expect("trace header").to_string();

        let trace = api.dispatch(&get(&format!("/trace/{trace_id}"), &[]));
        assert_eq!(trace.status, Status::Ok, "trace recorded for {trace_id}");
        let doc = parse_json(std::str::from_utf8(&trace.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("traceId").and_then(Value::as_str),
            Some(trace_id.as_str())
        );
        assert_eq!(
            doc.get("root").and_then(Value::as_str),
            Some("/search_batch")
        );
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        let root = &spans[0];
        assert_eq!(root.get("id").and_then(Value::as_i64), Some(1));
        assert_eq!(root.get("parent").and_then(Value::as_i64), Some(0));
        // One per-query "search" span per batched query, parented to the
        // root even though they ran on pool workers.
        let search_spans: Vec<&Value> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some("search"))
            .collect();
        assert_eq!(
            search_spans.len(),
            2,
            "one search span per query: {spans:?}"
        );
        for span in &search_spans {
            assert_eq!(span.get("parent").and_then(Value::as_i64), Some(1));
        }
        // Shard fan-out spans carry their shard index and chain up to a
        // search span through the stage span.
        let shard_spans: Vec<&Value> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some("keyword_shard"))
            .collect();
        assert!(
            !shard_spans.is_empty(),
            "keyword shard spans recorded: {spans:?}"
        );
        for span in &shard_spans {
            assert!(span.get("shard").and_then(Value::as_i64).is_some());
            // Walk parent links to the root.
            let mut current = span.get("id").and_then(Value::as_i64).unwrap();
            let mut hops = 0;
            while current != 1 {
                let parent = spans
                    .iter()
                    .find(|s| s.get("id").and_then(Value::as_i64) == Some(current))
                    .and_then(|s| s.get("parent"))
                    .and_then(Value::as_i64)
                    .unwrap_or_else(|| panic!("span {current} missing parent"));
                current = parent;
                hops += 1;
                assert!(hops < 16, "parent chain did not terminate");
            }
        }
        // The recorder summary lists the trace too.
        let summary = api.dispatch(&get("/debug/traces", &[]));
        assert_eq!(summary.status, Status::Ok);
        let doc = parse_json(std::str::from_utf8(&summary.body).unwrap()).unwrap();
        assert!(doc.get("capacity").and_then(Value::as_i64).is_some());
        assert!(doc
            .get("traces")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|t| t.get("traceId").and_then(Value::as_str) == Some(trace_id.as_str())));
    }

    #[test]
    fn inbound_trace_id_is_honored_and_recorded() {
        let api = build_api(system());
        let mut req = get("/search", &[("q", "fever"), ("k", "3")]);
        req.headers
            .insert("x-trace-id".to_string(), "abc123".to_string());
        let resp = api.dispatch(&req);
        assert_eq!(
            resp.header("X-Trace-Id"),
            Some("0000000000abc123"),
            "inbound id echoed back zero-padded"
        );
        let trace = api.dispatch(&get("/trace/0000000000abc123", &[]));
        assert_eq!(trace.status, Status::Ok, "client-correlated trace recorded");
        // Garbage inbound values fall back to a fresh id.
        let mut req = get("/health", &[]);
        req.headers
            .insert("x-trace-id".to_string(), "not-hex!".to_string());
        let resp = api.dispatch(&req);
        let id = resp.header("X-Trace-Id").unwrap();
        assert_ne!(id, "not-hex!");
        assert_eq!(id.len(), 16);
    }

    #[test]
    fn trace_lookup_resolves_every_spelling_the_header_accepts() {
        let api = build_api(system());
        let mut req = get("/health", &[]);
        req.headers
            .insert("x-trace-id".to_string(), "ab".to_string());
        let resp = api.dispatch(&req);
        assert_eq!(resp.header("X-Trace-Id"), Some("00000000000000ab"));
        for id in ["ab", "AB", "00000000000000ab", "00000000000000AB"] {
            let resp = api.dispatch(&get(&format!("/trace/{id}"), &[]));
            assert_eq!(resp.status, Status::Ok, "/trace/{id}");
        }
        let resp = api.dispatch(&get("/trace/zz", &[]));
        assert_eq!(resp.status, Status::NotFound, "/trace/zz");
    }

    #[test]
    fn trace_lookup_misses_return_404() {
        let api = build_api(system());
        let resp = api.dispatch(&get("/trace/fffffffffffffffe", &[]));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn metrics_render_exemplars_after_traffic() {
        let api = build_api(system());
        let _ = api.dispatch(&get(
            "/search",
            &[("q", "fever exemplar probe"), ("k", "5")],
        ));
        let resp = api.dispatch(&get("/metrics", &[]));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("# {trace_id=\""),
            "at least one bucket line carries a trace exemplar"
        );
        // The exemplar's trace is resolvable in the flight recorder.
        let line = text
            .lines()
            .find(|l| {
                l.contains("create_http_request_seconds_bucket") && l.contains("# {trace_id=\"")
            })
            .expect("http latency histogram has an exemplar");
        let id = line
            .split("trace_id=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("exemplar trace id parses");
        let trace = api.dispatch(&get(&format!("/trace/{id}"), &[]));
        assert_eq!(
            trace.status,
            Status::Ok,
            "exemplar {id} links to a recorded trace"
        );
    }

    #[test]
    fn cohort_endpoint_returns_hits_and_facets() {
        let sys = system();
        let api = build_api(Arc::clone(&sys));
        let mut req = get("/cohort", &[]);
        req.method = "POST".to_string();
        req.body = br#"{
            "filters": [{"field": "sex", "values": ["female", "male"]}],
            "facets": ["category"],
            "k": 5
        }"#
        .to_vec();
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::Ok);
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let total = doc.get("totalMatched").unwrap().as_i64().unwrap();
        assert!(total > 0, "demographic filter should match reports");
        let hits = doc.get("hits").unwrap().as_array().unwrap();
        assert!(!hits.is_empty() && hits.len() <= 5);
        for hit in hits {
            assert!(hit.get("reportId").unwrap().as_str().is_some());
            assert!(hit.get("score").unwrap().as_f64().is_some());
        }
        let facets = doc.get("facets").unwrap().as_array().unwrap();
        assert_eq!(facets.len(), 1);
        assert_eq!(
            facets[0].get("field").and_then(Value::as_str),
            Some("category")
        );
        let counts = facets[0].get("counts").unwrap().as_array().unwrap();
        let sum: i64 = counts
            .iter()
            .map(|c| c.get("count").unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(sum, total, "category partitions the matched cohort");
        // The endpoint answers from the same executor as the facade.
        let direct = sys
            .cohort_from_json(&parse_json(std::str::from_utf8(&req.body).unwrap()).unwrap())
            .unwrap();
        assert_eq!(doc.to_json(), direct.to_json().to_json());
    }

    #[test]
    fn cohort_endpoint_validates_input() {
        let api = build_api(system());
        let mut req = get("/cohort", &[]);
        req.method = "POST".to_string();
        req.body = b"{not json".to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        // A megabyte of `[` — well under the body cap — stops at the
        // parser's nesting cap instead of overflowing the stack and
        // aborting the process, and the next request is answered.
        req.body = vec![b'['; 1 << 20];
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::BadRequest);
        assert!(String::from_utf8(resp.body).unwrap().contains("MAX_DEPTH"));
        assert_eq!(api.dispatch(&get("/health", &[])).status, Status::Ok);
        // Criteria must constrain something.
        req.body = br#"{"k": 5}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        // Unknown facet fields are rejected with a clear message.
        req.body = br#"{"filters": [{"field": "bogus", "values": ["x"]}]}"#.to_vec();
        let resp = api.dispatch(&req);
        assert_eq!(resp.status, Status::BadRequest);
        assert!(String::from_utf8(resp.body).unwrap().contains("bogus"));
        // GET on the POST route is not allowed.
        assert_eq!(
            api.dispatch(&get("/cohort", &[])).status,
            Status::MethodNotAllowed
        );
    }

    #[test]
    fn ingest_errors_answer_500_for_storage_and_400_otherwise() {
        use create_storage::StorageError;
        let path = std::path::PathBuf::from("storage/shard-0/wal.log");
        let io = std::io::Error::other("no space left on device");
        let cases = [
            (IngestError::NoTagger, Status::BadRequest, "tagger"),
            (
                IngestError::Duplicate("pmid:1".into()),
                Status::BadRequest,
                "pmid:1",
            ),
            (
                IngestError::Pdf(create_grobid::PdfError {
                    message: "missing %PDF header".into(),
                }),
                Status::BadRequest,
                "%PDF",
            ),
            (
                IngestError::Index(create_index::index::IndexError::UnknownField("x".into())),
                Status::BadRequest,
                "index error",
            ),
            (
                IngestError::Config("shards".into()),
                Status::BadRequest,
                "configuration",
            ),
            (
                IngestError::Storage(StorageError::Io {
                    path: path.clone(),
                    source: io,
                }),
                Status::InternalServerError,
                "(io)",
            ),
            (
                IngestError::Storage(StorageError::Corrupt {
                    path,
                    message: "bad frame".into(),
                }),
                Status::InternalServerError,
                "(corruption)",
            ),
        ];
        for (error, status, needle) in cases {
            let resp = ingest_error_response(&error);
            assert_eq!(resp.status, status, "{error}");
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.contains(needle), "{error}: {body}");
        }
    }

    #[test]
    fn submit_validates_json() {
        let api = build_api(system());
        let mut req = get("/submit", &[]);
        req.method = "POST".to_string();
        req.body = b"{not json".to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
        req.body = br#"{"id": "x"}"#.to_vec();
        assert_eq!(api.dispatch(&req).status, Status::BadRequest);
    }
}
