//! End-to-end integration tests spanning the whole workspace: corpus →
//! ingestion → three stores → search → visualization → REST API.

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CorpusConfig, Generator, QueryFamily, QuerySet};
use create::graphdb::exec::{query, ExecError, QueryError};
use create::graphdb::PropertyGraph;
use create::server::server::{http_get, http_post};
use create::server::{build_api, Server};
use std::sync::Arc;

fn loaded(n: usize, seed: u64) -> (Create, Vec<create::corpus::CaseReport>) {
    let reports = Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate();
    let system = Create::new(CreateConfig::default());
    for r in &reports {
        system.ingest_gold(r).expect("ingest");
    }
    (system, reports)
}

#[test]
fn full_pipeline_search_quality() {
    let (system, reports) = loaded(150, 42);
    let queries = QuerySet::generate(&reports, 43, 24);
    // CREATe-IR should place a relevant document in the top-10 for the
    // clear majority of queries, and beat the keyword-only baseline on
    // temporal queries.
    let mut ir_hits = 0usize;
    for q in &queries.queries {
        let ids: Vec<String> = system
            .search(&q.text, 10)
            .into_iter()
            .map(|h| h.report_id)
            .collect();
        if ids.iter().any(|id| q.judgments.contains_key(id)) {
            ir_hits += 1;
        }
    }
    assert!(
        ir_hits * 3 >= queries.queries.len() * 2,
        "CREATe-IR found relevant docs for only {ir_hits}/{}",
        queries.queries.len()
    );

    let temporal = queries.of_family(QueryFamily::Temporal);
    let mut ir_better_or_equal = 0usize;
    for q in &temporal {
        let count_rel = |policy: MergePolicy| {
            system
                .search_with_policy(&q.text, 10, policy)
                .iter()
                .filter(|h| q.judgments.contains_key(&h.report_id))
                .count()
        };
        if count_rel(MergePolicy::Neo4jFirst) >= count_rel(MergePolicy::EsOnly) {
            ir_better_or_equal += 1;
        }
    }
    assert!(
        ir_better_or_equal * 3 >= temporal.len() * 2,
        "graph engine underperformed keyword on temporal queries: {ir_better_or_equal}/{}",
        temporal.len()
    );
}

#[test]
fn graph_is_cypher_queryable_after_ingest() {
    let (system, _) = loaded(30, 7);
    let out = query(
        &system.graph().unwrap(),
        "MATCH (r:Report)-[:MENTIONS]->(c:Concept) RETURN COUNT(*)",
    )
    .expect("cypher");
    let count = match &out.rows[0][0] {
        create::graphdb::ResultValue::Value(v) => v.as_f64().unwrap(),
        other => panic!("unexpected {other:?}"),
    };
    assert!(count > 100.0, "too few MENTIONS edges: {count}");

    // A relation-style query (the Fig-6 graph path) returns rows.
    let out = query(
        &system.graph().unwrap(),
        "MATCH (a:Event)-[:BEFORE]->(b:Event) RETURN a.reportId LIMIT 5",
    )
    .expect("cypher");
    assert!(!out.rows.is_empty());
}

#[test]
fn a_cypher_read_leaves_the_generation_unchanged() {
    let (system, _) = loaded(12, 11);
    let before = (system.cache_stats().generation, system.stats());
    let graph = system.graph().unwrap();
    let first = query(&graph, "MATCH (r:Report) RETURN r.reportId LIMIT 1").expect("cypher");
    let create::graphdb::ResultValue::Value(id) = &first.rows[0][0] else {
        panic!("a report id, got {first:?}");
    };
    // `reportId` is not indexed: the pattern seeds from a scan of the
    // `Report` label.
    let q = format!(
        "MATCH (r:Report {{reportId: '{}'}})-[:CONTAINS]->(e:Event) RETURN COUNT(*)",
        id.as_str().expect("a string id")
    );
    let out = query(&graph, &q).expect("cypher");
    assert!(
        matches!(&out.rows[0][0], create::graphdb::ResultValue::Value(v) if v.as_f64() > Some(0.0)),
        "{q}: {out:?}"
    );
    assert_eq!(
        query(&graph, "CREATE (p:Probe {name: 'x'})"),
        Err(QueryError::Exec(ExecError::ReadOnly)),
        "a CREATE is refused, not applied"
    );
    let after = (system.cache_stats().generation, system.stats());
    assert_eq!(before, after, "a Cypher read is not a write");
}

#[test]
fn annotations_export_is_valid_brat() {
    let (system, reports) = loaded(10, 8);
    for r in &reports {
        let brat = system.annotations(&r.id).unwrap().expect("annotation doc");
        brat.validate(&r.text).expect("valid standoff");
        // Round-trip through the parser.
        let reparsed = create::annotate::BratDocument::parse(&brat.serialize()).unwrap();
        assert_eq!(reparsed.text_bounds.len(), r.entities.len());
    }
}

#[test]
fn visualization_svg_is_wellformed_for_every_report() {
    let (system, reports) = loaded(10, 9);
    for r in &reports {
        let svg = system.visualize(&r.id).unwrap().expect("svg");
        let parsed = create::grobid::parse_xml(&svg).expect("well-formed SVG");
        assert_eq!(parsed.name, "svg");
        assert!(!parsed.descendants("circle").is_empty());
    }
}

#[test]
fn rest_api_serves_the_whole_surface() {
    let (system, reports) = loaded(20, 10);
    let id = reports[0].id.clone();
    let shared = Arc::new(system);
    let server = Server::bind("127.0.0.1:0", build_api(shared)).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let t = std::thread::spawn(move || server.serve());

    let (status, body) = http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"reports\":20"));

    let (status, body) = http_get(addr, "/search?q=fever+and+cough&k=5").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"hits\""));

    let (status, _) = http_get(addr, &format!("/reports/{id}")).unwrap();
    assert_eq!(status, 200);
    let (status, ann) = http_get(addr, &format!("/reports/{id}/annotations")).unwrap();
    assert_eq!(status, 200);
    assert!(ann.starts_with('T'));
    let (status, svg) = http_get(addr, &format!("/reports/{id}/graph.svg")).unwrap();
    assert_eq!(status, 200);
    assert!(svg.starts_with("<svg"));

    // Submitting without a tagger is a clean client error, not a crash.
    let (status, _) = http_post(
        addr,
        "/submit",
        r#"{"id": "user:t", "title": "x", "text": "fever."}"#,
    )
    .unwrap();
    assert_eq!(status, 400);

    handle.shutdown();
    t.join().unwrap();
}

/// A tagger just good enough for `/submit_batch` to run its extraction.
fn tiny_tagger(system: &Create) -> create::ner::CrfTagger {
    let reports = Generator::new(CorpusConfig {
        num_reports: 15,
        seed: 20260813,
        ..Default::default()
    })
    .generate();
    let dataset =
        create::ner::NerDataset::from_reports(&reports, create::ner::LabelSet::ner_targets());
    create::ner::CrfTagger::train(
        &dataset,
        create::ner::CrfTaggerConfig {
            feature_bits: 16,
            train: create::ml::CrfTrainConfig {
                epochs: 2,
                ..Default::default()
            },
            gazetteer_features: true,
        },
        Some(system.ontology()),
        None,
    )
}

#[test]
fn concurrent_submit_batches_all_land() {
    // Requests run on the process's one pool, and a batch holds the write
    // lock across its own pool phases: eight batches at once must neither
    // deadlock nor lose a document.
    const CLIENTS: usize = 8;
    const DOCS: usize = 4;
    let (system, _) = loaded(10, 12);
    system.attach_tagger(tiny_tagger(&system));
    let system = Arc::new(system);
    let server = Server::bind("127.0.0.1:0", build_api(Arc::clone(&system))).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let t = std::thread::spawn(move || server.serve());

    let start = Arc::new(std::sync::Barrier::new(CLIENTS));
    let (answers, answered) = std::sync::mpsc::channel();
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let (start, answers) = (Arc::clone(&start), answers.clone());
        clients.push(std::thread::spawn(move || {
            let documents: Vec<String> = (0..DOCS)
                .map(|d| {
                    format!(
                        r#"{{"id": "user:c{client}-d{d}", "title": "Case {client}.{d}", "text": "A patient presented with fever and cough. Pneumonia was treated with antibiotics.", "year": 2020}}"#
                    )
                })
                .collect();
            let body = format!(r#"{{"documents": [{}]}}"#, documents.join(", "));
            start.wait();
            let _ = answers.send((client, http_post(addr, "/submit_batch", &body)));
        }));
    }
    for _ in 0..CLIENTS {
        // A stuck server would never answer: fail, not hang.
        let (client, answer) = answered
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("every /submit_batch is answered");
        let (status, body) = answer.expect("the request went through");
        assert!(
            (200..300).contains(&status),
            "client {client}: {status} {body}"
        );
    }
    for client in clients {
        client.join().expect("client thread");
    }
    for client in 0..CLIENTS {
        for d in 0..DOCS {
            let id = format!("user:c{client}-d{d}");
            assert!(system.report(&id).unwrap().is_some(), "{id} is not held");
        }
    }
    assert_eq!(system.stats().reports, 10 + CLIENTS * DOCS);
    handle.shutdown();
    t.join().unwrap();
}

#[test]
fn platform_persistence_round_trip() {
    // Ingest into a disk-backed platform, flush, reopen, and verify the
    // recovered graph/index reproduce search behaviour.
    let dir = std::env::temp_dir().join(format!("create-e2e-platform-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reports = Generator::new(CorpusConfig {
        num_reports: 25,
        seed: 77,
        ..Default::default()
    })
    .generate();
    let query = "A patient was admitted to the hospital because of fever and cough.";
    let config = CreateConfig { shards: 1 };
    let before_hits: Vec<String>;
    {
        let system = Create::open(&dir, config.clone()).unwrap();
        for r in &reports {
            system.ingest_gold(r).unwrap();
        }
        before_hits = system
            .search(query, 10)
            .into_iter()
            .map(|h| h.report_id)
            .collect();
        system.flush().unwrap();
    }
    let reopened = Create::open(&dir, config).unwrap();
    let stats = reopened.stats();
    assert_eq!(stats.reports, 25);
    assert!(stats.graph_nodes > 25, "graph not rebuilt: {stats:?}");
    let after_hits: Vec<String> = reopened
        .search(query, 10)
        .into_iter()
        .map(|h| h.report_id)
        .collect();
    assert_eq!(before_hits, after_hits, "search changed across restart");
    // Annotations survive too.
    assert!(reopened.annotations(&reports[0].id).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The Cypher graph of a disk-backed instance — most reports sealed by
/// flushes, one of which compacts, the rest left in the WAL tail, then
/// reopened, so that each sealed payload is read from its segment file —
/// is the graph of the same reports held in memory, node for node and
/// edge for edge, and so is each shard's.
#[test]
fn a_flushed_and_reopened_instance_builds_the_in_memory_graph() {
    let reports = Generator::new(CorpusConfig {
        num_reports: 160,
        seed: 20261019,
        ..Default::default()
    })
    .generate();
    let config = CreateConfig { shards: 2 };
    let memory = Create::new(config.clone());
    memory.ingest_gold_batch(&reports, 0).expect("ingest");
    let dir = std::env::temp_dir().join(format!("create-e2e-graph-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let disk = Create::open(&dir, config.clone()).expect("open");
        for (i, batch) in reports.chunks(32).enumerate() {
            disk.ingest_gold_batch(batch, 0).expect("ingest");
            if i < 4 {
                disk.flush().expect("flush");
            }
        }
        let segments: Vec<usize> = disk.shard_segments().iter().map(|s| s.disk).collect();
        assert!(segments.iter().all(|&files| files < 4), "{segments:?}");
    }
    let disk = Create::open(&dir, config).expect("reopen");
    let dump = |graph: PropertyGraph| {
        let nodes: Vec<String> = graph.nodes().map(|n| format!("{n:?}")).collect();
        let edges: Vec<String> = graph.edges().map(|e| format!("{e:?}")).collect();
        (nodes, edges)
    };
    let (nodes, edges) = dump(disk.graph().expect("sealed payloads read back"));
    assert!(nodes.len() > reports.len() && edges.len() > reports.len());
    assert_eq!((nodes, edges), dump(memory.graph().expect("in memory")));
    let (sealed, held) = (disk.snapshot(), memory.snapshot());
    for shard in 0..2 {
        assert_eq!(
            dump(
                sealed
                    .shard_graph(shard)
                    .expect("sealed payloads read back")
            ),
            dump(held.shard_graph(shard).expect("in memory")),
            "shard {shard}"
        );
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).expect("remove the data directory");
}
