//! Integration tests for the database substrates working together:
//! Cypher over graphs built from JSON documents, search hits read back as
//! stored documents, and the analyzer → index → query loop.

use create::core::{Create, CreateConfig};
use create::corpus::{CaseReport, CorpusConfig, Generator};
use create::docstore::{json::obj, parse_json, Value};
use create::graphdb::exec::run;
use create::graphdb::{PropertyGraph, ResultValue};
use create::index::{Index, Query, Scorer};

#[test]
fn cypher_create_then_match_round_trip() {
    let mut g = PropertyGraph::new();
    run(
        &mut g,
        "CREATE (a:Concept {label: 'fever', entityType: 'Sign_symptom'})-[:BEFORE]->(b:Concept {label: 'death', entityType: 'Outcome'})",
    )
    .unwrap();
    run(
        &mut g,
        "CREATE (c:Concept {label: 'cough', entityType: 'Sign_symptom'})",
    )
    .unwrap();
    let out = run(
        &mut g,
        "MATCH (a:Concept)-[r:BEFORE]->(b) WHERE a.entityType = 'Sign_symptom' RETURN a.label, b.label",
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(
        out.rows[0][0],
        ResultValue::Value(Value::String("fever".into()))
    );
    let count = run(&mut g, "MATCH (c:Concept) RETURN COUNT(*)").unwrap();
    assert_eq!(count.rows[0][0], ResultValue::Value(Value::Number(3.0)));
}

#[test]
fn docstore_and_index_stay_consistent() {
    // Every search hit must come back through `Create::report` as the
    // report ingested under its id, and a report searched for by its
    // title is among the hits.
    let system = Create::new(CreateConfig { shards: 2 });
    let reports: Vec<CaseReport> = Generator::new(CorpusConfig {
        num_reports: 30,
        seed: 20261015,
        ..Default::default()
    })
    .generate();
    system.ingest_gold_batch(&reports, 2).unwrap();
    let wanted = &reports[7];
    let hits = system.search(&wanted.title, 10);
    assert!(hits.iter().any(|hit| hit.report_id == wanted.id));
    for hit in &hits {
        let doc = system
            .report(&hit.report_id)
            .unwrap()
            .expect("a hit is stored");
        let ingested = reports.iter().find(|r| r.id == hit.report_id).unwrap();
        assert_eq!(doc.get("_id").and_then(Value::as_str), Some(&*ingested.id));
        assert_eq!(
            doc.get("title").and_then(Value::as_str),
            Some(&*ingested.title)
        );
        assert_eq!(
            doc.get("text").and_then(Value::as_str),
            Some(&*ingested.text)
        );
    }
    assert!(system.report("no-such-report").unwrap().is_none());
}

#[test]
fn json_values_flow_through_graph_properties() {
    // Graph properties are docstore JSON values; complex values survive
    // the round trip through the Cypher executor's projections.
    let mut g = PropertyGraph::new();
    g.create_node(
        ["Report"],
        vec![
            ("reportId", Value::String("pmid:9".into())),
            ("year", Value::Number(2018.0)),
            ("reviewed", Value::Bool(true)),
        ],
    );
    let out = run(
        &mut g,
        "MATCH (r:Report) WHERE r.year < 2020 AND r.reviewed = true RETURN r.reportId, r.year",
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][1], ResultValue::Value(Value::Number(2018.0)));
}

#[test]
fn analyzer_choice_changes_match_behaviour() {
    // The same query against standard vs n-gram fields demonstrates the
    // E8 effect at unit scale.
    let mut index = Index::clinical();
    index
        .add_document(
            "d",
            &[
                ("title", "Amiodarone toxicity"),
                ("body", "Long-term amiodarone use caused toxicity."),
                ("body_ngram", "Long-term amiodarone use caused toxicity."),
            ],
        )
        .unwrap();
    // Partial term: standard field misses, n-gram field hits.
    let std_q = Query::query_string(&index, "body", "amiodar");
    assert!(index.search(&std_q, 5, Scorer::default()).is_empty());
    let ngram_q = Query::query_string(&index, "body_ngram", "amiodar");
    assert_eq!(index.search(&ngram_q, 5, Scorer::default()).len(), 1);
}

#[test]
fn stored_json_documents_reparse_identically() {
    let original = obj([
        ("_id", "x".into()),
        ("nested", obj([("k", vec!["a", "b"].into())])),
        ("n", 1.5.into()),
    ]);
    let stored = original.to_json();
    let reparsed = parse_json(&stored).unwrap();
    assert_eq!(reparsed, original);
    assert_eq!(reparsed.to_json(), stored, "the text is canonical");
}
