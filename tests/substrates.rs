//! Integration tests for the database substrates working together:
//! Cypher over graphs built from JSON documents, index/docstore
//! consistency, and the analyzer → index → query loop.

use create::docstore::{json::obj, parse_json, DocStore, Value};
use create::graphdb::exec::run;
use create::graphdb::{PropertyGraph, ResultValue};
use create::index::{Index, QueryNode, Scorer};

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
    // Insert the same documents into both; every index hit must be
    // retrievable from the store, with the hit term present.
    let mut store = DocStore::in_memory();
    let mut index = Index::clinical();
    let docs = [
        (
            "d1",
            "Atrial fibrillation after surgery",
            "The patient developed atrial fibrillation.",
        ),
        (
            "d2",
            "Pneumonia case",
            "Severe pneumonia with fever and cough.",
        ),
        (
            "d3",
            "Stroke registry note",
            "An ischemic stroke was confirmed.",
        ),
    ];
    for (id, title, body) in docs {
        store
            .insert(
                "reports",
                obj([
                    ("_id", id.into()),
                    ("title", title.into()),
                    ("text", body.into()),
                ]),
            )
            .unwrap();
        index
            .add_document(
                id,
                &[("title", title), ("body", body), ("body_ngram", body)],
            )
            .unwrap();
    }
    let hits = index.search(
        &QueryNode::query_string(&index, "body", "fever"),
        10,
        Scorer::default(),
    );
    assert_eq!(hits.len(), 1);
    let doc = store
        .get("reports", &hits[0].external_id)
        .expect("in store");
    assert!(doc
        .get("text")
        .unwrap()
        .as_str()
        .unwrap()
        .to_lowercase()
        .contains("fever"));
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
    let std_q = QueryNode::query_string(&index, "body", "amiodar");
    assert!(index.search(&std_q, 5, Scorer::default()).is_empty());
    let ngram_q = QueryNode::query_string(&index, "body_ngram", "amiodar");
    assert_eq!(index.search(&ngram_q, 5, Scorer::default()).len(), 1);
}

#[test]
fn stored_json_documents_reparse_identically() {
    let mut store = DocStore::in_memory();
    let original = obj([
        ("_id", "x".into()),
        ("nested", obj([("k", vec!["a", "b"].into())])),
        ("n", 1.5.into()),
    ]);
    store.insert("c", original.clone()).unwrap();
    let fetched = store.get("c", "x").unwrap();
    let reparsed = parse_json(&fetched.to_json()).unwrap();
    assert_eq!(reparsed, original);
}
