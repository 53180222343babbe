//! Seeded mutation fuzz of the Cypher path: lexer → parser →
//! `exec::query` (std-only, fixed printed seed, as the JSON and codec
//! mutation tests are).
//!
//! The valid queries of the repository's own tests (the parser, executor
//! and substrate tests, `end_to_end`, `graph_view`) are mutated by byte
//! edits, deleted and repeated runs and cut tails. Every mutant must come
//! back as a typed error or a result — never a panic, a stack overflow or
//! a hang:
//!
//! * `lex` fails exactly when `parse_query` gives `ParseError::Lex`, and
//!   `exec::query` answers a text that does not parse with that same
//!   parse error;
//! * a query that parses answers alike on a graph that declares
//!   `(label, key)` indexes and on one that finds every property by
//!   scanning, and a `CREATE` is refused by `query` and applied by `run`
//!   to a copy, which it leaves as it was when it fails;
//! * no mutant takes longer than [`SLOW`].
//!
//! What it found: a run of undirected hops, repeated, hung — each hop
//! could walk back along the edge it came by, so a path of n hops had
//! 2^n matches and more. A path now takes each relationship once, as in
//! Cypher (`exec`'s `a_path_takes_each_relationship_once`), and a path
//! longer than `parser::MAX_DEPTH` hops does not parse.

use create_docstore::Value;
use create_graphdb::ast::Query;
use create_graphdb::exec::{query, run, ExecError, QueryError};
use create_graphdb::lexer::lex;
use create_graphdb::parser::ParseError;
use create_graphdb::{parse_query, PropertyGraph};
use create_util::Rng;
use std::time::{Duration, Instant};

const SEED: u64 = 0xC1FE_2026;
const MUTANTS_PER_QUERY: u64 = 1000;
/// What one mutant may take: lexing, parsing and two executions on a
/// graph of a dozen nodes.
const SLOW: Duration = Duration::from_secs(2);

/// The valid queries of the repository's tests.
const QUERIES: [&str; 36] = [
    "MATCH (a:Concept) RETURN a",
    "MATCH (a:Concept {label: 'fever'})-[r:BEFORE]->(b:Concept) RETURN a, r, b.label LIMIT 5",
    "MATCH (a)<-[:MENTIONS]-(b)-[x]-(c) RETURN a",
    "MATCH (a:Report) WHERE a.year >= 2019 AND NOT a.title CONTAINS 'rare' RETURN a",
    "MATCH (a) WHERE a.x = 1 OR a.y = 2 AND a.z = 3 RETURN a",
    "MATCH (a:Concept) RETURN COUNT(*)",
    "CREATE (n:Concept {label: 'fever', entityType: 'Sign_symptom'})",
    "MATCH (a:Concept), (b:Concept) WHERE a.x = 1 RETURN a, b",
    "match (a) return a limit 1",
    "MATCH (c:Concept {label: 'fever'}) RETURN c.entityType",
    "MATCH (a:Concept {label: 'fever'})-[:OVERLAP]->(b)-[:BEFORE]->(c) RETURN c.label",
    "MATCH (c:Concept {label: 'cough'})<-[:MENTIONS]-(r:Report) RETURN r.reportId",
    "MATCH (c:Concept {label: 'cough'})-[:OVERLAP]-(x) RETURN x.label",
    "MATCH (r:Report) WHERE r.year >= 2018 RETURN r.reportId",
    "MATCH (c:Concept) WHERE c.label CONTAINS 'FEV' RETURN c.label",
    "MATCH (c:Concept) RETURN c LIMIT 2",
    "MATCH (r:Report)-[:MENTIONS]->(a:Concept {label: 'fever'}), (r)-[:MENTIONS]->(b:Concept {label: 'cough'}) RETURN r.reportId",
    "MATCH (a:Concept {label: 'cough'})-[r:BEFORE]->(b) RETURN r.type",
    "CREATE (a:Concept {label: 'fever'})-[:BEFORE]->(b:Concept {label: 'death'})",
    "MATCH (r:Report) RETURN r.reportId ORDER BY r.year DESC",
    "MATCH (c:Concept) RETURN c.label ORDER BY c.label",
    "MATCH (r:Report) RETURN r.year ORDER BY r.year DESC LIMIT 1",
    "MATCH (c:Concept) RETURN DISTINCT c.entityType",
    "MATCH (r:Report {year: 2015}) RETURN r.reportId",
    "MATCH (c:Concept {entityType: 'Sign_symptom', label: 'fever'}) RETURN c",
    "CREATE (a:Concept {label: 'fever', entityType: 'Sign_symptom'})-[:BEFORE]->(b:Concept {label: 'death', entityType: 'Outcome'})",
    "MATCH (a:Concept)-[r:BEFORE]->(b) WHERE a.entityType = 'Sign_symptom' RETURN a.label, b.label",
    "MATCH (r:Report) WHERE r.year < 2020 AND r.reviewed = true RETURN r.reportId, r.year",
    "MATCH (r:Report)-[:CONTAINS]->(e:Event)-[:BEFORE]->(f:Event) RETURN COUNT(*)",
    "MATCH (r:Report)-[:MENTIONS]->(c:Concept) RETURN COUNT(*)",
    "MATCH (a:Event)-[:BEFORE]->(b:Event) RETURN a.reportId LIMIT 5",
    "MATCH (r:Report {reportId: 'pmid:1'})-[:CONTAINS]->(e:Event) RETURN COUNT(*)",
    "MATCH (a:Event)-[t]->(b:Event) RETURN a.reportId, a.label, t.type, b.label ORDER BY b.label DESC",
    "MATCH (e:Event)-[:INSTANCE_OF]->(c:Concept) RETURN e.reportId, e.label, e.step, c.cui ORDER BY e.step",
    "MATCH (r:Report)-[m:MENTIONS {weight: 2}]->(c:Concept) RETURN r.title, m.weight, c.label",
    "MATCH (r:Report) WHERE NOT (r.year > 2016 OR r.title CONTAINS 'x') RETURN r.reportId",
];

/// The bytes the grammar turns on.
const GRAMMAR: &[u8] = b"()[]{}:,.-<>=*'\"\\ 0123456789_aeNOTANDOR\xc3\xa9\xe2\x88";

/// Runs a mutant may gain, repeated: nesting, chains and hops.
const RUNS: [&str; 6] = ["NOT ", "(", ")", " AND a.x = 1", " OR ", "-[]-()"];

/// Two reports, three concepts and their events, as `graph_build`
/// lays them out: on `graph`, which declares its indexes or not.
fn sample(mut graph: PropertyGraph) -> PropertyGraph {
    let s = |x: &str| Value::String(x.to_string());
    let n = |x: f64| Value::Number(x);
    let mut concepts = Vec::new();
    for (cui, label, etype) in [
        ("C1", "fever", "Sign_symptom"),
        ("C2", "cough", "Sign_symptom"),
        ("C3", "died", "Outcome"),
    ] {
        let props = vec![
            ("cui", s(cui)),
            ("label", s(label)),
            ("entityType", s(etype)),
        ];
        concepts.push(graph.create_node(["Concept"], props));
    }
    for (id, year, title, mentions) in [
        ("pmid:1", 2020.0, "a rare fever", &[0, 1, 2][..]),
        ("pmid:2", 2015.0, "cough", &[1][..]),
    ] {
        let props = vec![("reportId", s(id)), ("year", n(year)), ("title", s(title))];
        let report = graph.create_node(["Report"], props);
        let mut events = Vec::new();
        for (step, &c) in mentions.iter().enumerate() {
            let weight = vec![("weight", n(mentions.len() as f64 - 1.0))];
            graph.create_edge(report, concepts[c], "MENTIONS", weight);
            let props = vec![
                ("reportId", s(id)),
                ("label", s("e")),
                ("step", n(step as f64)),
            ];
            let event = graph.create_node(["Event"], props);
            graph.create_edge::<&str>(report, event, "CONTAINS", vec![]);
            graph.create_edge::<&str>(event, concepts[c], "INSTANCE_OF", vec![]);
            events.push(event);
        }
        for pair in events.windows(2) {
            graph.create_edge::<&str>(pair[0], pair[1], "BEFORE", vec![]);
        }
    }
    graph.create_edge::<&str>(concepts[0], concepts[1], "OVERLAP", vec![]);
    graph
}

fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(2) {
        if out.is_empty() {
            break;
        }
        let at = rng.below(out.len());
        let end = (at + 1 + rng.below(16)).min(out.len());
        match rng.below(7) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.below(256) as u8,
            2 => out[at] = *rng.choose(GRAMMAR),
            // A cut tail.
            3 => out.truncate(at),
            // A deleted run.
            4 => drop(out.drain(at..end)),
            // A repeated run, or a run of the grammar: a few times, or
            // enough to nest past the parser's depth cap.
            kind => {
                let times = *rng.choose(&[1, 2, 5, 300]);
                let run = match kind {
                    5 => out[at..end].to_vec(),
                    _ => rng.choose(&RUNS).as_bytes().to_vec(),
                };
                drop(out.splice(at..at, run.repeat(times)));
            }
        }
    }
    // The lexer takes `&str`, so a broken sequence becomes U+FFFD and
    // still reaches it.
    String::from_utf8_lossy(&out).into_owned()
}

/// One mutant through the whole path; true when it executed: a `MATCH`
/// through `query`, a `CREATE` through `run`.
fn check(mutant: &str, indexed: &PropertyGraph, scanned: &PropertyGraph, context: &str) -> bool {
    let lexed = lex(mutant);
    let parsed = parse_query(mutant);
    match (&lexed, &parsed) {
        (Err(e), Err(ParseError::Lex(p))) => assert_eq!(e, p, "{context}"),
        (Err(_), _) | (Ok(_), Err(ParseError::Lex(_))) => {
            panic!("{context}: lex {lexed:?}, parse {parsed:?}")
        }
        _ => {}
    }
    let answer = query(indexed, mutant);
    assert_eq!(answer, query(scanned, mutant), "{context}");
    match parsed {
        Err(e) => {
            assert_eq!(answer, Err(QueryError::Parse(e)), "{context}");
            false
        }
        Ok(Query::Create { .. }) => {
            let refused = Err(QueryError::Exec(ExecError::ReadOnly));
            assert_eq!(answer, refused, "{context}");
            let mut copy = indexed.clone();
            let created = run(&mut copy, mutant).is_ok();
            // A refused CREATE creates nothing.
            let grew = copy.node_count() > indexed.node_count();
            assert_eq!(created, grew, "{context}");
            created
        }
        Ok(Query::Match { .. }) => answer.is_ok(),
    }
}

#[test]
fn mutated_queries_give_a_typed_error_or_a_result() {
    println!("cypher_mutation seed {SEED:#x}");
    let indexed = sample(PropertyGraph::with_indexes(&[
        ("Concept", "label"),
        ("Report", "year"),
    ]));
    let scanned = sample(PropertyGraph::new());
    let mut executed = 0u64;
    for (q, valid) in QUERIES.iter().enumerate() {
        let context = format!("seed {SEED:#x} query {q}");
        assert!(
            check(valid, &indexed, &scanned, &context),
            "{context}: {valid}"
        );
        for i in 1..=MUTANTS_PER_QUERY {
            let mut rng = Rng::seed_from_u64(SEED ^ ((q as u64) << 32) ^ i);
            let mutant = mutate(&mut rng, valid);
            let context = format!("seed {SEED:#x} query {q} mutant {i}: {mutant:?}");
            let started = Instant::now();
            let ok = std::panic::catch_unwind(|| check(&mutant, &indexed, &scanned, &context))
                .unwrap_or_else(|_| panic!("{context}: panicked"));
            assert!(
                started.elapsed() < SLOW,
                "{context}: {:?}",
                started.elapsed()
            );
            executed += u64::from(ok);
        }
    }
    let total = QUERIES.len() as u64 * MUTANTS_PER_QUERY;
    println!("{executed} of {total} mutants executed");
    // Mutations inside a string, a number or a name still execute; if
    // almost none did, the test would exercise nothing past the parser.
    assert!(executed > total / 10, "only {executed} of {total} executed");
}
