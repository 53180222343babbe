//! Model equivalence: random `create_node` / `create_edge` sequences
//! against a reference kept in plain `BTreeMap`s and `Vec`s.
//!
//! Each case draws nodes with shared and repeated labels, properties of
//! every JSON kind with repeated keys (the last one wins), and edges with
//! the occasional property, and takes clones between writes. At
//! checkpoints the graph must agree with the reference on every node's
//! labels and properties, every edge, `outgoing` / `incoming` in creation
//! order, `nodes_with_label`, the declared-index lookups and Cypher
//! `MATCH … {k: v}` over unindexed keys; every clone must still agree
//! with the reference as it was when the clone was taken. The seed is
//! printed, and every failure names its case, seed and step.

use create_docstore::Value;
use create_graphdb::exec::query;
use create_graphdb::{EdgeId, NodeId, PropertyGraph, ResultValue};
use create_util::rng::Rng;
use std::collections::BTreeMap;

const SEED: u64 = 20261017;
/// Cases of [`OPS`] operations, then one of [`LONG_OPS`]: enough nodes,
/// edges and bytes that every column and index list grows many times
/// over, and a declared index files many nodes under one value.
const CASES: u64 = 24;
const OPS: usize = 240;
const LONG_OPS: usize = 2500;
/// Full checks in a case, evenly spaced.
const CHECKS: usize = 4;

const LABELS: [&str; 5] = ["A", "B", "Concept", "Event", "Report"];
const KEYS: [&str; 6] = ["cui", "k1", "k2", "label", "step", "x"];
const TYPES: [&str; 4] = ["BEFORE", "CONTAINS", "MENTIONS", "OVERLAP"];
const WORDS: [&str; 6] = ["", "fever", "cough", "C0015967", "fièvre", "a b"];
/// The `(label, key)` pairs the graph indexes.
const DECLARED: [(&str, &str); 2] = [("Concept", "cui"), ("A", "k1")];

type Props = BTreeMap<String, Value>;

/// The reference graph.
#[derive(Clone, Default)]
struct Model {
    /// Per node: labels sorted and deduplicated, properties.
    nodes: Vec<(Vec<String>, Props)>,
    /// Per edge: source, target, type, properties.
    edges: Vec<(usize, usize, String, Props)>,
    /// Per node: its edges out and in, in creation order.
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
}

impl Model {
    fn with_label(&self, label: &str) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].0.iter().any(|l| l == label))
            .map(|n| NodeId(n as u64))
            .collect()
    }

    fn with_prop(&self, label: &str, key: &str, value: &Value) -> Vec<NodeId> {
        self.with_label(label)
            .into_iter()
            .filter(|n| self.nodes[n.0 as usize].1.get(key) == Some(value))
            .collect()
    }
}

fn number(rng: &mut Rng) -> f64 {
    match rng.below(5) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.below(4) as f64,
        3 => rng.below(8) as f64 / 2.0 - 2.0,
        _ => rng.f64_range(-1e12, 1e12),
    }
}

fn value(rng: &mut Rng, depth: usize) -> Value {
    match rng.below(if depth > 1 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Number(number(rng)),
        3 => Value::String(rng.choose(&WORDS).to_string()),
        4 => Value::Array((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect()),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (rng.choose(&KEYS).to_string(), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn props(rng: &mut Rng, most: usize) -> Vec<(String, Value)> {
    (0..rng.below(most + 1))
        .map(|_| (rng.choose(&KEYS).to_string(), value(rng, 0)))
        .collect()
}

/// What collecting the pairs into a map makes of them: the last value of
/// a key wins.
fn collected(pairs: &[(String, Value)]) -> Props {
    pairs.iter().cloned().collect()
}

/// The values the lookups are checked with: every value a node holds
/// under `key`, and a few that none may hold.
fn probes(model: &Model, key: &str) -> Vec<Value> {
    let mut probes: Vec<Value> = model
        .nodes
        .iter()
        .filter_map(|(_, props)| props.get(key).cloned())
        .collect();
    probes.extend([
        Value::String("absent".to_string()),
        Value::Number(0.0),
        Value::Null,
    ]);
    probes.dedup();
    probes
}

/// Every read of `graph` against `model`.
fn check(graph: &PropertyGraph, model: &Model, at: &str) {
    assert_eq!(graph.node_count(), model.nodes.len(), "{at}: node count");
    assert_eq!(graph.edge_count(), model.edges.len(), "{at}: edge count");
    for (n, (labels, props)) in model.nodes.iter().enumerate() {
        let node = graph.node(NodeId(n as u64)).expect("every node reads");
        assert!(
            node.labels().eq(labels.iter().map(|l| l.as_str())),
            "{at}: node {n}'s labels"
        );
        let listed: Vec<(String, Value)> = node
            .props()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        let expected: Vec<(String, Value)> = props.clone().into_iter().collect();
        assert_eq!(listed, expected, "{at}: node {n}'s properties");
        for key in KEYS {
            let found = node.prop(key).map(|v| v.to_value());
            assert_eq!(found.as_ref(), props.get(key), "{at}: node {n}'s {key}");
        }
        let out: Vec<u64> = graph.outgoing(node.id).iter().map(|e| e.id.0).collect();
        let inc: Vec<u64> = graph.incoming(node.id).iter().map(|e| e.id.0).collect();
        assert!(
            out.iter()
                .map(|&e| e as usize)
                .eq(model.out[n].iter().copied()),
            "{at}: node {n} out"
        );
        assert!(
            inc.iter()
                .map(|&e| e as usize)
                .eq(model.inc[n].iter().copied()),
            "{at}: node {n} in"
        );
    }
    assert!(
        graph.node(NodeId(model.nodes.len() as u64)).is_none(),
        "{at}: past the last node"
    );
    for (e, (source, target, rel_type, props)) in model.edges.iter().enumerate() {
        let edge = graph.edge(EdgeId(e as u64)).expect("every edge reads");
        assert_eq!(
            (
                edge.source.0 as usize,
                edge.target.0 as usize,
                edge.rel_type
            ),
            (*source, *target, rel_type.as_str()),
            "{at}: edge {e}"
        );
        let listed: Props = edge
            .props()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        assert_eq!(&listed, props, "{at}: edge {e}'s properties");
    }
    for label in LABELS {
        assert!(
            graph.nodes_with_label(label).eq(model.with_label(label)),
            "{at}: nodes_with_label({label})"
        );
    }
    for (label, key) in DECLARED {
        for probe in probes(model, key) {
            assert_eq!(
                graph.nodes_with_prop(label, key, &probe),
                Some(model.with_prop(label, key, &probe)),
                "{at}: declared ({label}, {key}) = {probe:?}"
            );
        }
    }
    assert_eq!(
        graph.nodes_with_prop("B", "k2", &Value::Null),
        None,
        "{at}: an undeclared pair has no index"
    );
}

/// A Cypher literal for the scalar values the query language spells.
fn literal(value: &Value) -> Option<String> {
    match value {
        Value::String(s) => Some(format!("'{s}'")),
        Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e6 => Some(format!("{n}")),
        Value::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// Cypher `MATCH (n:L {k: v}) RETURN n` on unindexed pairs: the rows
/// are the reference's nodes, in creation order.
fn check_cypher(graph: &PropertyGraph, model: &Model, at: &str) {
    for (label, key) in [
        ("B", "k2"),
        ("Event", "label"),
        ("Report", "step"),
        ("A", "x"),
    ] {
        for probe in probes(model, key) {
            let Some(literal) = literal(&probe) else {
                continue;
            };
            let q = format!("MATCH (n:{label} {{{key}: {literal}}}) RETURN n");
            let out = query(graph, &q).unwrap_or_else(|e| panic!("{at}: {q}: {e}"));
            let rows: Vec<NodeId> = out
                .rows
                .iter()
                .map(|row| match row[0] {
                    ResultValue::Node(id) => id,
                    ref other => panic!("{at}: {q}: a node, got {other:?}"),
                })
                .collect();
            assert_eq!(rows, model.with_prop(label, key, &probe), "{at}: {q}");
        }
    }
}

fn run_case(case: u64, ops: usize) {
    let seed = SEED + case;
    let mut rng = Rng::seed_from_u64(seed);
    let mut graph = PropertyGraph::with_indexes(&DECLARED);
    let mut model = Model::default();
    // (step, the clone, the reference then)
    let mut clones: Vec<(usize, PropertyGraph, Model)> = Vec::new();
    for step in 1..=ops {
        let at = format!("case {case} (seed {seed}) step {step}");
        if model.nodes.is_empty() || rng.chance(0.55) {
            let labels: Vec<&str> = (0..rng.below(4)).map(|_| *rng.choose(&LABELS)).collect();
            let given = props(&mut rng, 5);
            let id = graph.create_node(labels.iter().copied(), given.clone());
            assert_eq!(id.0 as usize, model.nodes.len(), "{at}: node id");
            let mut sorted: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
            sorted.sort();
            sorted.dedup();
            model.nodes.push((sorted, collected(&given)));
            model.out.push(Vec::new());
            model.inc.push(Vec::new());
        } else {
            let (source, target) = (rng.below(model.nodes.len()), rng.below(model.nodes.len()));
            let rel_type = rng.choose(&TYPES).to_string();
            let given = if rng.chance(0.1) {
                props(&mut rng, 3)
            } else {
                Vec::new()
            };
            let id = graph.create_edge(
                NodeId(source as u64),
                NodeId(target as u64),
                &rel_type,
                given.clone(),
            );
            let e = model.edges.len();
            assert_eq!(id.0 as usize, e, "{at}: edge id");
            model
                .edges
                .push((source, target, rel_type, collected(&given)));
            model.out[source].push(e);
            model.inc[target].push(e);
        }
        if rng.chance(0.02) {
            clones.push((step, graph.clone(), model.clone()));
        }
        if step % (ops / CHECKS) == 0 || step == ops {
            check(&graph, &model, &at);
        }
    }
    let at = format!("case {case} (seed {seed}) end");
    check_cypher(&graph, &model, &at);
    for (step, clone, then) in &clones {
        let at = format!("case {case} (seed {seed}) clone taken at step {step}");
        check(clone, then, &at);
    }
}

#[test]
fn the_graph_answers_as_the_reference_model_does() {
    println!(
        "model equivalence: seed {SEED}, {CASES} cases of {OPS} operations and one of {LONG_OPS}"
    );
    for case in 0..CASES {
        run_case(case, OPS);
    }
    run_case(CASES, LONG_OPS);
}
