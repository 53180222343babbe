//! The pattern-match executor.
//!
//! Executes [`crate::ast::Query`] against a [`PropertyGraph`] with
//! backtracking: seed candidates for the first node pattern come from a
//! declared `(label, key)` index when the pattern names one, else from
//! scanning its label (as Neo4j does for a property without `CREATE
//! INDEX`); each hop expands along the adjacency lists, respecting
//! direction, relationship type, and property constraints, and a `MATCH`
//! takes each relationship once, across its comma-separated patterns as
//! along each path (as in Cypher); `WHERE`
//! filters evaluated bindings; `RETURN` projects. [`query`] only reads;
//! [`run`] also `CREATE`s.

use crate::ast::*;
use crate::parser::ParseError;
use crate::store::{EdgeId, EdgeRef, NodeId, PropertyGraph};
use create_docstore::Value;
use std::collections::HashMap;
use std::fmt;

/// A value in a result row.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultValue {
    /// A bound node.
    Node(NodeId),
    /// A bound relationship.
    Edge(EdgeId),
    /// A projected property or count.
    Value(Value),
}

/// Query output: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Column headers (the RETURN items, rendered).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<ResultValue>>,
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// RETURN/WHERE referenced an unbound variable.
    UnboundVariable(String),
    /// CREATE pattern reused a variable (unsupported).
    InvalidCreate(String),
    /// A `CREATE` given to [`query`], which only reads.
    ReadOnly,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundVariable(v) => write!(f, "unbound variable {v:?}"),
            ExecError::InvalidCreate(m) => write!(f, "invalid CREATE: {m}"),
            ExecError::ReadOnly => write!(f, "CREATE in a read-only query"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Why [`query`] answered nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The text is not a query.
    Parse(ParseError),
    /// The query did not execute.
    Exec(ExecError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => e.fmt(f),
            QueryError::Exec(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Binding {
    Node(NodeId),
    Edge(EdgeId),
}

type Bindings = HashMap<String, Binding>;

/// A partial match: the variables bound so far and the relationships its
/// paths have taken, which no later hop of the same `MATCH` takes again.
#[derive(Default)]
struct Row {
    vars: Bindings,
    edges: Vec<EdgeId>,
}

/// Traversal counters for one query, flushed to the obs registry in a
/// single call when execution finishes.
#[derive(Debug, Default)]
struct ExecStats {
    nodes_visited: u64,
    edges_traversed: u64,
}

/// Executes a query, `CREATE` included.
pub fn execute(graph: &mut PropertyGraph, query: &Query) -> Result<QueryOutput, ExecError> {
    match query {
        Query::Create { pattern } => execute_create(graph, pattern),
        Query::Match { .. } => execute_read(graph, query),
    }
}

/// Executes a query that only reads: a `MATCH`. A `CREATE` is refused
/// with [`ExecError::ReadOnly`].
fn execute_read(graph: &PropertyGraph, query: &Query) -> Result<QueryOutput, ExecError> {
    match query {
        Query::Create { .. } => Err(ExecError::ReadOnly),
        Query::Match {
            patterns,
            where_clause,
            ret,
            distinct,
            order_by,
            limit,
        } => {
            let mut stats = ExecStats::default();
            let result = execute_match(
                graph,
                patterns,
                where_clause.as_ref(),
                ret,
                *distinct,
                order_by.as_ref(),
                *limit,
                &mut stats,
            );
            create_obs::record_graph_exec(stats.nodes_visited, stats.edges_traversed);
            result
        }
    }
}

/// Creates the pattern's nodes and edges — none when a hop has no type.
fn execute_create(
    graph: &mut PropertyGraph,
    pattern: &PathPattern,
) -> Result<QueryOutput, ExecError> {
    if pattern.hops.iter().any(|(rel, _)| rel.rel_type.is_none()) {
        return Err(ExecError::InvalidCreate(
            "CREATE edges need a type".to_string(),
        ));
    }
    let start = &pattern.start;
    let mut prev = graph.create_node(&start.labels, start.props.clone());
    for (rel, node) in &pattern.hops {
        let next = graph.create_node(&node.labels, node.props.clone());
        let (source, target) = match rel.direction {
            Direction::Out | Direction::Both => (prev, next),
            Direction::In => (next, prev),
        };
        let rel_type = rel.rel_type.as_deref().expect("checked above");
        graph.create_edge(source, target, rel_type, rel.props.clone());
        prev = next;
    }
    let count = |n: usize| ResultValue::Value(Value::Number(n as f64));
    let edges = pattern.hops.len();
    Ok(QueryOutput {
        columns: vec!["nodes_created".to_string(), "edges_created".to_string()],
        rows: vec![vec![count(edges + 1), count(edges)]],
    })
}

fn node_matches(graph: &PropertyGraph, id: NodeId, pattern: &NodePattern) -> bool {
    let node = graph.node(id).expect("candidate exists");
    pattern.labels.iter().all(|l| node.has_label(l))
        && pattern
            .props
            .iter()
            .all(|(k, v)| node.prop(k).is_some_and(|found| found == *v))
}

fn seed_candidates(
    graph: &PropertyGraph,
    pattern: &NodePattern,
    stats: &mut ExecStats,
) -> Vec<NodeId> {
    // A declared (label, key) index the pattern names; else its first
    // label, scanned; else every node.
    let indexed = pattern.labels.iter().find_map(|label| {
        pattern
            .props
            .iter()
            .find_map(|(k, v)| graph.nodes_with_prop(label, k, v))
    });
    let candidates: Vec<NodeId> = match (indexed, pattern.labels.first()) {
        (Some(hits), _) => hits,
        (None, Some(label)) => graph.nodes_with_label(label).collect(),
        (None, None) => graph.nodes().map(|n| n.id).collect(),
    };
    stats.nodes_visited += candidates.len() as u64;
    candidates
        .into_iter()
        .filter(|&id| node_matches(graph, id, pattern))
        .collect()
}

fn bind_node(bindings: &mut Bindings, var: &Option<String>, id: NodeId) -> bool {
    if let Some(name) = var {
        match bindings.get(name) {
            Some(Binding::Node(existing)) => return *existing == id,
            Some(_) => return false,
            None => {
                bindings.insert(name.clone(), Binding::Node(id));
            }
        }
    }
    true
}

/// Recursively matches the hop list starting from `current`. As in
/// Cypher, a `MATCH` traverses a relationship at most once: `path` holds
/// the edges its row has taken, in earlier patterns and on this path, so
/// a pattern of more hops than the graph has edges matches nothing, an
/// undirected hop does not walk back along the edge it came by, and two
/// patterns never bind the same edge.
fn match_hops(
    graph: &PropertyGraph,
    current: NodeId,
    hops: &[(RelPattern, NodePattern)],
    bindings: &Bindings,
    path: &mut Vec<EdgeId>,
    out: &mut Vec<Row>,
    stats: &mut ExecStats,
) {
    let Some(((rel, node), rest)) = hops.split_first() else {
        out.push(Row {
            vars: bindings.clone(),
            edges: path.clone(),
        });
        return;
    };
    let mut candidates: Vec<(EdgeRef<'_>, NodeId)> = Vec::new();
    if matches!(rel.direction, Direction::Out | Direction::Both) {
        for e in graph.outgoing(current) {
            candidates.push((e, e.target));
        }
    }
    if matches!(rel.direction, Direction::In | Direction::Both) {
        for e in graph.incoming(current) {
            candidates.push((e, e.source));
        }
    }
    stats.edges_traversed += candidates.len() as u64;
    for (edge, next_node) in candidates {
        let edge_id = edge.id;
        if path.contains(&edge_id) || rel.rel_type.as_ref().is_some_and(|t| edge.rel_type != t) {
            continue;
        }
        if !rel
            .props
            .iter()
            .all(|(k, v)| edge.prop(k).is_some_and(|found| found == *v))
        {
            continue;
        }
        if !node_matches(graph, next_node, node) {
            continue;
        }
        let mut next_bindings = bindings.clone();
        if let Some(rvar) = &rel.var {
            match next_bindings.get(rvar) {
                Some(Binding::Edge(existing)) if *existing == edge_id => {}
                Some(_) => continue,
                None => {
                    next_bindings.insert(rvar.clone(), Binding::Edge(edge_id));
                }
            }
        }
        if !bind_node(&mut next_bindings, &node.var, next_node) {
            continue;
        }
        stats.nodes_visited += 1;
        path.push(edge_id);
        match_hops(graph, next_node, rest, &next_bindings, path, out, stats);
        path.pop();
    }
}

fn match_pattern(
    graph: &PropertyGraph,
    pattern: &PathPattern,
    seeds: &[Row],
    stats: &mut ExecStats,
) -> Vec<Row> {
    let (mut results, mut path) = (Vec::new(), Vec::new());
    for base in seeds {
        // If the start var is already bound, restrict to it.
        let bound = pattern.start.var.as_ref().and_then(|v| base.vars.get(v));
        let candidates: Vec<NodeId> = match bound {
            Some(Binding::Node(id)) if node_matches(graph, *id, &pattern.start) => vec![*id],
            Some(_) => Vec::new(),
            None => seed_candidates(graph, &pattern.start, stats),
        };
        for start in candidates {
            let mut bindings = base.vars.clone();
            if !bind_node(&mut bindings, &pattern.start.var, start) {
                continue;
            }
            path.clone_from(&base.edges);
            match_hops(
                graph,
                start,
                &pattern.hops,
                &bindings,
                &mut path,
                &mut results,
                stats,
            );
        }
    }
    results
}

fn prop_of(graph: &PropertyGraph, binding: Binding, key: &str) -> Value {
    let found = match binding {
        Binding::Node(id) => graph.node(id).and_then(|n| n.prop(key)),
        Binding::Edge(id) => {
            let edge = graph.edge(id).expect("bound edge exists");
            if key == "type" {
                return Value::String(edge.rel_type.to_string());
            }
            edge.prop(key)
        }
    };
    found.map_or(Value::Null, |value| value.to_value())
}

fn eval_expr(graph: &PropertyGraph, expr: &Expr, bindings: &Bindings) -> Result<bool, ExecError> {
    match expr {
        Expr::And(a, b) => Ok(eval_expr(graph, a, bindings)? && eval_expr(graph, b, bindings)?),
        Expr::Or(a, b) => Ok(eval_expr(graph, a, bindings)? || eval_expr(graph, b, bindings)?),
        Expr::Not(inner) => Ok(!eval_expr(graph, inner, bindings)?),
        Expr::Cmp {
            var,
            key,
            op,
            value,
        } => {
            let binding = *bindings
                .get(var)
                .ok_or_else(|| ExecError::UnboundVariable(var.clone()))?;
            let actual = prop_of(graph, binding, key);
            Ok(compare(&actual, *op, value))
        }
    }
}

fn compare(actual: &Value, op: CmpOp, expected: &Value) -> bool {
    match op {
        CmpOp::Eq => actual == expected,
        CmpOp::Ne => actual != expected,
        CmpOp::Contains => match (actual, expected) {
            (Value::String(a), Value::String(b)) => a.to_lowercase().contains(&b.to_lowercase()),
            _ => false,
        },
        numeric => match (actual.as_f64(), expected.as_f64()) {
            (Some(a), Some(b)) => match numeric {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                _ => unreachable!("handled above"),
            },
            _ => false,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_match(
    graph: &PropertyGraph,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    ret: &[ReturnItem],
    distinct: bool,
    order_by: Option<&(String, String, bool)>,
    limit: Option<usize>,
    stats: &mut ExecStats,
) -> Result<QueryOutput, ExecError> {
    let mut matched = vec![Row::default()];
    for pattern in patterns {
        matched = match_pattern(graph, pattern, &matched, stats);
        if matched.is_empty() {
            break;
        }
    }
    let mut filtered = Vec::new();
    for b in matched.into_iter().map(|row| row.vars) {
        match where_clause {
            Some(expr) => {
                if eval_expr(graph, expr, &b)? {
                    filtered.push(b);
                }
            }
            None => filtered.push(b),
        }
    }
    if let Some((var, key, descending)) = order_by {
        // Sort bindings by the projected property; missing values sort
        // last in either direction. Numbers compare numerically, strings
        // lexicographically, mixed values by their JSON rendering.
        let mut keyed: Vec<(Option<Value>, Bindings)> = Vec::with_capacity(filtered.len());
        for b in filtered {
            let sort_value = b
                .get(var)
                .map(|binding| prop_of(graph, *binding, key))
                .filter(|v| !v.is_null());
            keyed.push((sort_value, b));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            let ord = match (a, b) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (Some(_), None) => std::cmp::Ordering::Less,
                (Some(x), Some(y)) => match (x.as_f64(), y.as_f64()) {
                    (Some(nx), Some(ny)) => {
                        nx.partial_cmp(&ny).unwrap_or(std::cmp::Ordering::Equal)
                    }
                    _ => x.to_json().cmp(&y.to_json()),
                },
            };
            // Missing values stay last regardless of direction.
            if *descending && a.is_some() && b.is_some() {
                ord.reverse()
            } else {
                ord
            }
        });
        filtered = keyed.into_iter().map(|(_, b)| b).collect();
    }

    let columns: Vec<String> = ret
        .iter()
        .map(|item| match item {
            ReturnItem::Var(v) => v.clone(),
            ReturnItem::Prop(v, k) => format!("{v}.{k}"),
            ReturnItem::CountStar => "COUNT(*)".to_string(),
        })
        .collect();

    // `LIMIT` caps the rows returned, the one row of a `COUNT(*)` too.
    let limit = limit.unwrap_or(usize::MAX);
    if ret.iter().any(|r| matches!(r, ReturnItem::CountStar)) {
        let count = vec![ResultValue::Value(Value::Number(filtered.len() as f64))];
        return Ok(QueryOutput {
            columns,
            rows: std::iter::once(count).take(limit).collect(),
        });
    }

    let mut rows = Vec::new();
    let mut seen_rows: std::collections::HashSet<String> = std::collections::HashSet::new();
    for b in filtered {
        if rows.len() >= limit {
            break;
        }
        let mut row = Vec::with_capacity(ret.len());
        for item in ret {
            match item {
                ReturnItem::Var(v) => {
                    let binding = b
                        .get(v)
                        .ok_or_else(|| ExecError::UnboundVariable(v.clone()))?;
                    row.push(match binding {
                        Binding::Node(id) => ResultValue::Node(*id),
                        Binding::Edge(id) => ResultValue::Edge(*id),
                    });
                }
                ReturnItem::Prop(v, k) => {
                    let binding = *b
                        .get(v)
                        .ok_or_else(|| ExecError::UnboundVariable(v.clone()))?;
                    row.push(ResultValue::Value(prop_of(graph, binding, k)));
                }
                ReturnItem::CountStar => unreachable!("handled above"),
            }
        }
        if distinct {
            let fingerprint = format!("{row:?}");
            if !seen_rows.insert(fingerprint) {
                continue;
            }
        }
        rows.push(row);
    }
    Ok(QueryOutput { columns, rows })
}

/// Parses and executes a query string that only reads — the "via cypher
/// query" entry point over the graph the platform builds from its stored
/// reports. A `CREATE` is refused with [`ExecError::ReadOnly`]: that
/// graph is a function of the reports, written by ingest alone.
///
/// ```
/// use create_graphdb::{exec::{query, run, ExecError, QueryError}, PropertyGraph};
/// let mut g = PropertyGraph::new();
/// run(&mut g, "CREATE (a:Concept {label: 'fever'})-[:BEFORE]->(b:Concept {label: 'death'})").unwrap();
/// let out = query(&g, "MATCH (a)-[:BEFORE]->(b) RETURN a.label, b.label").unwrap();
/// assert_eq!(out.rows.len(), 1);
/// let refused = query(&g, "CREATE (c:Concept {label: 'cough'})");
/// assert_eq!(refused, Err(QueryError::Exec(ExecError::ReadOnly)));
/// ```
pub fn query(graph: &PropertyGraph, text: &str) -> Result<QueryOutput, QueryError> {
    let parsed = crate::parser::parse_query(text).map_err(QueryError::Parse)?;
    execute_read(graph, &parsed).map_err(QueryError::Exec)
}

/// Parses and executes a query string, `CREATE` included, on a graph of
/// the caller's own.
///
/// ```
/// use create_graphdb::{PropertyGraph, exec::run};
/// let mut g = PropertyGraph::new();
/// run(&mut g, "CREATE (a:Concept {label: 'fever'})-[:BEFORE]->(b:Concept {label: 'death'})").unwrap();
/// let out = run(&mut g, "MATCH (a)-[:BEFORE]->(b) RETURN a.label, b.label").unwrap();
/// assert_eq!(out.rows.len(), 1);
/// ```
pub fn run(graph: &mut PropertyGraph, query: &str) -> Result<QueryOutput, String> {
    let parsed = crate::parser::parse_query(query).map_err(|e| e.to_string())?;
    execute(graph, &parsed).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, MAX_DEPTH};

    fn sample_graph() -> PropertyGraph {
        sample_into(PropertyGraph::new())
    }

    fn sample_into(mut g: PropertyGraph) -> PropertyGraph {
        let s = |x: &str| Value::String(x.to_string());
        let fever = g.create_node(
            ["Concept"],
            vec![("label", s("fever")), ("entityType", s("Sign_symptom"))],
        );
        let cough = g.create_node(
            ["Concept"],
            vec![("label", s("cough")), ("entityType", s("Sign_symptom"))],
        );
        let death = g.create_node(
            ["Concept"],
            vec![("label", s("died")), ("entityType", s("Outcome"))],
        );
        let r1 = g.create_node(
            ["Report"],
            vec![("reportId", s("pmid:1")), ("year", Value::Number(2020.0))],
        );
        let r2 = g.create_node(
            ["Report"],
            vec![("reportId", s("pmid:2")), ("year", Value::Number(2015.0))],
        );
        g.create_edge::<&str>(fever, cough, "OVERLAP", vec![]);
        g.create_edge::<&str>(cough, death, "BEFORE", vec![]);
        g.create_edge::<&str>(r1, fever, "MENTIONS", vec![]);
        g.create_edge::<&str>(r1, cough, "MENTIONS", vec![]);
        g.create_edge::<&str>(r2, cough, "MENTIONS", vec![]);
        g
    }

    fn run_q(g: &mut PropertyGraph, q: &str) -> QueryOutput {
        let parsed = parse_query(q).unwrap();
        execute(g, &parsed).unwrap()
    }

    #[test]
    fn match_by_label() {
        let mut g = sample_graph();
        let out = run_q(&mut g, "MATCH (c:Concept) RETURN c");
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn match_by_property() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (c:Concept {label: 'fever'}) RETURN c.entityType",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("Sign_symptom".into()))
        );
    }

    #[test]
    fn match_one_hop() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (a:Concept {label: 'fever'})-[:OVERLAP]->(b) RETURN b.label",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("cough".into()))
        );
    }

    #[test]
    fn match_two_hops_finds_temporal_chain() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (a:Concept {label: 'fever'})-[:OVERLAP]->(b)-[:BEFORE]->(c) RETURN c.label",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("died".into()))
        );
    }

    #[test]
    fn incoming_direction() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (c:Concept {label: 'cough'})<-[:MENTIONS]-(r:Report) RETURN r.reportId",
        );
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn undirected_matches_both() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (c:Concept {label: 'cough'})-[:OVERLAP]-(x) RETURN x.label",
        );
        assert_eq!(out.rows.len(), 1); // fever via incoming
    }

    #[test]
    fn where_filters_rows() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (r:Report) WHERE r.year >= 2018 RETURN r.reportId",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("pmid:1".into()))
        );
    }

    #[test]
    fn where_contains() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (c:Concept) WHERE c.label CONTAINS 'FEV' RETURN c.label",
        );
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn count_star() {
        let mut g = sample_graph();
        let out = run_q(&mut g, "MATCH (c:Concept) RETURN COUNT(*)");
        assert_eq!(out.rows[0][0], ResultValue::Value(Value::Number(3.0)));
    }

    #[test]
    fn limit_caps_rows() {
        let mut g = sample_graph();
        let out = run_q(&mut g, "MATCH (c:Concept) RETURN c LIMIT 2");
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn limit_zero_returns_no_rows() {
        let mut g = sample_graph();
        for q in [
            "MATCH (c:Concept) RETURN c LIMIT 0",
            "MATCH (c:Concept) RETURN c.label ORDER BY c.label LIMIT 0",
            "MATCH (c:Concept) RETURN COUNT(*) LIMIT 0",
        ] {
            assert!(run_q(&mut g, q).rows.is_empty(), "{q}");
        }
        let out = run_q(&mut g, "MATCH (c:Concept) RETURN COUNT(*) LIMIT 1");
        assert_eq!(out.rows, vec![vec![ResultValue::Value(Value::Number(3.0))]]);
    }

    #[test]
    fn a_match_takes_each_relationship_once_across_patterns() {
        let mut g = sample_graph();
        // `r` is fever's one outgoing edge; `s` any of the other four.
        let out = run_q(
            &mut g,
            "MATCH (a {label: 'fever'})-[r]->(b), (c)-[s]->(d) RETURN r, s",
        );
        assert_eq!(out.rows.len(), 4);
        assert!(out.rows.iter().all(|row| row[0] != row[1]), "{out:?}");
        // Two mentions of one report are two relationships: a report
        // pairs each concept it mentions with each other one, not itself.
        let out = run_q(
            &mut g,
            "MATCH (r:Report)-[:MENTIONS]->(a), (r)-[:MENTIONS]->(b) RETURN a.label, b.label",
        );
        let pairs: Vec<(Value, Value)> = (out.rows.iter())
            .map(|row| match (&row[0], &row[1]) {
                (ResultValue::Value(a), ResultValue::Value(b)) => (a.clone(), b.clone()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let s = |x: &str| Value::String(x.to_string());
        assert_eq!(
            pairs,
            vec![(s("fever"), s("cough")), (s("cough"), s("fever"))]
        );
    }

    #[test]
    fn multi_pattern_join_on_shared_variable() {
        let mut g = sample_graph();
        // Reports mentioning both fever and cough.
        let out = run_q(
            &mut g,
            "MATCH (r:Report)-[:MENTIONS]->(a:Concept {label: 'fever'}), (r)-[:MENTIONS]->(b:Concept {label: 'cough'}) RETURN r.reportId",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("pmid:1".into()))
        );
    }

    #[test]
    fn relationship_variable_projects_type() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (a:Concept {label: 'cough'})-[r:BEFORE]->(b) RETURN r.type",
        );
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("BEFORE".into()))
        );
    }

    #[test]
    fn create_builds_nodes_and_edges() {
        let mut g = PropertyGraph::new();
        let out = run_q(
            &mut g,
            "CREATE (a:Concept {label: 'fever'})-[:BEFORE]->(b:Concept {label: 'death'})",
        );
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(out.columns, vec!["nodes_created", "edges_created"]);
        let found = run_q(&mut g, "MATCH (a)-[:BEFORE]->(b) RETURN a.label, b.label");
        assert_eq!(found.rows.len(), 1);
    }

    #[test]
    fn unbound_variable_is_error() {
        let mut g = sample_graph();
        let parsed = parse_query("MATCH (a:Concept) RETURN z").unwrap();
        assert!(matches!(
            execute(&mut g, &parsed),
            Err(ExecError::UnboundVariable(_))
        ));
    }

    #[test]
    fn no_match_returns_empty() {
        let mut g = sample_graph();
        let out = run_q(&mut g, "MATCH (c:Concept {label: 'nothing'}) RETURN c");
        assert!(out.rows.is_empty());
    }

    #[test]
    fn order_by_sorts_numeric_and_string() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (r:Report) RETURN r.reportId ORDER BY r.year DESC",
        );
        assert_eq!(
            out.rows[0][0],
            ResultValue::Value(Value::String("pmid:1".into())),
            "2020 should sort before 2015 descending"
        );
        let out = run_q(&mut g, "MATCH (c:Concept) RETURN c.label ORDER BY c.label");
        let labels: Vec<String> = out
            .rows
            .iter()
            .map(|r| match &r[0] {
                ResultValue::Value(Value::String(s)) => s.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn order_by_with_limit_takes_top() {
        let mut g = sample_graph();
        let out = run_q(
            &mut g,
            "MATCH (r:Report) RETURN r.year ORDER BY r.year DESC LIMIT 1",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], ResultValue::Value(Value::Number(2020.0)));
    }

    #[test]
    fn distinct_dedupes_rows() {
        let mut g = sample_graph();
        // Each concept's entityType appears multiple times without DISTINCT.
        let plain = run_q(&mut g, "MATCH (c:Concept) RETURN c.entityType");
        let distinct = run_q(&mut g, "MATCH (c:Concept) RETURN DISTINCT c.entityType");
        assert_eq!(plain.rows.len(), 3);
        assert_eq!(distinct.rows.len(), 2); // Sign_symptom, Outcome
    }

    #[test]
    fn order_by_rejects_missing_by() {
        let mut g = sample_graph();
        assert!(run(&mut g, "MATCH (r:Report) RETURN r ORDER r.year").is_err());
    }

    #[test]
    fn query_reads_and_refuses_create() {
        let g = sample_graph();
        let out = query(&g, "MATCH (c:Concept {label: 'fever'}) RETURN c.entityType").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            query(&g, "CREATE (x:Concept {label: 'new'})"),
            Err(QueryError::Exec(ExecError::ReadOnly))
        );
        assert!(matches!(
            query(&g, "NOT A QUERY"),
            Err(QueryError::Parse(_))
        ));
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn a_declared_index_and_a_label_scan_seed_the_same_rows() {
        let scanned = sample_graph();
        let indexed = sample_into(PropertyGraph::with_indexes(&[
            ("Concept", "label"),
            ("Report", "year"),
        ]));
        for q in [
            "MATCH (c:Concept {label: 'cough'})<-[:MENTIONS]-(r:Report) RETURN r.reportId",
            "MATCH (r:Report {year: 2015}) RETURN r.reportId",
            "MATCH (c:Concept {entityType: 'Sign_symptom', label: 'fever'}) RETURN c",
        ] {
            let a = query(&scanned, q).unwrap();
            assert_eq!(a, query(&indexed, q).unwrap(), "{q}");
            assert!(!a.rows.is_empty(), "{q}");
        }
    }

    #[test]
    fn a_where_clause_at_the_depth_cap_executes() {
        let g = sample_graph();
        let cmp = "c.label = 'fever'";
        // An even number of NOTs is no NOT.
        assert_eq!(MAX_DEPTH % 2, 0);
        for clause in [
            format!("{}{cmp}", "NOT ".repeat(MAX_DEPTH)),
            format!("{}{cmp}{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH)),
            format!("{cmp}{}", " OR c.label = 'none'".repeat(MAX_DEPTH)),
            format!(
                "{cmp}{}",
                " AND c.entityType = 'Sign_symptom'".repeat(MAX_DEPTH)
            ),
        ] {
            let q = format!("MATCH (c:Concept) WHERE {clause} RETURN c.label");
            let out = query(&g, &q).unwrap();
            let fever = ResultValue::Value(Value::String("fever".into()));
            assert_eq!(out.rows, vec![vec![fever]], "{}", &q[..40]);
        }
    }

    #[test]
    fn a_path_takes_each_relationship_once() {
        let g = sample_graph();
        // Out along OVERLAP and straight back along it: no row.
        let back =
            "MATCH (c:Concept {label: 'cough'})-[:OVERLAP]-(x)-[:OVERLAP]-(y) RETURN y.label";
        assert_eq!(
            query(&g, back).unwrap().rows,
            Vec::<Vec<ResultValue>>::new()
        );
        // A mutant the Cypher fuzz made: every hop could bounce on any
        // edge, 2^hops paths and more. Each edge once, the graph's five
        // edges end every path long before the pattern does.
        let hops = format!("MATCH (c:Concept){} RETURN c", "-[]-()".repeat(MAX_DEPTH));
        assert!(query(&g, &hops).unwrap().rows.is_empty());
        let walk =
            "MATCH (a:Concept {label: 'fever'})-[]-(b)-[]-(c) RETURN c.label ORDER BY c.label";
        let labels: Vec<ResultValue> = query(&g, walk).unwrap().rows.concat();
        let s = |x: &str| ResultValue::Value(Value::String(x.into()));
        let null = ResultValue::Value(Value::Null);
        // Never back to fever along the edge just taken.
        assert_eq!(labels, [s("cough"), s("died"), null.clone(), null]);
    }

    #[test]
    fn hundreds_of_relationship_types_each_match() {
        let mut g = PropertyGraph::new();
        for i in 0..300 {
            run(&mut g, &format!("CREATE (a:A {{i: {i}}})-[:T{i}]->(b:B)")).unwrap();
        }
        for i in 0..300 {
            let q = format!("MATCH (a:A)-[r:T{i}]->(b:B) RETURN a.i, r.type");
            let out = query(&g, &q).unwrap();
            let want = vec![
                ResultValue::Value(Value::Number(i as f64)),
                ResultValue::Value(Value::String(format!("T{i}"))),
            ];
            assert_eq!(out.rows, vec![want], "{q}");
        }
    }

    #[test]
    fn run_helper_reports_parse_errors() {
        let mut g = sample_graph();
        assert!(run(&mut g, "NOT A QUERY").is_err());
        assert!(run(&mut g, "MATCH (c:Concept) RETURN COUNT(*)").is_ok());
    }
}
