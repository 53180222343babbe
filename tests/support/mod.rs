//! Reference implementations of the three readers that once walked a
//! shard's resident property graph: the graph search leg, the temporal
//! operators' event lift, and the Fig-7 SVG walk. They run over the
//! graph `Snapshot::shard_graph` builds on demand — node for node the
//! graph each write used to extend — and serve as oracles for the
//! event-record readers that replaced them.

use create::core::graph_build::find_concept;
use create::core::plan::{TemporalConstraint, TemporalOp, STEP_DAYS};
use create::core::{SearchHit, SearchSource};
use create::graphdb::{NodeId, PropertyGraph};
use create::ontology::{ConceptId, RelationType};
use create::temporal::TemporalGraph;
use create::viz::{render_svg, SvgOptions, VizEdge, VizGraph, VizNode};
use std::collections::HashMap;

/// The `Report` node of `report_id`.
pub fn report_node(graph: &PropertyGraph, report_id: &str) -> Option<NodeId> {
    graph.nodes_with_label("Report").find(|&id| {
        let node = graph.node(id).expect("listed nodes exist");
        node.prop("reportId").and_then(|v| v.as_str()) == Some(report_id)
    })
}

/// The report ids of the graph's `Report` nodes, in creation order.
pub fn report_ids(graph: &PropertyGraph) -> Vec<String> {
    graph
        .nodes_with_label("Report")
        .map(|id| {
            let node = graph.node(id).expect("listed nodes exist");
            let report_id = node.prop("reportId").and_then(|v| v.as_str());
            report_id.expect("a report id").to_string()
        })
        .collect()
}

/// Reports (by node) mentioning a concept.
fn reports_mentioning(graph: &PropertyGraph, concept: ConceptId) -> Vec<NodeId> {
    let Some(cnode) = find_concept(graph, concept) else {
        return Vec::new();
    };
    graph
        .incoming(cnode)
        .into_iter()
        .filter(|e| e.rel_type == "MENTIONS")
        .map(|e| e.source)
        .collect()
}

/// Timeline steps at which `concept` occurs in the report.
fn concept_steps(graph: &PropertyGraph, report: NodeId, concept: ConceptId) -> Vec<f64> {
    let cui = concept.to_string();
    graph
        .outgoing(report)
        .into_iter()
        .filter(|e| e.rel_type == "CONTAINS")
        .filter_map(|e| graph.node(e.target))
        .filter(|event| event.prop("cui").and_then(|v| v.as_str()) == Some(&*cui))
        .filter_map(|event| event.prop("step")?.as_f64())
        .collect()
}

/// True when the report realizes `rel` between the two concepts.
fn pattern_matches(
    graph: &PropertyGraph,
    report: NodeId,
    c1: ConceptId,
    c2: ConceptId,
    rel: RelationType,
) -> bool {
    let s1 = concept_steps(graph, report, c1);
    let s2 = concept_steps(graph, report, c2);
    for &a in &s1 {
        for &b in &s2 {
            let ok = match rel {
                RelationType::Before => a < b,
                RelationType::After => a > b,
                RelationType::Overlap => (a - b).abs() < f64::EPSILON,
                _ => false,
            };
            if ok {
                return true;
            }
        }
    }
    false
}

/// The graph search leg over one graph: all concepts required, the
/// temporal pattern scored on top; score descending, report id
/// ascending, the first `k`.
pub fn graph_search(
    graph: &PropertyGraph,
    concepts: &[ConceptId],
    pattern: Option<(ConceptId, ConceptId, RelationType)>,
    k: usize,
) -> Vec<SearchHit> {
    if concepts.is_empty() {
        return Vec::new();
    }
    // Candidate reports: intersection over per-concept mention lists,
    // seeded from the rarest concept.
    let mut lists: Vec<Vec<NodeId>> = concepts
        .iter()
        .map(|&c| reports_mentioning(graph, c))
        .collect();
    lists.sort_by_key(Vec::len);
    let Some((seed, rest)) = lists.split_first() else {
        return Vec::new();
    };
    let mut hits = Vec::new();
    for &report in seed {
        if !rest.iter().all(|l| l.contains(&report)) {
            continue;
        }
        let pattern_matched = match pattern {
            Some((c1, c2, rel)) => pattern_matches(graph, report, c1, c2, rel),
            None => false,
        };
        let node = graph.node(report).expect("report node exists");
        let report_id = node
            .prop("reportId")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        let year = node.prop("year").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let score = if pattern_matched { 10.0 } else { 1.0 } + year / 10_000.0;
        hits.push(SearchHit {
            report_id,
            score,
            source: SearchSource::Graph,
            pattern_matched,
        });
    }
    sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

/// The graph leg over several shards' graphs: each one's top `k`, then
/// the same order and cap over their union.
pub fn scatter_graph_search(
    graphs: &[PropertyGraph],
    concepts: &[ConceptId],
    pattern: Option<(ConceptId, ConceptId, RelationType)>,
    k: usize,
) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = graphs
        .iter()
        .flat_map(|graph| graph_search(graph, concepts, pattern, k))
        .collect();
    sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

fn sort_hits(hits: &mut [SearchHit]) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| a.report_id.cmp(&b.report_id))
    });
}

/// One event of a report lifted out of the property graph.
struct ReportEvent {
    cui: Option<ConceptId>,
    step: Option<f64>,
}

/// A report's events and the temporal graph over them.
fn events_of(graph: &PropertyGraph, report: NodeId) -> Option<(Vec<ReportEvent>, TemporalGraph)> {
    let event_nodes: Vec<NodeId> = graph
        .outgoing(report)
        .into_iter()
        .filter(|e| e.rel_type == "CONTAINS")
        .map(|e| e.target)
        .collect();
    let index_of: HashMap<NodeId, usize> = event_nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let mut events = Vec::with_capacity(event_nodes.len());
    let mut tg = TemporalGraph::new(
        event_nodes
            .iter()
            .map(|&n| format!("event-{n:?}"))
            .collect(),
    );
    for (i, &node) in event_nodes.iter().enumerate() {
        let n = graph.node(node)?;
        events.push(ReportEvent {
            cui: n
                .prop("cui")
                .and_then(|v| v.as_str())
                .and_then(ConceptId::parse),
            step: n.prop("step").and_then(|v| v.as_f64()),
        });
        for edge in graph.outgoing(node) {
            let rel = match edge.rel_type {
                "BEFORE" => RelationType::Before,
                "OVERLAP" => RelationType::Overlap,
                _ => continue,
            };
            if let Some(&j) = index_of.get(&edge.target) {
                if i != j {
                    tg.add_edge(i, j, rel);
                }
            }
        }
    }
    Some((events, tg))
}

/// True when the report realizes every constraint.
pub fn satisfies_all(
    graph: &PropertyGraph,
    report: NodeId,
    constraints: &[&TemporalConstraint],
) -> bool {
    let Some((events, tg)) = events_of(graph, report) else {
        return false;
    };
    constraints.iter().all(|c| {
        let of = |concept: ConceptId| -> Vec<usize> {
            events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.cui == Some(concept))
                .map(|(i, _)| i)
                .collect()
        };
        let az = of(c.a);
        let bz = of(c.b);
        az.iter().any(|&ia| {
            bz.iter().any(|&ib| match c.op {
                TemporalOp::Within(days) => match (events[ia].step, events[ib].step) {
                    (Some(sa), Some(sb)) => {
                        (sa - sb).abs() * f64::from(STEP_DAYS) <= f64::from(days)
                    }
                    _ => false,
                },
                op => {
                    let rel = match op {
                        TemporalOp::Before => RelationType::Before,
                        TemporalOp::After => RelationType::After,
                        TemporalOp::Overlaps => RelationType::Overlap,
                        TemporalOp::Within(_) => unreachable!("handled above"),
                    };
                    if ia != ib {
                        if let Some(derived) = tg.infer(ia, ib) {
                            return derived == rel;
                        }
                    }
                    match (events[ia].step, events[ib].step) {
                        (Some(sa), Some(sb)) => match rel {
                            RelationType::Before => sa < sb,
                            RelationType::After => sa > sb,
                            RelationType::Overlap => (sa - sb).abs() < f64::EPSILON,
                            _ => false,
                        },
                        _ => false,
                    }
                }
            })
        })
    })
}

/// The Fig-7 SVG of a report's events and the temporal edges between
/// them, walked from its `Report` node; `None` without events.
pub fn visualize(graph: &PropertyGraph, report: NodeId) -> Option<String> {
    let events: Vec<_> = graph
        .outgoing(report)
        .into_iter()
        .filter(|e| e.rel_type == "CONTAINS")
        .map(|e| e.target)
        .collect();
    if events.is_empty() {
        return None;
    }
    let mut viz = VizGraph::default();
    let mut node_index = HashMap::new();
    for &ev in &events {
        let node = graph.node(ev)?;
        let prop = |key, absent| {
            let value = node.prop(key).and_then(|v| v.as_str());
            value.unwrap_or(absent).to_string()
        };
        node_index.insert(ev, viz.nodes.len());
        viz.nodes.push(VizNode {
            label: prop("label", "?"),
            kind: prop("entityType", "Other"),
        });
    }
    for &ev in &events {
        for edge in graph.outgoing(ev) {
            if edge.rel_type != "BEFORE" && edge.rel_type != "OVERLAP" {
                continue;
            }
            let (Some(&s), Some(&t)) = (node_index.get(&ev), node_index.get(&edge.target)) else {
                continue;
            };
            viz.edges.push(VizEdge {
                source: s,
                target: t,
                label: edge.rel_type.to_string(),
            });
        }
    }
    Some(render_svg(&viz, &SvgOptions::default()))
}
