//! Projecting reports into the property graph, and the event record
//! the read path keeps of each report instead.
//!
//! Graph schema (the "nodeId / label / entityType" model of Section III-D):
//!
//! * `(:Report {reportId, title, year, category})`
//! * `(:Concept {cui, label, entityType})` — global, deduplicated
//! * `(:Event {reportId, cui, label, entityType, step})` — per-report
//!   event instances carrying their timeline step
//! * `(:Report)-[:CONTAINS]->(:Event)`,
//!   `(:Event)-[:INSTANCE_OF]->(:Concept)`,
//!   `(:Report)-[:MENTIONS]->(:Concept)`,
//!   `(:Event)-[:BEFORE|:OVERLAP]->(:Event)` within a report.
//!
//! The graph is a view: Cypher gets it built on demand
//! ([`Create::graph`](crate::Create::graph)). A shard keeps one
//! [`EventRecord`] per report — what the graph search, the temporal
//! operators and the counts read of the report's part of the graph.
//! Both searches ask a record one temporal question,
//! [`EventRecord::realizes`], answered on the events' timeline steps.

use crate::pipeline::ExtractedAnnotations;
use crate::plan::{TemporalOp, STEP_DAYS};
use create_docstore::Value;
use create_graphdb::{NodeId, PropertyGraph};
use create_ontology::{ConceptId, Ontology, RelationType};
use create_util::fxhash::FxHashSet;
use create_util::{arc_slice_bytes, Chunked};
use std::sync::Arc;

/// An empty report graph: the one `(label, key)` pair it indexes by
/// value is `(Concept, cui)`, which [`add_report`] reads to share a
/// concept's node between reports. Every other property is found by
/// scanning its label.
pub fn report_graph() -> PropertyGraph {
    PropertyGraph::with_indexes(&[("Concept", "cui")])
}

/// The node of a concept, from the `(Concept, cui)` index of a
/// [`report_graph`]; on a graph that does not declare the pair, by
/// scanning its `Concept` nodes, as the Cypher executor does.
pub fn find_concept(graph: &PropertyGraph, cui: ConceptId) -> Option<NodeId> {
    let value = Value::String(cui.to_string());
    match graph.nodes_with_prop("Concept", "cui", &value) {
        Some(nodes) => nodes.last().copied(),
        None => graph.nodes_with_label("Concept").rev().find(|&id| {
            let node = graph.node(id).expect("listed nodes exist");
            node.prop("cui").is_some_and(|found| found == value)
        }),
    }
}

/// The mentions [`add_report`] makes `Event` nodes of, by mention
/// index, in mention order: those with a concept and an event type.
pub(crate) fn event_mentions(annotations: &ExtractedAnnotations) -> Vec<usize> {
    (annotations.mentions.iter().enumerate())
        .filter(|(_, m)| m.concept.is_some() && m.etype.is_event())
        .map(|(i, _)| i)
        .collect()
}

/// A temporal edge between two events of a report: source and target
/// as positions in its [`event_mentions`], and `BEFORE` or `OVERLAP`.
pub type TemporalEdge = (u32, u32, RelationType);

/// The temporal edges [`add_report`] creates between a report's
/// `events` (its [`event_mentions`]), in creation order: one per
/// relation whose endpoints are both events — an `AFTER` reversed into
/// a `BEFORE`, a relation that is not temporal dropped.
pub(crate) fn temporal_edges<'a>(
    annotations: &'a ExtractedAnnotations,
    events: &'a [usize],
) -> impl Iterator<Item = TemporalEdge> + 'a {
    let at = |mention: usize| events.binary_search(&mention).ok().map(|i| i as u32);
    (annotations.relations.iter()).filter_map(move |&(src, dst, rel)| {
        let (a, b) = (at(src)?, at(dst)?);
        match rel {
            RelationType::Before => Some((a, b, RelationType::Before)),
            RelationType::After => Some((b, a, RelationType::Before)),
            RelationType::Overlap => Some((a, b, RelationType::Overlap)),
            _ => None,
        }
    })
}

/// `edges` in the order a walk of the graph meets them: by source
/// event, then in creation order — each event's outgoing edges, as
/// `/graph.svg` draws them.
pub(crate) fn walk_order(edges: impl Iterator<Item = TemporalEdge>) -> Vec<TemporalEdge> {
    let mut walked: Vec<TemporalEdge> = edges.collect();
    walked.sort_by_key(|&(source, ..)| source);
    walked
}

/// One report's part of the graph as the read path uses it, taken from
/// its extraction as [`add_report`] takes it: a shard holds one per
/// document, indexed by doc id, in place of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// The report's year.
    pub year: u32,
    /// The concepts the report `MENTIONS`: sorted, distinct.
    pub concepts: Box<[ConceptId]>,
    /// Its events, in mention order: each one's concept and timeline
    /// step.
    pub events: Box<[(ConceptId, Option<u32>)]>,
    /// How many `BEFORE` / `OVERLAP` edges its events have.
    pub edges: u32,
}

impl EventRecord {
    /// The record of a report of `year` with `annotations`.
    pub fn new(year: u32, annotations: &ExtractedAnnotations) -> EventRecord {
        let mentions = &annotations.mentions;
        let mut concepts: Vec<ConceptId> = mentions.iter().filter_map(|m| m.concept).collect();
        concepts.sort_unstable();
        concepts.dedup();
        let events = event_mentions(annotations);
        EventRecord {
            year,
            concepts: concepts.into(),
            events: (events.iter().map(|&i| &mentions[i]))
                .map(|m| (m.concept.expect("events have concepts"), m.time_step))
                .collect(),
            edges: temporal_edges(annotations, &events).count() as u32,
        }
    }

    /// True when some event of `a` and some event of `b`, both with a
    /// timeline step, satisfy `op` on their steps (`Within(days)` at
    /// [`STEP_DAYS`] a step); an event without a step realizes nothing.
    /// The one temporal predicate: `/search`'s pattern and `/cohort`'s
    /// operators both ask it. A report's temporal edges agree with its
    /// steps (`CaseReport::validate`), so their closure adds nothing.
    pub fn realizes(&self, a: ConceptId, b: ConceptId, op: TemporalOp) -> bool {
        let steps = |concept: ConceptId| {
            (self.events.iter()).filter_map(move |&(cui, step)| step.filter(|_| cui == concept))
        };
        steps(a).any(|sa| {
            steps(b).any(|sb| match op {
                TemporalOp::Before => sa < sb,
                TemporalOp::After => sa > sb,
                TemporalOp::Overlaps => sa == sb,
                TemporalOp::Within(days) => {
                    u64::from(sa.abs_diff(sb)) * u64::from(STEP_DAYS) <= u64::from(days)
                }
            })
        })
    }
}

/// A shard's event records, by doc id.
pub type EventColumn = Chunked<Arc<EventRecord>>;

/// Heap bytes an event column holds: its chunks, and every record's
/// `Arc` allocation and two lists.
pub fn column_bytes(column: &EventColumn) -> usize {
    let record = |r: &Arc<EventRecord>| {
        arc_slice_bytes(size_of::<EventRecord>())
            + size_of_val(&*r.concepts)
            + size_of_val(&*r.events)
    };
    column.heap_bytes() + column.iter().map(record).sum::<usize>()
}

/// The `(nodes, edges)` of the graph [`add_report`] builds from the
/// reports of `column`: a node per report, per event and per distinct
/// concept; `CONTAINS` and `INSTANCE_OF` per event, `MENTIONS` per
/// report and concept, and the temporal edges.
pub(crate) fn graph_counts(column: &EventColumn) -> (usize, usize) {
    let mut concepts = FxHashSet::default();
    let (mut events, mut edges) = (0, 0);
    for record in column.iter() {
        concepts.extend(record.concepts.iter().copied());
        events += record.events.len();
        edges += record.concepts.len() + record.edges as usize;
    }
    (column.len() + events + concepts.len(), edges + 2 * events)
}

/// Metadata attached to the report node.
#[derive(Debug, Clone, Default)]
pub struct ReportMeta {
    /// External report id (`pmid:…`).
    pub report_id: String,
    /// Title.
    pub title: String,
    /// Publication year.
    pub year: u32,
    /// Coarse category label.
    pub category: String,
}

/// The concept's node: the one the graph has, or a new one.
fn concept_node(graph: &mut PropertyGraph, ontology: &Ontology, cui: ConceptId) -> NodeId {
    if let Some(id) = find_concept(graph, cui) {
        return id;
    }
    let (label, etype) = ontology
        .get(cui)
        .map(|c| (c.preferred.clone(), c.semantic_type.label().to_string()))
        .unwrap_or_else(|| ("unknown".to_string(), "Other".to_string()));
    graph.create_node(
        ["Concept"],
        vec![
            ("cui", Value::String(cui.to_string())),
            ("label", Value::String(label)),
            ("entityType", Value::String(etype)),
        ],
    )
}

/// Adds one report's annotations to a [`report_graph`]; returns the
/// report node. Its event and temporal-edge order is the one of
/// [`event_mentions`] and [`temporal_edges`].
pub fn add_report(
    graph: &mut PropertyGraph,
    ontology: &Ontology,
    meta: &ReportMeta,
    annotations: &ExtractedAnnotations,
) -> NodeId {
    let report_node = graph.create_node(
        ["Report"],
        vec![
            ("reportId", Value::String(meta.report_id.clone())),
            ("title", Value::String(meta.title.clone())),
            ("year", Value::Number(meta.year as f64)),
            ("category", Value::String(meta.category.clone())),
        ],
    );
    // Event nodes per mention with a concept + step, in mention order.
    let mut event_nodes: Vec<NodeId> = Vec::new();
    // MENTIONS edge once per (report, concept). The report node is
    // brand new, so a local set of linked concepts is equivalent to
    // scanning its outgoing edges — without rebuilding the adjacency
    // Vec on every mention.
    let mut mentioned: FxHashSet<NodeId> = FxHashSet::default();
    for m in &annotations.mentions {
        let Some(cui) = m.concept else { continue };
        let concept_node = concept_node(graph, ontology, cui);
        if mentioned.insert(concept_node) {
            graph.create_edge::<&str>(report_node, concept_node, "MENTIONS", vec![]);
        }
        if m.etype.is_event() {
            let event_node = graph.create_node(
                ["Event"],
                vec![
                    ("reportId", Value::String(meta.report_id.clone())),
                    ("cui", Value::String(cui.to_string())),
                    ("label", Value::String(m.text.clone())),
                    ("entityType", Value::String(m.etype.label().to_string())),
                    (
                        "step",
                        m.time_step
                            .map(|s| Value::Number(s as f64))
                            .unwrap_or(Value::Null),
                    ),
                ],
            );
            graph.create_edge::<&str>(report_node, event_node, "CONTAINS", vec![]);
            graph.create_edge::<&str>(event_node, concept_node, "INSTANCE_OF", vec![]);
            event_nodes.push(event_node);
        }
    }
    // Temporal edges between event nodes.
    for (a, b, rel) in temporal_edges(annotations, &event_mentions(annotations)) {
        let (a, b) = (event_nodes[a as usize], event_nodes[b as usize]);
        graph.create_edge::<&str>(a, b, rel.label(), vec![]);
    }
    report_node
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_corpus::{CaseReport, CorpusConfig, Generator};
    use create_graphdb::exec::query;

    fn meta(report: &CaseReport) -> ReportMeta {
        ReportMeta {
            report_id: report.id.clone(),
            title: report.title.clone(),
            year: report.metadata.year,
            category: report.category.coarse_label().to_string(),
        }
    }

    fn sample() -> (PropertyGraph, Ontology, CaseReport) {
        let generator = Generator::new(CorpusConfig {
            num_reports: 1,
            seed: 8,
            ..Default::default()
        });
        let ontology = create_ontology::clinical_ontology();
        let report = generator.generate().remove(0);
        let mut graph = report_graph();
        let annotations = ExtractedAnnotations::from_gold(&report);
        add_report(&mut graph, &ontology, &meta(&report), &annotations);
        (graph, ontology, report)
    }

    /// Concept 1 at step 0; concept 2 at step 3; concept 3 at step 3
    /// and without a step; concept 4 only without a step.
    fn record() -> EventRecord {
        let c = ConceptId;
        EventRecord {
            year: 2020,
            concepts: [c(1), c(2), c(3), c(4)].into(),
            events: [
                (c(1), Some(0)),
                (c(2), Some(3)),
                (c(3), Some(3)),
                (c(3), None),
                (c(4), None),
            ]
            .into(),
            edges: 0,
        }
    }

    #[test]
    fn every_operator_compares_timeline_steps() {
        use TemporalOp::*;
        let r = record();
        let (a, b, c) = (ConceptId(1), ConceptId(2), ConceptId(3));
        assert!(r.realizes(a, b, Before) && !r.realizes(b, a, Before));
        assert!(r.realizes(b, a, After) && !r.realizes(a, b, After));
        assert!(r.realizes(b, c, Overlaps) && !r.realizes(a, b, Overlaps));
        assert!(!r.realizes(b, c, Before) && !r.realizes(b, c, After));
        // Three steps are 90 days, either way round.
        assert!(r.realizes(a, b, Within(90)) && r.realizes(b, a, Within(90)));
        assert!(!r.realizes(a, b, Within(89)));
        assert!(r.realizes(b, c, Within(0)) && !r.realizes(a, b, Within(0)));
    }

    #[test]
    fn a_concept_overlaps_itself_and_does_not_precede_itself() {
        use TemporalOp::*;
        let r = record();
        for c in [ConceptId(1), ConceptId(3)] {
            assert!(r.realizes(c, c, Overlaps) && r.realizes(c, c, Within(0)));
            assert!(!r.realizes(c, c, Before) && !r.realizes(c, c, After));
        }
    }

    #[test]
    fn events_without_a_step_never_match() {
        let r = record();
        let stepless = ConceptId(4);
        let ops = [
            TemporalOp::Before,
            TemporalOp::After,
            TemporalOp::Overlaps,
            TemporalOp::Within(u32::MAX),
        ];
        for other in (1..=4).map(ConceptId) {
            for op in ops {
                assert!(!r.realizes(stepless, other, op), "{op:?} {other}");
                assert!(!r.realizes(other, stepless, op), "{other} {op:?}");
            }
        }
        // A concept not in the record realizes nothing either.
        assert!(!r.realizes(ConceptId(9), ConceptId(1), TemporalOp::Within(u32::MAX)));
    }

    #[test]
    fn within_is_exact_at_its_extremes() {
        let c = ConceptId;
        // u32::MAX days are 143 165 576 steps and 15 days.
        let steps = 143_165_576;
        let record = |gap: u32| EventRecord {
            year: 2020,
            concepts: [c(1), c(2)].into(),
            events: [(c(1), Some(0)), (c(2), Some(gap))].into(),
            edges: 0,
        };
        let within =
            |gap: u32, days: u32| record(gap).realizes(c(1), c(2), TemporalOp::Within(days));
        assert!(within(steps, u32::MAX) && !within(steps + 1, u32::MAX));
        assert!(
            !within(u32::MAX, u32::MAX),
            "no overflow at the largest gap"
        );
        assert!(within(0, 0) && !within(1, 0) && !within(1, STEP_DAYS - 1));
        assert!(within(1, STEP_DAYS));
    }

    #[test]
    fn builds_expected_node_kinds() {
        let (graph, ..) = sample();
        assert_eq!(graph.nodes_with_label("Report").count(), 1);
        assert!(graph.nodes_with_label("Concept").next().is_some());
        assert!(graph.nodes_with_label("Event").next().is_some());
    }

    #[test]
    fn mentions_edges_are_deduplicated() {
        let (graph, _, report) = sample();
        let report_node = graph.nodes_with_label("Report").next().unwrap();
        let mentions: Vec<_> = graph
            .outgoing(report_node)
            .into_iter()
            .filter(|e| e.rel_type == "MENTIONS")
            .map(|e| e.target)
            .collect();
        let mut dedup = mentions.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(mentions.len(), dedup.len());
        // And they cover the distinct concepts of the report.
        let distinct: std::collections::HashSet<_> =
            report.entities.iter().filter_map(|e| e.concept).collect();
        assert_eq!(mentions.len(), distinct.len());
    }

    #[test]
    fn temporal_edges_exist_and_are_queryable_via_cypher() {
        let (graph, ..) = sample();
        let out = query(
            &graph,
            "MATCH (a:Event)-[:BEFORE]->(b:Event) RETURN COUNT(*)",
        )
        .unwrap();
        let count = match &out.rows[0][0] {
            create_graphdb::ResultValue::Value(v) => v.as_f64().unwrap(),
            _ => panic!(),
        };
        assert!(count > 0.0, "no BEFORE edges in the graph");
    }

    #[test]
    fn a_graph_without_the_cui_index_finds_concepts_by_scanning() {
        let (indexed, ontology, report) = sample();
        let annotations = ExtractedAnnotations::from_gold(&report);
        let cuis: Vec<ConceptId> = annotations
            .mentions
            .iter()
            .filter_map(|m| m.concept)
            .collect();
        let mut plain = PropertyGraph::new();
        assert_eq!(find_concept(&plain, cuis[0]), None);
        add_report(&mut plain, &ontology, &meta(&report), &annotations);
        assert_eq!(
            (plain.node_count(), plain.edge_count()),
            (indexed.node_count(), indexed.edge_count()),
            "concept nodes are shared without the index too"
        );
        for cui in cuis {
            let found = find_concept(&plain, cui);
            assert!(found.is_some(), "{cui} has its node");
            assert_eq!(found, find_concept(&indexed, cui), "{cui}");
        }
    }

    #[test]
    fn events_carry_steps() {
        let (graph, ..) = sample();
        for id in graph.nodes_with_label("Event") {
            let node = graph.node(id).unwrap();
            assert!(node.prop("step").is_some());
            assert!(node.prop("cui").is_some());
        }
    }

    #[test]
    fn concept_nodes_shared_across_reports() {
        let generator = Generator::new(CorpusConfig {
            num_reports: 10,
            seed: 9,
            ..Default::default()
        });
        let ontology = create_ontology::clinical_ontology();
        let mut graph = report_graph();
        let mut concepts = std::collections::HashSet::new();
        for report in generator.generate() {
            let ann = ExtractedAnnotations::from_gold(&report);
            concepts.extend(ann.mentions.iter().filter_map(|m| m.concept));
            add_report(&mut graph, &ontology, &meta(&report), &ann);
        }
        // Concept nodes are deduplicated: one per distinct concept.
        assert_eq!(graph.nodes_with_label("Concept").count(), concepts.len());
        for &cui in &concepts {
            let node = find_concept(&graph, cui).expect("every concept has its node");
            let found = graph.node(node).unwrap().prop("cui").unwrap();
            assert_eq!(found.as_str(), Some(&*cui.to_string()));
        }
        assert_eq!(graph.nodes_with_label("Report").count(), 10);
    }
}
