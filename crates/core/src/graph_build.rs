//! Projecting reports into the property graph.
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

use crate::pipeline::ExtractedAnnotations;
use create_docstore::Value;
use create_graphdb::{NodeId, PropertyGraph};
use create_ontology::{ConceptId, Ontology, RelationType};
use create_util::fxhash::{FxHashMap, FxHashSet};

/// An empty report graph: the one `(label, key)` pair it indexes by
/// value is `(Concept, cui)`, which [`add_report`] reads to share a
/// concept's node between reports and the graph search seeds from.
/// Every other property is found by scanning its label.
pub fn report_graph() -> PropertyGraph {
    PropertyGraph::with_indexes(&[("Concept", "cui")])
}

/// The `Report` node of shard-local doc `doc`. A shard's reports enter
/// its graph in apply order, which is doc-id order (see
/// `Writer::apply`), and nothing else creates a `Report` node there, so
/// the `doc`-th one is the doc's.
pub fn report_node(graph: &PropertyGraph, doc: u32) -> Option<NodeId> {
    graph.label_node("Report", doc as usize)
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
/// report node.
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
    // Event nodes per mention with a concept + step.
    let mut event_nodes: FxHashMap<usize, NodeId> = FxHashMap::default();
    // MENTIONS edge once per (report, concept). The report node is
    // brand new, so a local set of linked concepts is equivalent to
    // scanning its outgoing edges — without rebuilding the adjacency
    // Vec on every mention.
    let mut mentioned: FxHashSet<NodeId> = FxHashSet::default();
    for (mi, m) in annotations.mentions.iter().enumerate() {
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
            event_nodes.insert(mi, event_node);
        }
    }
    // Temporal edges between event nodes.
    for &(src, dst, rel) in &annotations.relations {
        let (Some(&a), Some(&b)) = (event_nodes.get(&src), event_nodes.get(&dst)) else {
            continue;
        };
        match rel {
            RelationType::Before => {
                graph.create_edge::<&str>(a, b, "BEFORE", vec![]);
            }
            RelationType::After => {
                graph.create_edge::<&str>(b, a, "BEFORE", vec![]);
            }
            RelationType::Overlap => {
                graph.create_edge::<&str>(a, b, "OVERLAP", vec![]);
            }
            _ => {}
        }
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
