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

/// The node of report `report_id`, from the `(Report, reportId)`
/// property index.
pub fn find_report(graph: &PropertyGraph, report_id: &str) -> Option<NodeId> {
    let value = Value::String(report_id.to_string());
    graph
        .nodes_with_prop("Report", "reportId", &value)
        .next_back()
}

/// The node of a concept, from the `(Concept, cui)` property index —
/// the spelling [`GraphBuilder`] writes.
pub fn find_concept(graph: &PropertyGraph, cui: ConceptId) -> Option<NodeId> {
    let value = Value::String(cui.to_string());
    graph.nodes_with_prop("Concept", "cui", &value).next_back()
}

/// Maintains the concept-node registry while reports are ingested.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    concept_nodes: FxHashMap<ConceptId, NodeId>,
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

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Number of registered concept nodes.
    pub fn concept_count(&self) -> usize {
        self.concept_nodes.len()
    }

    fn concept_node(
        &mut self,
        graph: &mut PropertyGraph,
        ontology: &Ontology,
        cui: ConceptId,
    ) -> NodeId {
        if let Some(&id) = self.concept_nodes.get(&cui) {
            return id;
        }
        let (label, etype) = ontology
            .get(cui)
            .map(|c| (c.preferred.clone(), c.semantic_type.label().to_string()))
            .unwrap_or_else(|| ("unknown".to_string(), "Other".to_string()));
        let id = graph.create_node(
            ["Concept"],
            vec![
                ("cui", Value::String(cui.to_string())),
                ("label", Value::String(label)),
                ("entityType", Value::String(etype)),
            ],
        );
        self.concept_nodes.insert(cui, id);
        id
    }

    /// Adds one report's annotations to the graph; returns the report node.
    pub fn add_report(
        &mut self,
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
            let concept_node = self.concept_node(graph, ontology, cui);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_corpus::{CaseReport, CorpusConfig, Generator};
    use create_graphdb::exec::run;

    fn sample() -> (PropertyGraph, Ontology, CaseReport) {
        let generator = Generator::new(CorpusConfig {
            num_reports: 1,
            seed: 8,
            ..Default::default()
        });
        let ontology = create_ontology::clinical_ontology();
        let report = generator.generate().remove(0);
        let mut graph = PropertyGraph::new();
        let mut builder = GraphBuilder::new();
        let annotations = ExtractedAnnotations::from_gold(&report);
        builder.add_report(
            &mut graph,
            &ontology,
            &ReportMeta {
                report_id: report.id.clone(),
                title: report.title.clone(),
                year: report.metadata.year,
                category: report.category.coarse_label().to_string(),
            },
            &annotations,
        );
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
            .filter(|e| &*e.rel_type == "MENTIONS")
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
        let (mut graph, ..) = sample();
        let out = run(
            &mut graph,
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
    fn events_carry_steps() {
        let (graph, ..) = sample();
        for id in graph.nodes_with_label("Event") {
            let node = graph.node(id).unwrap();
            assert!(node.props.contains_key("step"));
            assert!(node.props.contains_key("cui"));
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
        let mut graph = PropertyGraph::new();
        let mut builder = GraphBuilder::new();
        for report in generator.generate() {
            let ann = ExtractedAnnotations::from_gold(&report);
            builder.add_report(
                &mut graph,
                &ontology,
                &ReportMeta {
                    report_id: report.id.clone(),
                    title: report.title.clone(),
                    year: report.metadata.year,
                    category: report.category.coarse_label().to_string(),
                },
                &ann,
            );
        }
        // Concept nodes are deduplicated: fewer than one per mention.
        assert_eq!(
            graph.nodes_with_label("Concept").count(),
            builder.concept_count()
        );
        assert_eq!(graph.nodes_with_label("Report").count(), 10);
    }
}
