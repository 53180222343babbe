//! The property graph is a view: the graph search leg, the temporal
//! operators and `/graph.svg` read each report's event record and its
//! stored extraction, and `Snapshot::shard_graph` builds the graph only
//! when Cypher asks for it.
//!
//! Each reader is checked against the walk of the built graph it
//! replaced (the oracles of `support`), over gold-annotated and
//! raw-text-extracted reports at one and two shards: every query of the
//! E10 query set under every merge policy, every document against
//! generated constraints of every temporal operator, and every report's
//! SVG, byte for byte. `/stats`' graph node and edge counts, taken from
//! the event records, equal the built graphs' counts. And "before" means
//! one thing: a graph hit realizes its query's pattern exactly when
//! `/cohort`'s operator for the same pair holds for the report.

mod support;

use create::core::graph_build::add_report;
use create::core::plan::{lower_search, PlanNode, TemporalConstraint, TemporalOp};
use create::core::{
    search, CohortCriteria, Create, CreateConfig, ExtractedAnnotations, MergePolicy, SearchHit,
    TextSubmission,
};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};
use create::graphdb::PropertyGraph;
use create::ontology::{ConceptId, RelationType};
use create::util::Rng;
use std::collections::BTreeSet;

/// Gold-ingested reports per fixture.
const GOLD: usize = 100;
/// Of those, how many are also submitted as raw text and extracted.
const TEXT: usize = 30;
/// The seed and size of E10's query set (`exp_scalability`).
const E10_QUERY_SEED: u64 = 2718;
const E10_QUERIES: usize = 60;

const POLICIES: [MergePolicy; 5] = [
    MergePolicy::Neo4jFirst,
    MergePolicy::EsFirst,
    MergePolicy::EsOnly,
    MergePolicy::GraphOnly,
    MergePolicy::Interleave,
];

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

/// A tagger just good enough for raw-text extraction to find events.
fn tiny_tagger(system: &Create, reports: &[CaseReport]) -> create::ner::CrfTagger {
    create::ner::CrfTagger::train(
        &create::ner::NerDataset::from_reports(reports, create::ner::LabelSet::ner_targets()),
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

/// A system of `shards` shards holding `reports` gold-ingested, then the
/// first [`TEXT`] of them again as raw text (`text:` ids) extracted by a
/// tagger. Returns it with every report id in ingest order.
fn fixture(reports: &[CaseReport], shards: usize) -> (Create, Vec<String>) {
    let system = Create::new(CreateConfig { shards });
    system.ingest_gold_batch(reports, 0).expect("gold ingest");
    system.attach_tagger(tiny_tagger(&system, &reports[..15]));
    let submissions: Vec<TextSubmission> = reports[..TEXT]
        .iter()
        .map(|r| TextSubmission {
            id: format!("text:{}", r.id),
            title: r.title.clone(),
            text: r.text.clone(),
            year: r.metadata.year,
        })
        .collect();
    system
        .ingest_text_batch(&submissions, 0)
        .expect("text ingest");
    let ids = reports.iter().map(|r| r.id.clone());
    let ids = ids.chain(submissions.into_iter().map(|s| s.id)).collect();
    (system, ids)
}

/// Every shard's graph, built on demand.
fn shard_graphs(system: &Create) -> Vec<PropertyGraph> {
    let snapshot = system.snapshot();
    (0..snapshot.shard_count())
        .map(|shard| {
            snapshot
                .shard_graph(shard)
                .expect("stored reports read back")
        })
        .collect()
}

/// A ranking as comparable bits.
fn bits(hits: &[SearchHit]) -> Vec<(String, u64, bool, bool)> {
    hits.iter()
        .map(|h| {
            let graph = h.source == create::core::SearchSource::Graph;
            (
                h.report_id.clone(),
                h.score.to_bits(),
                graph,
                h.pattern_matched,
            )
        })
        .collect()
}

#[test]
fn the_graph_leg_ranks_as_the_graph_walk_for_every_query_and_policy() {
    let reports = corpus(GOLD, 20261017);
    let queries = QuerySet::generate(&reports, E10_QUERY_SEED, E10_QUERIES).queries;
    for shards in [1, 2] {
        let (system, ids) = fixture(&reports, shards);
        let graphs = shard_graphs(&system);
        let (mut graph_hits, mut patterned) = (0, 0);
        for query in &queries {
            let q = query.text.as_str();
            let parsed = system.parse_query(q);
            for k in [10, ids.len()] {
                let plan = lower_search(q, &parsed, k, MergePolicy::GraphOnly).optimize();
                let Some(PlanNode::GraphMatch { concepts, pattern }) = plan.nodes.first() else {
                    panic!("a graph-only plan leads with its graph leg: {plan:?}");
                };
                let walked = support::scatter_graph_search(&graphs, concepts, *pattern, k);
                graph_hits += walked.len();
                patterned += walked.iter().filter(|h| h.pattern_matched).count();
                let keyword = system.search_with_policy(q, k, MergePolicy::EsOnly);
                for policy in POLICIES {
                    let expected = search::merge(walked.clone(), keyword.clone(), policy, k);
                    assert_eq!(
                        bits(&system.search_with_policy(q, k, policy)),
                        bits(&expected),
                        "{q:?} at k={k}, {policy:?}, {shards} shards"
                    );
                }
            }
        }
        assert!(
            graph_hits > 0 && patterned > 0,
            "{graph_hits} / {patterned}"
        );
    }
}

/// The `/cohort` operator a query pattern's relation asks for.
fn pattern_op(rel: RelationType) -> TemporalOp {
    match rel {
        RelationType::Before => TemporalOp::Before,
        RelationType::After => TemporalOp::After,
        RelationType::Overlap => TemporalOp::Overlaps,
        other => panic!("a query pattern is temporal: {other:?}"),
    }
}

#[test]
fn a_graph_hit_matches_its_pattern_exactly_when_the_cohort_operator_holds() {
    let reports = corpus(GOLD, 20261017);
    let queries = QuerySet::generate(&reports, E10_QUERY_SEED, E10_QUERIES).queries;
    for shards in [1, 2] {
        let (system, ids) = fixture(&reports, shards);
        let (mut patterns, mut matched, mut unmatched) = (0, 0, 0);
        for query in &queries {
            let q = query.text.as_str();
            let Some((c1, c2, rel)) = system.parse_query(q).pattern else {
                continue;
            };
            patterns += 1;
            let cohort = system.cohort(&CohortCriteria {
                filters: Vec::new(),
                keywords: None,
                temporal: vec![TemporalConstraint {
                    a_text: c1.to_string(),
                    a: c1,
                    b_text: c2.to_string(),
                    b: c2,
                    op: pattern_op(rel),
                }],
                facet_counts: Vec::new(),
                k: ids.len(),
            });
            let held: BTreeSet<&String> = cohort.hits.iter().map(|h| &h.report_id).collect();
            for hit in system.search_with_policy(q, ids.len(), MergePolicy::GraphOnly) {
                assert_eq!(
                    hit.pattern_matched,
                    held.contains(&hit.report_id),
                    "{q:?}: {} at {shards} shards",
                    hit.report_id
                );
                matched += usize::from(hit.pattern_matched);
                unmatched += usize::from(!hit.pattern_matched);
            }
        }
        assert!(
            patterns > 0 && matched > 0 && unmatched > 0,
            "{patterns} / {matched} / {unmatched}"
        );
    }
}

/// Constraint concept pairs: the endpoints of gold temporal relations
/// between events, and random pairs of event concepts.
fn concept_pairs(reports: &[CaseReport]) -> Vec<(ConceptId, ConceptId)> {
    let mut related = BTreeSet::new();
    let mut events = BTreeSet::new();
    for report in reports.iter().take(20) {
        let annotations = ExtractedAnnotations::from_gold(report);
        let event = |i: usize| {
            let m = &annotations.mentions[i];
            m.concept.filter(|_| m.etype.is_event())
        };
        events.extend((0..annotations.mentions.len()).filter_map(event));
        for &(src, dst, _) in annotations.relations.iter().take(2) {
            if let (Some(a), Some(b)) = (event(src), event(dst)) {
                related.insert((a, b));
            }
        }
    }
    let events: Vec<ConceptId> = events.into_iter().collect();
    let mut rng = Rng::seed_from_u64(20261018);
    let mut pairs: Vec<_> = related.into_iter().take(12).collect();
    pairs.extend((0..6).map(|_| (*rng.choose(&events), *rng.choose(&events))));
    pairs
}

#[test]
fn the_temporal_operators_hold_where_the_graph_walk_says_on_every_document() {
    let reports = corpus(GOLD, 20261019);
    let pairs = concept_pairs(&reports);
    let ops = [
        TemporalOp::Before,
        TemporalOp::After,
        TemporalOp::Overlaps,
        TemporalOp::Within(0),
        TemporalOp::Within(30),
        TemporalOp::Within(365),
    ];
    let constraints: Vec<TemporalConstraint> = pairs
        .iter()
        .flat_map(|&(a, b)| {
            ops.map(|op| TemporalConstraint {
                a_text: a.to_string(),
                a,
                b_text: b.to_string(),
                b,
                op,
            })
        })
        .collect();
    // One constraint at a time, and consecutive pairs of them.
    let sets: Vec<Vec<&TemporalConstraint>> = (constraints.iter().map(|c| vec![c]))
        .chain(constraints.windows(2).map(|w| w.iter().collect()))
        .collect();
    for shards in [1, 2] {
        let (system, ids) = fixture(&reports, shards);
        let graphs = shard_graphs(&system);
        let (mut some, mut not_all) = (0, 0);
        for set in &sets {
            let mut held = BTreeSet::new();
            for graph in &graphs {
                for id in support::report_ids(graph) {
                    let node = support::report_node(graph, &id).expect("a listed report");
                    if support::satisfies_all(graph, node, set) {
                        held.insert(id);
                    }
                }
            }
            let expected: Vec<&String> = ids.iter().filter(|id| held.contains(*id)).collect();
            let result = system.cohort(&CohortCriteria {
                filters: Vec::new(),
                keywords: None,
                temporal: set.iter().map(|c| (*c).clone()).collect(),
                facet_counts: Vec::new(),
                k: ids.len(),
            });
            let got: Vec<&String> = result.hits.iter().map(|h| &h.report_id).collect();
            assert_eq!(got, expected, "{set:?} at {shards} shards");
            assert_eq!(result.total_matched, expected.len() as u64);
            some += usize::from(!expected.is_empty());
            not_all += usize::from(expected.len() < ids.len());
        }
        assert!(
            some > sets.len() / 4 && not_all == sets.len(),
            "{some} / {not_all}"
        );
    }
}

#[test]
fn every_report_renders_the_svg_of_the_graph_walk() {
    let reports = corpus(GOLD, 20261020);
    for shards in [1, 2] {
        let (system, ids) = fixture(&reports, shards);
        let graphs = shard_graphs(&system);
        let mut rendered = 0;
        for id in &ids {
            let (graph, node) = graphs
                .iter()
                .find_map(|g| Some((g, support::report_node(g, id)?)))
                .expect("every report has its node");
            let expected = support::visualize(graph, node);
            assert_eq!(
                system.visualize(id).expect("reads back"),
                expected,
                "{id} at {shards} shards"
            );
            rendered += usize::from(expected.is_some());
        }
        assert!(rendered > ids.len() / 2, "{rendered} of {}", ids.len());
        assert_eq!(system.visualize("no-such-report").expect("no read"), None);
    }
}

#[test]
fn graph_counts_are_the_built_graphs_counts() {
    let reports = corpus(GOLD, 20261021);
    for shards in [1, 2] {
        let (system, _) = fixture(&reports, shards);
        let graphs = shard_graphs(&system);
        let stats = system.stats();
        let nodes: usize = graphs.iter().map(PropertyGraph::node_count).sum();
        let edges: usize = graphs.iter().map(PropertyGraph::edge_count).sum();
        assert_eq!(
            (stats.graph_nodes, stats.graph_edges),
            (nodes, edges),
            "{shards} shards"
        );
    }
}

#[test]
fn the_cypher_graph_holds_every_shard_and_is_the_same_at_one_and_two() {
    let reports = corpus(GOLD, 20261019);
    let graphs: Vec<PropertyGraph> = [1, 2]
        .into_iter()
        .map(|shards| {
            fixture(&reports, shards)
                .0
                .graph()
                .expect("stored reports read back")
        })
        .collect();
    let (one, two) = (&graphs[0], &graphs[1]);
    assert_eq!(
        (one.node_count(), one.edge_count()),
        (two.node_count(), two.edge_count())
    );
    for query in [
        "MATCH (r:Report) RETURN r.reportId, r.year, r.category ORDER BY r.year DESC",
        "MATCH (c:Concept) RETURN c.cui, c.label, c.entityType ORDER BY c.cui",
        "MATCH (r:Report)-[:MENTIONS]->(c:Concept) RETURN r.reportId, c.cui ORDER BY c.label",
        "MATCH (e:Event)-[:INSTANCE_OF]->(c:Concept) RETURN e.reportId, e.label, e.step, c.cui ORDER BY e.step",
        "MATCH (a:Event)-[t]->(b:Event) RETURN a.reportId, a.label, t.type, b.label ORDER BY b.label DESC",
    ] {
        let rows = create::graphdb::exec::query(one, query).expect("cypher");
        assert!(rows.rows.len() >= GOLD, "{query}: {} rows", rows.rows.len());
        assert_eq!(rows, create::graphdb::exec::query(two, query).expect("cypher"), "{query}");
    }
}

#[test]
fn e10_graph_counts_at_500_reports_are_pinned() {
    // E10's first row: `loaded_create(500, 314159)`, gold ingest on one
    // shard.
    let reports = corpus(500, 314159);
    let system = Create::new(CreateConfig { shards: 1 });
    for report in &reports {
        system.ingest_gold(report).expect("gold ingest");
    }
    let stats = system.stats();
    assert_eq!((stats.graph_nodes, stats.graph_edges), (5_264, 18_083));
    let graph = system.graph().expect("stored reports read back");
    assert_eq!((graph.node_count(), graph.edge_count()), (5_264, 18_083));
    // The graph built on demand is the one each write used to extend.
    let ontology = system.ontology();
    let mut extended = create::core::graph_build::report_graph();
    for report in &reports {
        let meta = create::core::graph_build::ReportMeta {
            report_id: report.id.clone(),
            title: report.title.clone(),
            year: report.metadata.year,
            category: report.category.coarse_label().to_string(),
        };
        add_report(
            &mut extended,
            &ontology,
            &meta,
            &ExtractedAnnotations::from_gold(report),
        );
    }
    let query = "MATCH (a:Event)-[:BEFORE]->(b:Event) RETURN a.reportId, a.label, b.label";
    assert_eq!(
        create::graphdb::exec::query(&graph, query).expect("cypher"),
        create::graphdb::exec::query(&extended, query).expect("cypher"),
    );
}
