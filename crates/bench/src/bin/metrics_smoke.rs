//! Observability smoke check: ingest a small corpus (gold and raw text),
//! run a few facade searches and one Cypher read, then assert the obs
//! registry saw every layer (every pipeline and query stage, snapshot
//! publishes, DAAT executor, query cache, graph executor) and print the
//! Prometheus exposition to stdout for `scripts/verify.sh` to grep.
//!
//! ```bash
//! cargo run --release -p create-bench --bin metrics_smoke
//! ```

use create_core::{Create, CreateConfig, TextSubmission};
use create_corpus::QuerySet;
use create_ner::{LabelSet, NerDataset};
use create_obs::names;

fn main() {
    assert!(
        create_obs::enabled(),
        "metrics_smoke must run with the obs feature (default features)"
    );
    let reports = create_bench::corpus(60, 99);
    let system = Create::new(CreateConfig::default());
    system.ingest_gold_batch(&reports, 0).expect("ingest");
    // Gold ingest bypasses the text stages (its annotations are already
    // curated), so a raw-text batch goes through section split, CRF NER
    // and temporal RE as well.
    let dataset = NerDataset::from_reports(&reports, LabelSet::ner_targets());
    system.attach_tagger(create_bench::train_tagger(
        &dataset,
        Some(system.ontology()),
        None,
        2,
    ));
    let submissions: Vec<TextSubmission> = reports[..10]
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
        .expect("text batch ingest");

    let queries = QuerySet::generate(&reports, 7, 12).queries;
    for q in &queries {
        let _ = system.search(&q.text, 10);
    }
    // Repeat one query so the cache-hit counter moves too.
    if let Some(q) = queries.first() {
        let _ = system.search(&q.text, 10);
    }
    // One cohort query exercising every plan stage: filter pushdown,
    // temporal constraints, keyword ranking, facet counting, merge.
    let criteria = create_docstore::json::parse_json(
        r#"{
            "filters": [{"field": "sex", "values": ["female", "male"]}],
            "keywords": "fatigue and weight loss",
            "temporal": [{"a": "weight loss", "op": "within", "days": 365, "b": "fatigue"}],
            "facets": ["category", "year"],
            "k": 10
        }"#,
    )
    .expect("criteria json");
    let cohort = system.cohort_from_json(&criteria).expect("cohort query");
    // Searches read event records; only Cypher walks the graph, which
    // `Create::graph` builds on demand.
    let graph = system.graph().expect("stored reports read back");
    create_graphdb::exec::query(
        &graph,
        "MATCH (r:Report)-[:CONTAINS]->(e:Event)-[:BEFORE]->(f:Event) RETURN COUNT(*)",
    )
    .expect("cypher read");

    let registry = create_obs::Registry::global();
    for (counter, why) in [
        (names::DAAT_POSTINGS_ADVANCED_TOTAL, "keyword searches ran"),
        (
            names::QUERY_CACHE_MISSES_TOTAL,
            "cold queries missed the cache",
        ),
        (
            names::QUERY_CACHE_HITS_TOTAL,
            "the repeated query hit the cache",
        ),
        (
            names::GRAPH_EXEC_NODES_VISITED_TOTAL,
            "the Cypher read walked the graph's nodes",
        ),
        (names::PLAN_NODES_TOTAL, "every query lowers to a plan"),
        (
            names::BITMAP_INTERSECTIONS_TOTAL,
            "the cohort filter intersected bitmaps",
        ),
    ] {
        assert!(
            registry.counter(counter).get() > 0,
            "{counter} should be nonzero: {why}"
        );
    }
    for stage in names::PIPELINE_STAGES {
        let h = registry.histogram_with(names::PIPELINE_STAGE_SECONDS, &[("stage", stage)]);
        assert!(h.count() > 0, "pipeline stage {stage} should have samples");
    }
    for stage in names::QUERY_STAGES {
        let h = registry.histogram_with(names::QUERY_STAGE_SECONDS, &[("stage", stage)]);
        assert!(h.count() > 0, "query stage {stage} should have samples");
    }
    let publishes = registry.histogram(names::SNAPSHOT_PUBLISH_SECONDS);
    assert!(publishes.count() > 0, "every write publishes a snapshot");
    let total = registry.histogram(names::QUERY_SECONDS);
    assert_eq!(
        total.count(),
        (queries.len() + 1) as u64,
        "every facade search lands in {}",
        names::QUERY_SECONDS
    );

    // The resident-bytes gauges refresh when the stats are read (the
    // server does so per `/metrics` scrape).
    for (component, bytes) in system.memory_stats().components() {
        assert!(bytes > 0, "{component} should hold resident bytes");
    }

    eprintln!(
        "metrics_smoke: {} searches + 1 cohort query ({} matched) over {} gold + {} text reports, all layers recorded",
        queries.len() + 1,
        cohort.total_matched,
        reports.len(),
        submissions.len()
    );
    print!("{}", create_obs::render_prometheus());
}
