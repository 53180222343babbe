//! CREATe-IR vs the Solr baseline on a judged query workload, plus a raw
//! Cypher query against the property graph.
//!
//! ```bash
//! cargo run --release --example ir_search
//! ```

use create::core::eval::{ndcg_at_k, precision_at_k, reciprocal_rank, IrMetrics};
use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CorpusConfig, Generator, QuerySet};
use create::graphdb::exec::query;

fn main() {
    let generator = Generator::new(CorpusConfig {
        num_reports: 400,
        seed: 314,
        ..Default::default()
    });
    let reports = generator.generate();
    let system = Create::new(CreateConfig::default());
    for r in &reports {
        system.ingest_gold(r).expect("ingest");
    }
    let queries = QuerySet::generate(&reports, 7, 40);
    println!(
        "indexed {} reports; evaluating {} judged queries\n",
        reports.len(),
        queries.queries.len()
    );

    // Compare CREATe-IR (Neo4j-first) with the keyword-only Solr baseline.
    for (name, policy) in [
        ("CREATe-IR (neo4j-first)", MergePolicy::Neo4jFirst),
        ("Solr baseline (keyword)", MergePolicy::EsOnly),
    ] {
        let per_query: Vec<(f64, f64, f64)> = queries
            .queries
            .iter()
            .map(|q| {
                let ids: Vec<String> = system
                    .search_with_policy(&q.text, 10, policy)
                    .into_iter()
                    .map(|h| h.report_id)
                    .collect();
                (
                    precision_at_k(&ids, &q.judgments, 10),
                    reciprocal_rank(&ids, &q.judgments),
                    ndcg_at_k(&ids, &q.judgments, 10),
                )
            })
            .collect();
        let m = IrMetrics::aggregate(&per_query);
        println!(
            "{name:<26} P@10={:.4}  MRR={:.4}  nDCG@10={:.4}",
            m.p_at_10, m.mrr, m.ndcg_at_10
        );
    }

    // The graph store also answers Cypher directly (Section III-D:
    // "all nodes and edges are put into Neo4j via cypher query").
    println!("\nCypher: reports mentioning the concept 'fever':");
    // The graph is built on demand from the stored reports.
    let graph = system.graph().expect("stored reports read back");
    let output = query(
        &graph,
        "MATCH (r:Report)-[:MENTIONS]->(c:Concept {label: 'fever'}) RETURN r.reportId LIMIT 5",
    )
    .expect("cypher");
    for row in &output.rows {
        println!("  {:?}", row[0]);
    }

    println!("\nCypher: temporal chains fever → … (BEFORE edges):");
    let output = query(
        &graph,
        "MATCH (a:Event)-[:BEFORE]->(b:Event) WHERE a.label CONTAINS 'fever' \
         RETURN a.reportId, a.label, b.label LIMIT 5",
    )
    .expect("cypher");
    for row in &output.rows {
        println!("  {:?}", row);
    }
}
