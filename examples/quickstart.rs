//! Quickstart: build a small CREATe instance, run the paper's example
//! query, and inspect the results.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use create::core::{Create, CreateConfig};
use create::corpus::{CorpusConfig, Generator};

fn main() {
    // 1) Generate a small synthetic case-report corpus (the substitute for
    //    the paper's PubMed CVD crawl — see DESIGN.md S1).
    let generator = Generator::new(CorpusConfig {
        num_reports: 200,
        seed: 2020,
        ..Default::default()
    });
    let reports = generator.generate();
    println!("generated {} case reports", reports.len());
    println!("example narrative:\n  {}\n", reports[0].text);

    // 2) Ingest into the platform: document store + property graph +
    //    inverted index.
    let system = Create::new(CreateConfig::default());
    for report in &reports {
        system.ingest_gold(report).expect("ingest");
    }
    let stats = system.stats();
    println!(
        "ingested: {} reports | {} graph nodes | {} graph edges | {} index terms\n",
        stats.reports, stats.graph_nodes, stats.graph_edges, stats.index_terms
    );

    // 3) The paper's worked query (Section III-C).
    let query = "A patient was admitted to the hospital because of fever and cough.";
    let parsed = system.parse_query(query);
    println!("query: {query}");
    println!("extracted mentions:");
    for m in &parsed.mentions {
        println!(
            "  {:<24} {:<24} {}",
            m.text,
            m.etype.label(),
            m.concept.map(|c| c.to_string()).unwrap_or_default()
        );
    }
    if let Some((c1, c2, rel)) = parsed.pattern {
        println!("temporal pattern: {c1} {rel} {c2}");
    }

    // 4) CREATe-IR search (Neo4j-first merge).
    println!("\ntop results:");
    for hit in system.search(query, 5) {
        let title = system
            .report(&hit.report_id)
            .unwrap()
            .and_then(|d| d.get("title").and_then(|t| t.as_str().map(String::from)))
            .unwrap_or_default();
        println!(
            "  [{:<7}] {:<14} score={:<8.3} pattern={} {}",
            match hit.source {
                create::core::SearchSource::Graph => "graph",
                create::core::SearchSource::Keyword => "keyword",
            },
            hit.report_id,
            hit.score,
            hit.pattern_matched,
            title
        );
    }
}
