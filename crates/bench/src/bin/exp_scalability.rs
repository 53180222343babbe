//! E10 extension — system scalability sweep.
//!
//! The demo paper hosts ~10k curated reports; this sweep measures how the
//! reproduction's ingest throughput, store sizes, and query latency
//! distribution behave as the corpus grows, using the full CREATe-IR path
//! (gold ingest → event records + index + docstore → Neo4j-first search).

use create_bench::{loaded_create, Table};
use create_corpus::QuerySet;
use create_util::{stats::Histogram, Summary};
use std::time::Instant;

fn main() {
    let sizes = [500usize, 1_000, 2_000, 4_000];
    let mut table = Table::new(&[
        "reports",
        "ingest s",
        "reports/s",
        "graph nodes",
        "graph edges",
        "graph B/report",
        "index terms",
        "q mean ms",
        "q p50 ms",
        "q p95 ms",
        "q p99 ms",
    ]);

    for &n in &sizes {
        eprintln!("[{n} reports]…");
        let start = Instant::now();
        let (system, reports) = loaded_create(n, 314159);
        let ingest_s = start.elapsed().as_secs_f64();
        let stats = system.stats();
        let graph_bytes = system.memory_stats().graph_bytes;

        let queries = QuerySet::generate(&reports, 2718, 60);
        let mut latencies_ms = Vec::with_capacity(queries.queries.len());
        for q in &queries.queries {
            let t = Instant::now();
            let hits = system.search(&q.text, 10);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(hits);
        }
        let summary = Summary::of(&latencies_ms);
        table.row(vec![
            n.to_string(),
            format!("{ingest_s:.1}"),
            format!("{:.0}", n as f64 / ingest_s),
            stats.graph_nodes.to_string(),
            stats.graph_edges.to_string(),
            format!("{:.0}", graph_bytes as f64 / n as f64),
            stats.index_terms.to_string(),
            format!("{:.2}", summary.mean),
            format!("{:.2}", summary.p50),
            format!("{:.2}", summary.p95),
            format!("{:.2}", summary.p99),
        ]);

        // Latency histogram at the largest size.
        if n == *sizes.last().expect("non-empty") {
            let hi = (summary.p99 * 1.5).max(1.0);
            let mut hist = Histogram::new(0.0, hi, 12);
            for &l in &latencies_ms {
                hist.record(l);
            }
            println!("\nquery latency histogram at {n} reports (ms buckets):");
            println!("{}", hist.render(40));
        }
    }
    table.print("E10 extension — scalability sweep (gold ingest, Neo4j-first search)");
    println!(
        "expected shape: near-linear ingest, sub-linear query latency growth; \
         graph counts and bytes from the per-report event records"
    );
}
