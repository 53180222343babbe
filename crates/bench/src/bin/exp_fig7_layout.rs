//! Experiment E7 — Figure 7: force-directed visualization.
//!
//! Runs the full pipeline on the paper's query ("A patient was admitted to
//! the hospital because of fever and cough"), takes the best-matching
//! report, renders its event graph as SVG, and reports the layout
//! diagnostics: energy trajectory (must decrease), displacement cooling,
//! and minimum node separation (no overlap at convergence).

use create_bench::{loaded_create, Table};
use create_util::Rng;
use create_viz::{ForceLayout, LayoutConfig};

fn main() {
    let (system, _) = loaded_create(500, 777);
    let query = "A patient was admitted to the hospital because of fever and cough.";
    let hits = system.search(query, 3);
    println!("query: {query}");
    assert!(!hits.is_empty(), "query must match something");
    let top = &hits[0];
    println!(
        "top match: {} (source {:?}, pattern matched: {})",
        top.report_id, top.source, top.pattern_matched
    );
    let svg = system
        .visualize(&top.report_id)
        .expect("the stored extraction reads back")
        .expect("top hit has an event graph");
    let path = std::env::temp_dir().join("create_fig7.svg");
    std::fs::write(&path, &svg).expect("write svg");
    println!(
        "rendered Fig-7 style SVG ({} bytes, {} nodes) → {}",
        svg.len(),
        svg.matches("<circle").count(),
        path.display()
    );

    // Layout convergence diagnostics over random graphs of growing size.
    let mut table = Table::new(&[
        "nodes",
        "edges",
        "energy start",
        "energy end",
        "disp first10",
        "disp last10",
        "min node dist",
    ]);
    let mut rng = Rng::seed_from_u64(7);
    for &n in &[8usize, 16, 32, 64] {
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.below(i), i)); // random tree
        }
        for _ in 0..n / 2 {
            let a = rng.below(n);
            let b = rng.below(n);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let num_edges = edges.len();
        // Frame area scales with node count, as the real UI's canvas does
        // when zooming to fit.
        let side = 300.0 * (n as f64).sqrt();
        let config = LayoutConfig {
            width: side,
            height: side * 0.75,
            ..Default::default()
        };
        let mut layout = ForceLayout::new(n, edges, config);
        let e0 = layout.energy();
        let trace = layout.run();
        let e1 = layout.energy();
        table.row(vec![
            n.to_string(),
            num_edges.to_string(),
            format!("{e0:.0}"),
            format!("{e1:.0}"),
            format!("{:.1}", trace[..10].iter().sum::<f64>()),
            format!("{:.1}", trace[trace.len() - 10..].iter().sum::<f64>()),
            format!("{:.1}", layout.min_pair_distance()),
        ]);
    }
    table.print("E7 — force-directed layout convergence");
    println!("paper shape: energy decreases, displacement cools, nodes stay separated");
}
