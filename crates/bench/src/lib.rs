//! Shared harness for the experiment binaries (`src/bin/exp_*.rs`) and the
//! smoke checks `scripts/verify.sh` runs (`src/bin/*_smoke.rs`). Timing
//! lives in the repository's one benchmark, `benchmark/`.
//!
//! Each experiment in DESIGN.md's index (E1–E10) has a binary that prints
//! the paper-shaped table; this module centralizes corpus/system/tagger
//! construction and the aligned-table printer so the binaries stay focused
//! on their experiment logic.

use create_core::{Create, CreateConfig};
use create_corpus::{CaseReport, CorpusConfig, Generator};
use create_ner::{CrfTagger, CrfTaggerConfig, FlairFeatures, NerDataset};
use create_ontology::Ontology;
use std::sync::Arc;

/// Generates the standard experiment corpus.
pub fn corpus(num_reports: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports,
        seed,
        ..Default::default()
    })
    .generate()
}

/// Builds a platform pre-loaded with `n` gold reports, on one shard. The
/// experiments measure one corpus through single-index views of it
/// (`Create::index()` is shard 0's index; `Create::stats()` sums graph
/// nodes over shards that each hold their own copy of a concept node),
/// so the default of one shard per core would make their tables depend
/// on the host's core count. Sharding has its own equivalence suites.
pub fn loaded_create(num_reports: usize, seed: u64) -> (Create, Vec<CaseReport>) {
    let reports = corpus(num_reports, seed);
    let system = Create::new(CreateConfig { shards: 1 });
    for r in &reports {
        system.ingest_gold(r).expect("gold reports always ingest");
    }
    (system, reports)
}

/// Trains a CRF tagger over a dataset, optionally with the C-FLAIR
/// feature block.
pub fn train_tagger(
    dataset: &NerDataset,
    ontology: Option<Arc<Ontology>>,
    flair: Option<Arc<FlairFeatures>>,
    epochs: usize,
) -> CrfTagger {
    CrfTagger::train(
        dataset,
        CrfTaggerConfig {
            feature_bits: 18,
            train: create_ml::CrfTrainConfig {
                epochs,
                ..Default::default()
            },
            gazetteer_features: ontology.is_some(),
        },
        ontology,
        flair,
    )
}

/// An aligned text table for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
        self
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}", cell, width = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1).max(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        println!("{}", self.render());
    }
}

/// Formats an f64 with 4 decimals (the experiment tables' standard).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["system", "f1"]);
        t.row(vec!["baseline".into(), "0.81".into()]);
        t.row(vec!["ours".into(), "0.84".into()]);
        let r = t.render();
        assert!(r.contains("system"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn loaded_create_builds() {
        let (system, reports) = loaded_create(5, 1);
        assert_eq!(system.stats().reports, reports.len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.12345), "0.1235");
        assert_eq!(pct(0.2), "20.0%");
    }
}
