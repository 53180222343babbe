//! Experiment E8 — the customized N-gram analyzer (Section III-D:
//! "considering that some of the symptoms or medications may have longer
//! names, we select N-gram tokenizer and customize it with min_gram=3 and
//! max_gram=25").
//!
//! Measures what the configuration buys: recall of partial/truncated
//! medication-name queries under the standard analyzer vs the n-gram
//! analyzer, against the index-size and query-latency cost, across n-gram
//! bounds.

use create_bench::{corpus, f4, Table};
use create_index::{FieldConfig, Index, Query, Scorer};
use create_text::filter::{AsciiFoldingFilter, LowercaseFilter};
use create_text::{Analyzer, NGramTokenizer};
use create_util::Rng;
use std::sync::Arc;
use std::time::Instant;

fn ngram_analyzer(min: usize, max: usize) -> Analyzer {
    Analyzer::builder(format!("ngram_{min}_{max}"))
        .tokenizer(NGramTokenizer::new(min, max))
        .filter(AsciiFoldingFilter)
        .filter(LowercaseFilter)
        .build()
}

fn main() {
    let reports = corpus(2_000, 4242);
    // Collect long medication / disease surfaces that actually occur.
    let mut rng = Rng::seed_from_u64(1);
    let mut long_terms: Vec<(String, String)> = Vec::new(); // (term, report id)
    for r in &reports {
        for e in &r.entities {
            if matches!(
                e.etype,
                create_ontology::EntityType::Medication
                    | create_ontology::EntityType::DiseaseDisorder
            ) && e.text.len() >= 9
                && e.text
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '-' || c == ' ')
            {
                long_terms.push((e.text.to_lowercase(), r.id.clone()));
            }
        }
    }
    long_terms.sort();
    long_terms.dedup();
    rng.shuffle(&mut long_terms);
    long_terms.truncate(150);
    println!(
        "{} reports, {} long-term query probes (e.g. {:?})",
        reports.len(),
        long_terms.len(),
        &long_terms[..3.min(long_terms.len())]
            .iter()
            .map(|(t, _)| t.as_str())
            .collect::<Vec<_>>()
    );

    let configs: Vec<(String, Option<(usize, usize)>)> = vec![
        ("standard (stemmed)".to_string(), None),
        ("ngram(2,10)".to_string(), Some((2, 10))),
        ("ngram(3,25) [paper]".to_string(), Some((3, 25))),
        ("ngram(4,25)".to_string(), Some((4, 25))),
        ("ngram(5,8)".to_string(), Some((5, 8))),
    ];

    let mut table = Table::new(&[
        "analyzer",
        "index MB",
        "build s",
        "full recall",
        "prefix recall",
        "infix recall",
        "mean query µs",
    ]);

    for (name, grams) in configs {
        let analyzer: Arc<Analyzer> = match grams {
            None => Arc::new(Analyzer::clinical_standard()),
            Some((lo, hi)) => Arc::new(ngram_analyzer(lo, hi)),
        };
        let mut index = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::clone(&analyzer),
            boost: 1.0,
        }]);
        let build_start = Instant::now();
        for r in &reports {
            index
                .add_document(&r.id, &[("body", &r.text)])
                .expect("index");
        }
        let build_s = build_start.elapsed().as_secs_f64();

        // Probe sets: full term, prefix (first 6 chars), infix (middle 6).
        let probe = |probe_text: &str, want_id: &str, micros: &mut Vec<f64>| -> bool {
            let q = Query::query_string(&index, "body", probe_text);
            let t = Instant::now();
            let hits = index.search(&q, 10, Scorer::default());
            micros.push(t.elapsed().as_secs_f64() * 1e6);
            hits.iter().any(|h| h.external_id == want_id)
        };
        let mut micros = Vec::new();
        let mut full = 0usize;
        let mut prefix = 0usize;
        let mut infix = 0usize;
        for (term, id) in &long_terms {
            let chars: Vec<char> = term.chars().collect();
            full += usize::from(probe(term, id, &mut micros));
            let p: String = chars[..6.min(chars.len())].iter().collect();
            prefix += usize::from(probe(&p, id, &mut micros));
            let mid = chars.len() / 2;
            let lo = mid.saturating_sub(3);
            let hi = (mid + 3).min(chars.len());
            let infix_probe: String = chars[lo..hi].iter().collect();
            infix += usize::from(probe(&infix_probe, id, &mut micros));
        }
        let n = long_terms.len() as f64;
        table.row(vec![
            name,
            format!("{:.1}", index.postings_bytes() as f64 / 1e6),
            format!("{build_s:.1}"),
            f4(full as f64 / n),
            f4(prefix as f64 / n),
            f4(infix as f64 / n),
            format!("{:.0}", micros.iter().sum::<f64>() / micros.len() as f64),
        ]);
    }
    table.print("E8 — analyzer configurations: recall vs cost");
    println!(
        "paper shape: ngram(3,25) recovers prefix/infix matches the standard analyzer misses, \
         at a multi-x index-size cost"
    );
}
