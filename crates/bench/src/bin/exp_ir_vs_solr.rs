//! Experiment E4 — CREATe-IR vs the Solr baseline (the paper's headline
//! retrieval claim: "CREATe-IR, a relation-based information retrieval
//! system …, which outperforms solr").
//!
//! 2 000 gold-annotated reports are indexed; 120 judged queries across the
//! four families (keyword / entity / relation / temporal) are evaluated
//! with P@10, MRR, and nDCG@10, overall and per family. The BM25 vs TF-IDF
//! ranking ablation is appended.

use create_bench::{corpus, f4, loaded_create, train_tagger, Table};
use create_core::eval::{ndcg_at_k, precision_at_k, reciprocal_rank, IrMetrics};
use create_core::MergePolicy;
use create_corpus::{QueryFamily, QuerySet};
use create_index::{Query, Scorer};
use std::time::Instant;

fn main() {
    let n_reports = 2_000;
    let n_queries = 120;
    eprintln!("building system with {n_reports} reports…");
    let start = Instant::now();
    let (system, reports) = loaded_create(n_reports, 271828);
    eprintln!(
        "ingest took {:.1}s ({:.1} reports/s)",
        start.elapsed().as_secs_f64(),
        n_reports as f64 / start.elapsed().as_secs_f64()
    );
    let queries = QuerySet::generate(&reports, 99, n_queries);
    eprintln!("generated {} judged queries", queries.queries.len());

    // A second platform ingests the SAME narratives through *automatic*
    // extraction (trained NER tagger, heuristic timeline) instead of gold
    // annotations — the realistic operating point; the gold system is the
    // upper bound where graph semantics and judgments coincide.
    eprintln!("building auto-extracted variant (training tagger)…");
    let auto_system = create_core::Create::new(Default::default());
    let tagger_reports = corpus(120, 424242); // disjoint seed for training
    let tagger_dataset =
        create_ner::NerDataset::from_reports(&tagger_reports, create_ner::LabelSet::ner_targets());
    let tagger = train_tagger(&tagger_dataset, Some(auto_system.ontology()), None, 6);
    auto_system.attach_tagger(tagger);
    let auto_start = Instant::now();
    for r in &reports {
        auto_system
            .ingest_text(&r.id, &r.title, &r.text, r.metadata.year)
            .expect("auto ingest");
    }
    eprintln!(
        "auto ingest took {:.1}s ({:.1} reports/s)",
        auto_start.elapsed().as_secs_f64(),
        reports.len() as f64 / auto_start.elapsed().as_secs_f64()
    );

    let systems: [(&str, &create_core::Create, MergePolicy); 4] = [
        (
            "CREATe-IR gold (upper bound)",
            &system,
            MergePolicy::Neo4jFirst,
        ),
        (
            "CREATe-IR auto-extracted",
            &auto_system,
            MergePolicy::Neo4jFirst,
        ),
        (
            "CREATe-IR auto, graph only",
            &auto_system,
            MergePolicy::GraphOnly,
        ),
        ("Solr baseline (keyword)", &system, MergePolicy::EsOnly),
    ];

    // Overall metrics.
    let mut overall = Table::new(&["system", "P@10", "MRR", "nDCG@10", "mean ms/query"]);
    for (name, sys, policy) in systems {
        let mut per_query = Vec::new();
        let mut total_ms = 0.0;
        for q in &queries.queries {
            let t = Instant::now();
            let ids: Vec<String> = sys
                .search_with_policy(&q.text, 10, policy)
                .into_iter()
                .map(|h| h.report_id)
                .collect();
            total_ms += t.elapsed().as_secs_f64() * 1e3;
            per_query.push((
                precision_at_k(&ids, &q.judgments, 10),
                reciprocal_rank(&ids, &q.judgments),
                ndcg_at_k(&ids, &q.judgments, 10),
            ));
        }
        let m = IrMetrics::aggregate(&per_query);
        overall.row(vec![
            name.to_string(),
            f4(m.p_at_10),
            f4(m.mrr),
            f4(m.ndcg_at_10),
            format!("{:.2}", total_ms / queries.queries.len() as f64),
        ]);
    }
    overall.print("E4 — retrieval quality over all queries");

    // Per-family breakdown: auto-extracted CREATe-IR vs Solr.
    let mut per_family = Table::new(&[
        "query family",
        "queries",
        "CREATe-IR (auto) nDCG@10",
        "Solr nDCG@10",
        "delta",
    ]);
    for family in [
        QueryFamily::Keyword,
        QueryFamily::Entity,
        QueryFamily::Relation,
        QueryFamily::Temporal,
    ] {
        let fam_queries = queries.of_family(family);
        let eval = |sys: &create_core::Create, policy: MergePolicy| -> f64 {
            let scores: Vec<f64> = fam_queries
                .iter()
                .map(|q| {
                    let ids: Vec<String> = sys
                        .search_with_policy(&q.text, 10, policy)
                        .into_iter()
                        .map(|h| h.report_id)
                        .collect();
                    ndcg_at_k(&ids, &q.judgments, 10)
                })
                .collect();
            scores.iter().sum::<f64>() / scores.len().max(1) as f64
        };
        let ours = eval(&auto_system, MergePolicy::Neo4jFirst);
        let solr = eval(&system, MergePolicy::EsOnly);
        per_family.row(vec![
            family.label().to_string(),
            fam_queries.len().to_string(),
            f4(ours),
            f4(solr),
            format!("{:+.4}", ours - solr),
        ]);
    }
    per_family.print("E4 — per-family nDCG@10 (relation/temporal drive the gap)");

    // Ranking-function ablation on the raw index (keyword path only).
    let mut ranking = Table::new(&["scorer", "mean nDCG@10 (keyword queries)"]);
    for (name, scorer) in [
        ("BM25 (k1=1.2, b=0.75)", Scorer::Bm25 { k1: 1.2, b: 0.75 }),
        ("BM25 (k1=0.5, b=0.75)", Scorer::Bm25 { k1: 0.5, b: 0.75 }),
        ("BM25 (k1=1.2, b=0.0)", Scorer::Bm25 { k1: 1.2, b: 0.0 }),
        ("TF-IDF", Scorer::TfIdf),
    ] {
        let kw = queries.of_family(QueryFamily::Keyword);
        let scores: Vec<f64> = kw
            .iter()
            .map(|q| {
                let index = system.index();
                let node = Query::query_string(&index, "title", &q.text)
                    .or(Query::query_string(&index, "body", &q.text));
                let ids: Vec<String> = index
                    .search(&node, 10, scorer)
                    .into_iter()
                    .map(|h| h.external_id)
                    .collect();
                ndcg_at_k(&ids, &q.judgments, 10)
            })
            .collect();
        ranking.row(vec![
            name.to_string(),
            f4(scores.iter().sum::<f64>() / scores.len().max(1) as f64),
        ]);
    }
    ranking.print("E4 ablation — ranking function (keyword family)");
}
