//! Accumulator-vs-exhaustive query equivalence suite.
//!
//! The executor behind `Index::search` (a per-document score array
//! scanned into a bounded heap, with a floor carried across segments and
//! a filter run) promises rankings *bit-identical* to the exhaustive
//! baseline `Index::search_exhaustive`. A query is a flat disjunction of
//! `(field, term)` clauses, what the product sends. This suite drives
//! both executors with 100 seeded disjunctions and asserts score-bit and
//! order equality, covers the shapes the keyword leg builds (one term,
//! query strings over all three fields, repeated terms, the empty
//! disjunction), proves the facade's query cache never serves stale
//! results across an ingest or a tagger attachment, and pins the
//! `/search` response bodies of all five merge policies to digests
//! captured before the cache consolidation.

use create::core::{Create, CreateConfig};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};
use create::index::score::Scorer;
use create::index::{CorpusStats, Index, Query};
use create::server::{build_api, Request, Status};
use create::text::Analyzer;
use create::util::Rng;

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

/// The production index layout over a generated corpus.
fn clinical_index(reports: &[CaseReport]) -> Index {
    let mut idx = Index::clinical();
    for r in reports {
        idx.add_document(
            &r.id,
            &[
                ("title", r.title.as_str()),
                ("body", r.text.as_str()),
                ("body_ngram", r.text.as_str()),
            ],
        )
        .unwrap();
    }
    idx
}

/// Asserts the DAAT and exhaustive executors agree hit-for-hit,
/// score-bit-for-score-bit, and returns the hits.
fn assert_equivalent(
    idx: &Index,
    q: &Query,
    k: usize,
    scorer: Scorer,
    label: &str,
) -> Vec<create::index::ScoredDoc> {
    let daat = idx.search(q, k, scorer);
    let exhaustive = idx.search_exhaustive(q, k, scorer);
    assert_eq!(
        daat.len(),
        exhaustive.len(),
        "{label}: hit count {} vs {}",
        daat.len(),
        exhaustive.len()
    );
    for (i, (a, b)) in daat.iter().zip(&exhaustive).enumerate() {
        assert_eq!(a.doc, b.doc, "{label}: doc order diverges at rank {i}");
        assert_eq!(a.external_id, b.external_id, "{label}: id at rank {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{label}: score bits at rank {i} ({} vs {})",
            a.score,
            b.score
        );
    }
    daat
}

/// A random analyzed term drawn from a random report's body.
fn random_term(rng: &mut Rng, analyzed: &[Vec<String>]) -> String {
    loop {
        let doc = &analyzed[rng.below(analyzed.len())];
        if doc.is_empty() {
            continue;
        }
        return doc[rng.below(doc.len())].clone();
    }
}

#[test]
fn hundred_seeded_queries_are_bit_identical() {
    let reports = corpus(250, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(990_017);
    let ks = [1, 5, 10, 50];
    let body = |rng: &mut Rng| Query::term("body", &random_term(rng, &analyzed));
    let disjunction =
        |rng: &mut Rng, n: usize| (0..n).fold(Query::default(), |q, _| q.or(body(rng)));
    for i in 0..100 {
        let k = ks[rng.below(ks.len())];
        let scorer = if rng.below(5) == 0 {
            Scorer::TfIdf
        } else {
            Scorer::default()
        };
        let q = match i % 4 {
            0 => body(&mut rng),
            1 => {
                let n = 2 + rng.below(2);
                disjunction(&mut rng, n)
            }
            2 => {
                // Body terms, then maybe one of them again in the title.
                let n = 1 + rng.below(2) + rng.below(3);
                let q = disjunction(&mut rng, n);
                if rng.below(3) == 0 {
                    let title = Query::term("title", &q.clauses[0].term);
                    q.or(title)
                } else {
                    q
                }
            }
            _ => {
                let text = random_term(&mut rng, &analyzed);
                keyword_query(&idx, &text)
            }
        };
        assert_equivalent(&idx, &q, k, scorer, &format!("query {i} ({q:?})"));
    }
}

/// `body_ngram` keeps doc ids and term frequencies, no positions:
/// disjunctions of grams score from the frequencies bit-identically in
/// both executors.
#[test]
fn ngram_field_queries_are_bit_identical() {
    let reports = corpus(120, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_ngram();
    let analyzed: Vec<Vec<String>> = reports[..30]
        .iter()
        .map(|r| analyzer.terms(&r.text))
        .collect();
    let gram = |rng: &mut Rng| Query::term("body_ngram", &random_term(rng, &analyzed));
    let grams = |rng: &mut Rng, n: usize| (0..n).fold(Query::default(), |q, _| q.or(gram(rng)));
    let mut rng = Rng::seed_from_u64(240_024);
    let ks = [1, 5, 10, 50];
    let mut scored = 0;
    for i in 0..40 {
        let k = ks[rng.below(ks.len())];
        let scorer = if rng.below(5) == 0 {
            Scorer::TfIdf
        } else {
            Scorer::default()
        };
        let q = match i % 4 {
            0 => gram(&mut rng),
            1 => {
                let n = 1 + rng.below(2) + rng.below(3);
                grams(&mut rng, n)
            }
            2 => {
                // A gram repeated around another.
                let (a, b) = (gram(&mut rng), gram(&mut rng));
                a.clone().or(b).or(a)
            }
            _ => {
                let word = random_term(&mut rng, &analyzed);
                Query::query_string(&idx, "body_ngram", &word)
            }
        };
        let hits = assert_equivalent(&idx, &q, k, scorer, &format!("ngram query {i} ({q:?})"));
        scored += usize::from(!hits.is_empty());
    }
    assert_eq!(
        scored, 40,
        "every gram query finds the document it came from"
    );
}

/// The keyword leg's query: one `query_string` per field, exactly what
/// `keyword_search` sends.
fn keyword_query(idx: &Index, text: &str) -> Query {
    Query::query_string(idx, "title", text)
        .or(Query::query_string(idx, "body", text))
        .or(Query::query_string(idx, "body_ngram", text))
}

#[test]
fn flat_disjunctions_prune_identically() {
    // The accumulator path proper: multi-field query_string
    // disjunctions, exactly what `keyword_search` sends.
    let reports = corpus(250, 4242);
    let idx = clinical_index(&reports);
    let mut rng = Rng::seed_from_u64(661_331);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    for i in 0..30 {
        let n_terms = 1 + rng.below(5);
        let text = (0..n_terms)
            .map(|_| random_term(&mut rng, &analyzed))
            .collect::<Vec<_>>()
            .join(" ");
        let q = keyword_query(&idx, &text);
        for k in [1, 3, 10] {
            assert_equivalent(&idx, &q, k, Scorer::default(), &format!("qs {i} k={k}"));
        }
    }
}

/// The same term twice in one disjunction — what a text repeating a word
/// produces, and the n-gram field for every gram two words share — adds
/// its score twice, in clause order, in both executors.
#[test]
fn a_repeated_term_adds_twice_in_both_executors() {
    let reports = corpus(120, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(52_125);
    for i in 0..20 {
        let (a, b) = (
            random_term(&mut rng, &analyzed),
            random_term(&mut rng, &analyzed),
        );
        let term = |t: &str| Query::term("body", t);
        let q = term(&a).or(term(&b)).or(term(&a));
        let once = term(&a).or(term(&b));
        for k in [1, 5, 50] {
            assert_equivalent(&idx, &q, k, Scorer::default(), &format!("twice {i} k={k}"));
        }
        // Every document holding `a` scores higher with it repeated.
        let all = idx.num_docs();
        let twice = idx.search(&q, all, Scorer::default());
        let single = idx.search(&once, all, Scorer::default());
        let score_of = |hits: &[create::index::ScoredDoc], doc: u32| {
            hits.iter().find(|h| h.doc == doc).map(|h| h.score)
        };
        for hit in idx.search(&term(&a), all, Scorer::default()) {
            assert!(
                score_of(&twice, hit.doc) > score_of(&single, hit.doc),
                "repeat {i}: {a:?} counted once in {}",
                hit.external_id
            );
        }
        let text = format!("{a} {b} {a}");
        let q = keyword_query(&idx, &text);
        assert_equivalent(&idx, &q, 10, Scorer::default(), &format!("{text:?}"));
    }
}

/// Byte-identical documents in different segments of one index score the
/// same bits, so the floor an earlier segment sets meets exact ties in a
/// later one: the tie goes to the lower doc id in both executors.
#[test]
fn identical_documents_in_different_segments_tie_on_the_floor() {
    let reports = corpus(41, 8181);
    let twin = &reports[40];
    let add = |idx: &mut Index, id: &str, r: &CaseReport| {
        let fields = [("title", r.title.as_str()), ("body", r.text.as_str())];
        idx.add_document(id, &[fields[0], fields[1], ("body_ngram", r.text.as_str())])
            .unwrap();
    };
    let mut idx = Index::clinical();
    let mut twins = Vec::new();
    for r in &reports[..40] {
        // One-at-a-time adds of 44 documents leave segments of 32, 8
        // and 4: these global positions put twins in all three.
        if [0, 20, 35, 41].contains(&idx.num_docs()) {
            twins.push(format!("twin-{}", twins.len()));
            add(&mut idx, twins.last().unwrap(), twin);
        }
        add(&mut idx, &r.id, r);
    }
    let holders: Vec<usize> = twins
        .iter()
        .map(|id| {
            idx.frozen()
                .position(|s| s.internal_id(id).is_some())
                .unwrap()
        })
        .collect();
    assert_eq!(holders, [0, 0, 1, 2], "twins in three segments");
    let q = keyword_query(&idx, &twin.text);
    for k in 1..=6 {
        let hits = assert_equivalent(&idx, &q, k, Scorer::default(), &format!("twins k={k}"));
        let top = k.min(twins.len());
        let ids: Vec<&str> = hits[..top].iter().map(|h| h.external_id.as_str()).collect();
        assert_eq!(ids, twins[..top], "twins rank first, by doc id");
        let bits = hits[0].score.to_bits();
        assert!(
            hits[..top].iter().all(|h| h.score.to_bits() == bits),
            "twins tie"
        );
    }
}

/// A filtered flat disjunction asked for far more hits than match — as
/// `/cohort` asks for 2000 — returns every allowed match, ranked exactly
/// as the exhaustive search post-filtered to the allowed run.
#[test]
fn a_filtered_search_past_its_matches_is_the_post_filtered_exhaustive_one() {
    let reports = corpus(250, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(77_007);
    let allowed: Vec<u32> = (0..idx.num_docs() as u32).filter(|d| d % 3 != 1).collect();
    for i in 0..10 {
        let text = format!(
            "{} {}",
            random_term(&mut rng, &analyzed),
            random_term(&mut rng, &analyzed)
        );
        let q = keyword_query(&idx, &text);
        let filtered = idx.search_filtered(&q, 2000, Scorer::default(), None, &allowed);
        let mut expected = idx.search_exhaustive(&q, idx.num_docs(), Scorer::default());
        expected.retain(|h| allowed.binary_search(&h.doc).is_ok());
        assert!(filtered.len() < 2000, "{text:?} matches fewer than k");
        assert!(!filtered.is_empty(), "{text:?} matches");
        assert_eq!(filtered.len(), expected.len(), "{text:?}");
        for (rank, (a, b)) in filtered.iter().zip(&expected).enumerate() {
            assert_eq!(
                (a.doc, a.score.to_bits()),
                (b.doc, b.score.to_bits()),
                "query {i} rank {rank}"
            );
        }
    }
}

/// A disjunction of one term — alone, and beside a clause no document
/// holds — ranks as the exhaustive walker does, and the same either way.
#[test]
fn a_one_term_disjunction_is_bit_identical() {
    let reports = corpus(250, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(31_013);
    for i in 0..20 {
        let term = Query::term("body", &random_term(&mut rng, &analyzed));
        let padded = Query::term("body", "zzzzqx").or(term.clone());
        for k in [1, 5, 50] {
            let bare = assert_equivalent(&idx, &term, k, Scorer::default(), &format!("term {i}"));
            let two = assert_equivalent(&idx, &padded, k, Scorer::default(), &format!("pad {i}"));
            assert_eq!(bare, two, "term {i} k={k}");
        }
    }
}

/// The keyword leg's disjunctions under TF-IDF, the ranking ablation's
/// scorer.
#[test]
fn flat_disjunctions_under_tf_idf_are_bit_identical() {
    let reports = corpus(250, 4242);
    let idx = clinical_index(&reports);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(13_931);
    for i in 0..20 {
        let text = (0..1 + rng.below(4))
            .map(|_| random_term(&mut rng, &analyzed))
            .collect::<Vec<_>>()
            .join(" ");
        let q = keyword_query(&idx, &text);
        for k in [1, 3, 10, 100] {
            assert_equivalent(&idx, &q, k, Scorer::TfIdf, &format!("tf-idf {i} k={k}"));
        }
    }
}

/// One segment holding every report, and one document a segment.
fn one_and_several_segments(reports: &[CaseReport]) -> [Index; 2] {
    let mut one = Index::clinical();
    let mut segment = one.segment();
    for r in reports {
        let fields = [("title", r.title.as_str()), ("body", r.text.as_str())];
        let fields = [fields[0], fields[1], ("body_ngram", r.text.as_str())];
        segment.add_document(&r.id, &fields, []).unwrap();
    }
    one.merge_segment(segment).unwrap();
    assert_eq!(one.segment_count(), 1);
    let several = clinical_index(reports);
    assert!(several.segment_count() > 1);
    [one, several]
}

/// One disjunction spanning all three fields, with a term repeated
/// across them — a body word asked in the title, the body and (as one
/// gram) the n-gram field, and in the body again — ranks alike in both
/// executors, over one segment and over several, and the two indexes
/// rank it alike.
#[test]
fn a_term_repeated_across_all_three_fields_is_bit_identical() {
    let reports = corpus(120, 4242);
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let [one, several] = one_and_several_segments(&reports);
    let mut rng = Rng::seed_from_u64(73_331);
    for i in 0..20 {
        let (term, other) = (
            random_term(&mut rng, &analyzed),
            random_term(&mut rng, &analyzed),
        );
        let q = Query::term("title", &term)
            .or(Query::term("body", &term))
            .or(Query::term("body_ngram", &term))
            .or(Query::term("body", &other))
            .or(Query::term("body", &term));
        let mut rankings = Vec::new();
        for (idx, label) in [(&one, "one segment"), (&several, "several")] {
            for k in [1, 10, idx.num_docs()] {
                let what = format!("{label} query {i} ({q:?}) k={k}");
                let hits = assert_equivalent(idx, &q, k, Scorer::default(), &what);
                assert!(!hits.is_empty(), "{what}");
                rankings.push(hits);
            }
        }
        assert_eq!(rankings[..3], rankings[3..], "query {i}");
    }
}

/// The keyword query of stopwords shorter than the smallest gram is the
/// empty disjunction: every entry point returns nothing for it, at every
/// `k`, over one segment and over several.
#[test]
fn the_empty_disjunction_matches_nothing() {
    let reports = corpus(60, 4242);
    for idx in one_and_several_segments(&reports) {
        let q = keyword_query(&idx, "of a to in at on");
        assert_eq!(q, Query::default());
        let all = idx.num_docs();
        let allowed: Vec<u32> = (0..all as u32).collect();
        let stats = CorpusStats::collect([&idx], &q);
        for k in [0, 1, 10, all] {
            let what = format!("{} segment(s), k={k}", idx.segment_count());
            assert!(assert_equivalent(&idx, &q, k, Scorer::default(), &what).is_empty());
            assert!(idx.search(&q, k, Scorer::TfIdf).is_empty(), "{what}");
            let filtered = idx.search_filtered(&q, k, Scorer::default(), None, &allowed);
            assert!(filtered.is_empty(), "{what}");
            let merged = idx.search_with_stats(&q, k, Scorer::default(), Some(&stats));
            assert!(merged.is_empty(), "{what}");
        }
    }
}

/// Satellite 5's cache-invalidation proof at the facade level: a cached
/// query must reflect a subsequent ingest, with the hit/miss counters
/// showing the cache actually served the repeat.
#[test]
fn query_cache_never_serves_stale_results() {
    let reports = corpus(20, 1313);
    let system = Create::new(CreateConfig::default());
    for r in &reports[..19] {
        system.ingest_gold(r).unwrap();
    }
    let query = "fever and cough";
    let cold = system.search(query, 10);
    let warm = system.search(query, 10);
    let stats = system.cache_stats();
    assert_eq!(stats.hits, 1, "repeat query served from cache");
    assert_eq!(cold.len(), warm.len());
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.report_id, b.report_id);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    // Ingest one more report; the generation bump must invalidate.
    let generation_before = stats.generation;
    system.ingest_gold(&reports[19]).unwrap();
    let stats = system.cache_stats();
    assert!(stats.generation > generation_before);
    let fresh = system.search(query, 10);
    let reference = Create::new(CreateConfig::default());
    for r in &reports {
        reference.ingest_gold(r).unwrap();
    }
    let expected = reference.search(query, 10);
    assert_eq!(fresh.len(), expected.len(), "post-ingest results are fresh");
    for (a, b) in fresh.iter().zip(&expected) {
        assert_eq!(a.report_id, b.report_id);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

/// A small CRF tagger over the gold annotations of `reports`; training
/// is seeded, so two calls give the same model.
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

/// A query parses differently once a tagger is attached, and the cache
/// is keyed on the query text: attachment must invalidate like any
/// other write, and the recomputed answer — hits, mentions, pattern —
/// must be what an instance that had the tagger from the start gives.
#[test]
fn attaching_a_tagger_invalidates_cached_answers() {
    let reports = corpus(20, 1414);
    let load = || {
        let system = Create::new(CreateConfig::default());
        system.ingest_gold_batch(&reports, 0).unwrap();
        system
    };
    let system = load();
    let query = "A 45-year-old male was admitted to the emergency department with fever and cough";
    let policy = create::core::MergePolicy::Neo4jFirst;
    let before = system.search_answer(query, 10, policy);
    let _ = system.search_answer(query, 10, policy);
    let warmed = system.cache_stats();
    assert_eq!((warmed.hits, warmed.misses), (1, 1));

    system.attach_tagger(tiny_tagger(&system, &reports));
    let after = system.search_answer(query, 10, policy);
    let stats = system.cache_stats();
    assert!(
        stats.generation > warmed.generation,
        "attachment is a write"
    );
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 2),
        "the answer cached before the attachment is not served after it"
    );

    let fresh = load();
    fresh.attach_tagger(tiny_tagger(&fresh, &reports));
    let expected = fresh.search_answer(query, 10, policy);
    assert_eq!(after.parsed.mentions, expected.parsed.mentions);
    assert_eq!(after.parsed.pattern, expected.parsed.pattern);
    assert_eq!(after.hits, expected.hits);
    assert_eq!(after.body(), expected.body());
    assert_ne!(
        after.parsed.mentions, before.parsed.mentions,
        "the probe query is one the tagger reads differently from the gazetteer"
    );
}

/// `GET /search` bodies are pinned: these digests were computed at
/// commit 050b861, where a body was assembled in the handler from a
/// plan-keyed hit cache, a parse memo and a body memo, and a one-shard
/// deployment scored without merged corpus statistics. Every query is
/// asked twice, so the miss and the hit both serve the pinned bytes.
#[test]
fn search_bodies_match_the_golden_digests() {
    let reports = corpus(60, 20260902);
    let queries = QuerySet::generate(&reports, 11, 24).queries;
    for shards in [1usize, 2] {
        let system = Create::new(CreateConfig { shards });
        system.ingest_gold_batch(&reports, 0).unwrap();
        let api = build_api(std::sync::Arc::new(system));
        for (policy, golden) in [
            ("neo4j_first", 0xcd73_68ed_2fda_40ffu64),
            ("es_first", 0xac16_d65e_c501_95e9),
            ("es_only", 0xf437_4c0b_bc6f_4f49),
            ("graph_only", 0x779f_cab1_aaf7_d3dd),
            ("interleave", 0x6379_95ad_6715_067b),
        ] {
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for (i, q) in queries.iter().enumerate() {
                let k = ["3", "10", "100"][i % 3];
                for _ in 0..2 {
                    let response = api.dispatch(&Request {
                        method: "GET".to_string(),
                        path: "/search".to_string(),
                        query: [("q", q.text.as_str()), ("k", k), ("policy", policy)]
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v.to_string()))
                            .collect(),
                        headers: Default::default(),
                        body: Vec::new(),
                    });
                    assert_eq!(response.status, Status::Ok, "{policy}: {:?}", q.text);
                    for &b in &response.body {
                        digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            assert_eq!(
                digest, golden,
                "{policy} at {shards} shard(s): bodies digest to {digest:#018x}"
            );
        }
    }
}
