//! Sharding must be invisible to every read surface.
//!
//! The same seeded corpus is ingested at shard counts {1, 2, 4, 7} — a
//! power-of-two spread plus a prime that exercises uneven routing — and
//! every configuration is held to the single-shard baseline:
//!
//! * **Rankings** are compared at the bit level (report id + raw score
//!   bits) for a query panel, under every merge policy. Scatter-gather
//!   runs per-shard DAAT under globally merged corpus statistics and
//!   merges on `(score, global ingest ordinal)`, so there is no "close
//!   enough" here — any deviation is a determinism bug.
//! * **Stats** (`/stats`-surface report counts) must match: routing must
//!   neither lose nor duplicate documents.
//! * **Cache staleness** must behave identically: a write through any
//!   shard bumps the composite generation, so cached results die on
//!   first touch after a publish, exactly as at N=1.
//! * **Segments** are sub-shards of the same argument: an index frozen
//!   into segments by flushes every {1, 7, 64} batches answers `/search`
//!   and `/cohort` with the bodies the never-flushed index gives — the
//!   digests `query_equivalence.rs` and `cohort_retrieval.rs` pin — and
//!   keeps its segments within the tier rule's bound.

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{gold_cohorts, CaseReport, CorpusConfig, Generator, QuerySet};
use create::docstore::json::parse_json;
use create::index::{Index, Query, ScoredDoc, Scorer};
use create::server::{build_api, Request, Status};
use std::sync::Arc;

const N_DOCS: usize = 60;
const K: usize = 10;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Rankings are compared at the bit level: id, raw score bits, source.
type Ranking = Vec<(String, u64, bool)>;

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

fn sharded(reports: &[CaseReport], shards: usize) -> Create {
    let system = Create::new(CreateConfig { shards });
    assert_eq!(system.shard_count(), shards);
    system
        .ingest_gold_batch(reports, 0)
        .expect("batch ingest succeeds at every shard count");
    system
}

fn ranking(system: &Create, query: &str, policy: MergePolicy) -> Ranking {
    system
        .search_with_policy(query, K, policy)
        .into_iter()
        .map(|h| (h.report_id, h.score.to_bits(), h.pattern_matched))
        .collect()
}

#[test]
fn rankings_are_bit_identical_across_shard_counts() {
    let reports = corpus(N_DOCS, 20260807);
    let queries: Vec<String> = QuerySet::generate(&reports, 99, 12)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();
    let policies = [
        MergePolicy::Neo4jFirst,
        MergePolicy::EsFirst,
        MergePolicy::EsOnly,
        MergePolicy::GraphOnly,
        MergePolicy::Interleave,
    ];

    let baseline = sharded(&reports, 1);
    for &shards in &SHARD_COUNTS[1..] {
        let system = sharded(&reports, shards);
        for q in &queries {
            for policy in policies {
                assert_eq!(
                    ranking(&system, q, policy),
                    ranking(&baseline, q, policy),
                    "ranking diverged at {shards} shards for {q:?} under {policy:?}"
                );
            }
        }
    }
}

/// A `k` far beyond the corpus is the corpus: no read-path allocation is
/// sized by `k` alone (at `5881757` this asked for 40 TB and aborted).
#[test]
fn search_at_usize_max_k_returns_the_hits_of_k_equal_to_the_doc_count() {
    let reports = corpus(N_DOCS, 20260809);
    for shards in [1usize, 2] {
        let system = sharded(&reports, shards);
        for q in ["fever and cough", "chest pain"] {
            let want = system.search(q, N_DOCS);
            assert!(!want.is_empty(), "{q:?} hits at {shards} shard(s)");
            assert_eq!(
                system.search(q, usize::MAX),
                want,
                "{q:?} at {shards} shard(s)"
            );
        }
    }
}

#[test]
fn stats_and_lookups_match_the_single_shard_baseline() {
    let reports = corpus(N_DOCS, 20260808);
    let baseline = sharded(&reports, 1);
    let base_stats = baseline.stats();
    assert_eq!(base_stats.reports, N_DOCS);

    for &shards in &SHARD_COUNTS[1..] {
        let system = sharded(&reports, shards);
        let stats = system.stats();
        // Report counts must be exact: routing loses or duplicates
        // nothing. (Graph node counts legitimately differ at N > 1 —
        // concept nodes are per-shard — so only document-derived counts
        // are compared.)
        assert_eq!(stats.reports, base_stats.reports, "{shards} shards");
        // Every document is retrievable from its owning shard.
        for r in &reports {
            assert!(
                system.report(&r.id).unwrap().is_some(),
                "report {} at {shards}",
                r.id
            );
            assert!(
                system.annotations(&r.id).unwrap().is_some(),
                "annotations {} at {shards}",
                r.id
            );
        }
        // The composite generation is the sum of the per-shard stamps,
        // and every batch bumped each touched shard exactly once.
        let gens = system.shard_generations();
        assert_eq!(gens.len(), shards);
        assert_eq!(gens.iter().sum::<u64>(), system.snapshot().generation());
        assert!(gens.iter().all(|&g| g <= 1), "one batch → at most one bump");
    }
}

#[test]
fn cache_staleness_tracks_the_composite_generation_at_any_shard_count() {
    let reports = corpus(N_DOCS, 20260809);
    let (seed_reports, extra) = reports.split_at(N_DOCS - SHARD_COUNTS.len());

    for &shards in &SHARD_COUNTS {
        let system = sharded(seed_reports, shards);
        let query = "fever and cough";

        // Cold → miss; warm → hit, at every shard count.
        let cold = ranking(&system, query, MergePolicy::Neo4jFirst);
        let warm = ranking(&system, query, MergePolicy::Neo4jFirst);
        assert_eq!(cold, warm, "{shards} shards");
        let stats = system.cache_stats();
        assert_eq!(
            stats.hits, 1,
            "warm query hits the cache at {shards} shards"
        );

        // A write through ANY single shard (one doc routes to exactly
        // one) bumps the composite generation and invalidates the cached
        // entry on first touch — staleness is indistinguishable from the
        // single-shard system.
        let gen_before = system.cache_stats().generation;
        system
            .ingest_gold(&extra[0])
            .expect("post-cache ingest succeeds");
        assert_eq!(
            system.cache_stats().generation,
            gen_before + 1,
            "one write bumps the composite generation by one at {shards} shards"
        );
        let misses_before = system.cache_stats().misses;
        let _ = system.search_with_policy(query, K, MergePolicy::Neo4jFirst);
        assert_eq!(
            system.cache_stats().misses,
            misses_before + 1,
            "the stale entry dies as a miss at {shards} shards"
        );
    }
}

/// Flush cadences, in single-document batches: after every batch, every
/// 7th, every 64th, never.
const CADENCES: [Option<usize>; 4] = [Some(1), Some(7), Some(64), None];

/// Segments an index of `docs` documents may hold: their size classes
/// fall strictly, so at most the bit length of the doc count of them —
/// and on a disk-backed shard, whose tier rule never merges a sealed
/// segment with an unsealed one, one more.
fn segment_bound(docs: usize, disk: bool) -> usize {
    (usize::BITS - docs.leading_zeros()) as usize + usize::from(disk)
}

/// `reports` ingested one per batch into `system`, flushed after every
/// `cadence`-th batch, with the tier rule's bound checked after each
/// publish on every shard and exactly on shard 0's index.
fn ingest_flushing(system: &Create, reports: &[CaseReport], cadence: Option<usize>) {
    let disk = system.storage_stats().is_some();
    for (i, report) in reports.iter().enumerate() {
        system.ingest_gold(report).expect("ingest");
        let shard0 = system.index();
        assert!(
            shard0.segment_count() <= segment_bound(shard0.num_docs(), disk),
            "{} segments for {} documents",
            shard0.segment_count(),
            shard0.num_docs()
        );
        for shard in system.shard_segments() {
            assert!(
                shard.ram <= segment_bound(i + 1, disk),
                "{shard:?} at {} docs",
                i + 1
            );
        }
        if cadence.is_some_and(|every| (i + 1) % every == 0) {
            system.flush().expect("flush");
        }
    }
}

/// FNV-1a over the `/search` bodies of `query_equivalence.rs`'s golden
/// digest, per policy.
fn search_digests(system: Arc<Create>, queries: &[String]) -> Vec<u64> {
    let api = build_api(system);
    let policies = [
        "neo4j_first",
        "es_first",
        "es_only",
        "graph_only",
        "interleave",
    ];
    policies
        .iter()
        .map(|policy| {
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for (i, q) in queries.iter().enumerate() {
                let k = ["3", "10", "100"][i % 3];
                for _ in 0..2 {
                    let response = api.dispatch(&Request {
                        method: "GET".to_string(),
                        path: "/search".to_string(),
                        query: [("q", q.as_str()), ("k", k), ("policy", policy)]
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v.to_string()))
                            .collect(),
                        headers: Default::default(),
                        body: Vec::new(),
                    });
                    assert_eq!(response.status, Status::Ok, "{policy}: {q:?}");
                    for &b in &response.body {
                        digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            digest
        })
        .collect()
}

/// Term and disjunction queries straight on an index, bit-level.
fn index_rankings(index: &Index) -> Vec<Vec<(u32, String, u64)>> {
    let queries = [
        Query::term("body", "fever"),
        Query::term("body_ngram", "card"),
        Query::term("title", "case"),
        Query::term("body", "patient")
            .or(Query::term("body", "cough"))
            .or(Query::term("title", "report")),
        Query::query_string(index, "body", "fever and cough with chest pain"),
        Query::query_string(index, "title", "chest pain")
            .or(Query::query_string(index, "body", "chest pain"))
            .or(Query::query_string(index, "body_ngram", "chest pain")),
    ];
    let bits = |hits: Vec<ScoredDoc>| {
        hits.into_iter()
            .map(|h| (h.doc, h.external_id, h.score.to_bits()))
            .collect()
    };
    let mut out = Vec::new();
    for q in &queries {
        for k in [1, 10, 1000] {
            out.push(bits(index.search(q, k, Scorer::default())));
            out.push(bits(index.search_exhaustive(q, k, Scorer::TfIdf)));
        }
    }
    out
}

#[test]
fn segment_counts_are_invisible_to_search_bodies_and_rankings() {
    let reports = corpus(60, 20260902);
    let queries: Vec<String> = QuerySet::generate(&reports, 11, 24)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();
    // Pinned by `query_equivalence.rs` on one never-flushed segment.
    let golden = [
        0xcd73_68ed_2fda_40ffu64,
        0xac16_d65e_c501_95e9,
        0xf437_4c0b_bc6f_4f49,
        0x779f_cab1_aaf7_d3dd,
        0x6379_95ad_6715_067b,
    ];
    for shards in [1usize, 2] {
        let mut baseline = None;
        for cadence in CADENCES {
            let system = Arc::new(Create::new(CreateConfig { shards }));
            ingest_flushing(&system, &reports, cadence);
            let index = system.index();
            if cadence == Some(1) {
                assert!(index.segment_count() > 2, "{index:?}");
            }
            let rankings = index_rankings(&index);
            assert!(rankings.iter().filter(|hits| !hits.is_empty()).count() > 30);
            let baseline = baseline.get_or_insert_with(|| rankings.clone());
            assert!(
                rankings == *baseline,
                "shard 0's index ranks differently at {shards} shard(s), flushing every {cadence:?}"
            );
            assert_eq!(
                search_digests(system, &queries),
                golden,
                "/search bodies at {shards} shard(s), flushing every {cadence:?}"
            );
        }
        // Disk-backed: the seals freeze the same segments, and a reopen
        // adopts each file as one.
        let dir = std::env::temp_dir().join(format!(
            "create-segment-equivalence-{}-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let system = Create::open(&dir, CreateConfig { shards }).expect("open");
            ingest_flushing(&system, &reports, Some(7));
        }
        let reopened = Arc::new(Create::open(&dir, CreateConfig { shards }).expect("reopen"));
        assert_eq!(
            search_digests(reopened, &queries),
            golden,
            "/search bodies at {shards} shard(s) after a reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn segment_counts_are_invisible_to_cohort_bodies() {
    let reports = corpus(120, 20260816);
    // `cohort_retrieval.rs`'s shard-invariance panel and pinned digest.
    let mut panel: Vec<String> = gold_cohorts().iter().map(|s| s.criteria_json()).collect();
    panel.push(
        r#"{"filters":[{"field":"sex","values":["female"]}],
            "keywords":"fatigue and weight loss","k":10}"#
            .to_string(),
    );
    panel.push(
        r#"{"filters":[{"field":"category","values":["cancer","cardiovascular"]}],
            "keywords":"chest pain","facets":["year"],"k":7}"#
            .to_string(),
    );
    panel.push(
        r#"{"keywords":"fever","temporal":[{"a":"fever","op":"within","days":600,"b":"malaise"}],
            "facets":["category","sex"],"k":5}"#
            .to_string(),
    );
    panel.push(r#"{"keywords":"fever and cough","k":10}"#.to_string());
    for shards in [1usize, 2] {
        for cadence in CADENCES {
            let system = Create::new(CreateConfig { shards });
            ingest_flushing(&system, &reports, cadence);
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for criteria in &panel {
                let json = parse_json(criteria).expect("criteria parses");
                let body = system
                    .cohort_from_json(&json)
                    .expect("criteria accepted")
                    .to_json()
                    .to_json();
                for b in body.bytes() {
                    digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                digest, 0xe6de_ef8a_4547_44f3,
                "/cohort bodies at {shards} shard(s), flushing every {cadence:?}"
            );
        }
    }
}
