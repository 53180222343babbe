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

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};

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
                system.report(&r.id).is_some(),
                "report {} at {shards}",
                r.id
            );
            assert!(
                system.annotations(&r.id).is_some(),
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
