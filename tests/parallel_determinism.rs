//! Parallel batch ingestion must be bit-for-bit indistinguishable from
//! sequential ingestion: identical system stats, identical postings (the
//! encoding of every document, however the index cut them into
//! segments), and identical rankings (score bits included) for a panel
//! of generated queries, at every thread count. On disk the one write route is pinned
//! to bytes: lone submits, batches at any thread count and a WAL replay
//! seal segment files with the digests captured before the routes were
//! folded into one.

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CorpusConfig, Generator, QuerySet};
use create::index::codec::merge_postings;

fn corpus(n: usize, seed: u64) -> Vec<create::corpus::CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

#[test]
fn batch_ingestion_is_deterministic_across_thread_counts() {
    let reports = corpus(120, 4242);
    let queries = QuerySet::generate(&reports, 4243, 16);

    // Sequential per-document ingestion is the reference.
    let reference = Create::new(CreateConfig::default());
    for r in &reports {
        reference.ingest_gold(r).expect("sequential ingest");
    }
    let ref_stats = reference.stats();
    let ref_postings = postings(&reference);
    let ref_rankings: Vec<Vec<(String, u64)>> = queries
        .queries
        .iter()
        .map(|q| {
            reference
                .search(&q.text, 10)
                .into_iter()
                .map(|h| (h.report_id, h.score.to_bits()))
                .collect()
        })
        .collect();

    for threads in [1, 2, 8] {
        let system = Create::new(CreateConfig::default());
        let count = system
            .ingest_gold_batch(&reports, threads)
            .expect("batch ingest");
        assert_eq!(count, reports.len());
        assert_eq!(
            system.stats(),
            ref_stats,
            "SystemStats diverged at {threads} threads"
        );
        assert!(
            postings(&system) == ref_postings,
            "postings diverged at {threads} threads"
        );
        for (q, expected) in queries.queries.iter().zip(&ref_rankings) {
            let got: Vec<(String, u64)> = system
                .search(&q.text, 10)
                .into_iter()
                .map(|h| (h.report_id, h.score.to_bits()))
                .collect();
            assert_eq!(
                &got, expected,
                "ranking diverged at {threads} threads for query {:?}",
                q.text
            );
        }
    }
}

/// The postings of shard 0's index: its segments' blobs merged, the
/// encoding of every document in doc-id order (what one seal of them
/// all writes), whatever segments the writes left.
fn postings(system: &Create) -> Vec<u8> {
    let index = system.index();
    let inputs = index.frozen().map(|s| (s.blob(), s.blob().len() as u64));
    let mut blob = Vec::new();
    merge_postings(inputs.collect(), &index, &mut blob).expect("an index's segments merge");
    blob
}

#[test]
fn search_many_is_deterministic() {
    let reports = corpus(60, 7);
    let system = Create::new(CreateConfig::default());
    system.ingest_gold_batch(&reports, 4).expect("batch ingest");

    let queries = QuerySet::generate(&reports, 8, 12);
    let texts: Vec<&str> = queries.queries.iter().map(|q| q.text.as_str()).collect();

    let batched = system.search_many(&texts, 10, MergePolicy::Neo4jFirst);
    assert_eq!(batched.len(), texts.len());
    for (text, hits) in texts.iter().zip(&batched) {
        let individual = system.search(text, 10);
        assert_eq!(individual.len(), hits.len());
        for (a, b) in individual.iter().zip(hits) {
            assert_eq!(a.report_id, b.report_id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 of each shard's first segment file, in shard order.
fn segment_digests(dir: &std::path::Path, shards: usize) -> Vec<String> {
    (0..shards)
        .map(|s| {
            let path = dir
                .join(create::storage::STORAGE_DIR)
                .join(format!("shard-{s}"))
                .join("seg-000000.seg");
            format!(
                "{:016x}",
                fnv1a64(&std::fs::read(&path).expect("segment file"))
            )
        })
        .collect()
}

/// However a document reaches a shard — submitted alone, in a batch on
/// any number of workers, or replayed from the WAL — the shard seals the
/// same bytes. The digests were first taken at commit `d5d30ea`, where
/// three hand-copied routes computed them (its lone, batch and replay
/// routes agreed), and re-pinned once, for segment format 4, when
/// `body_ngram` stopped storing positions: they are the files the
/// previous encoder writes once that field's position deltas are left
/// out and the header names format 4. Re-pinned again for format 5,
/// whose regions end with an empty block and whose dictionaries end with
/// an empty term instead of leading with counts: each file read back,
/// its postings' end entries turned back into term counts and its
/// regions re-framed behind block counts, is the format-4 file
/// (`694623a8c6b3f29e`; `620d1958553531a2`, `b1a0babb77b3f7de`) byte
/// for byte. Re-pinned a third time when a payload stopped storing a
/// BRAT copy of the annotations beside the extraction, and the gold
/// extraction began to keep every gold relation: each file's header,
/// directory, postings and facet regions are those of the previous
/// pins (`b7350e63abdace24`; `6b8d0903351cf4e2`, `fa66bb5396988247`)
/// byte for byte, and only its stored-fields region — a payload of
/// `{"extraction","report"}` where it was `{"ann","extraction","report"}`
/// — and so its footer CRC differ.
#[test]
fn every_route_into_a_shard_seals_the_same_segment_bytes() {
    const EXPECTED: [(usize, &[&str]); 2] = [
        (1, &["0176be81d9698bc0"]),
        (2, &["531a47b16cf9c087", "ffba45193e900ea8"]),
    ];
    let reports = corpus(300, 20261002);
    for (shards, expected) in EXPECTED {
        let config = CreateConfig { shards };
        let base =
            std::env::temp_dir().join(format!("create-routes-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let open = |route: &str| {
            let dir = base.join(route);
            (Create::open(&dir, config.clone()).expect("open"), dir)
        };

        let (system, dir) = open("lone");
        for r in &reports {
            system.ingest_gold(r).expect("lone ingest");
        }
        system.flush().expect("flush");
        assert_eq!(
            segment_digests(&dir, shards),
            expected,
            "{shards} shards, 300 lone submits"
        );

        for threads in [1, 3, 8] {
            let (system, dir) = open(&format!("batch-{threads}"));
            system
                .ingest_gold_batch(&reports, threads)
                .expect("batch ingest");
            system.flush().expect("flush");
            assert_eq!(
                segment_digests(&dir, shards),
                expected,
                "{shards} shards, one batch on {threads} workers"
            );
        }

        // Ingest, drop without a flush, reopen: the WAL replay seals.
        let (system, dir) = open("replay");
        for r in &reports {
            system.ingest_gold(r).expect("lone ingest");
        }
        drop(system);
        let _reopened = open("replay");
        assert_eq!(
            segment_digests(&dir, shards),
            expected,
            "{shards} shards, WAL replay"
        );

        let _ = std::fs::remove_dir_all(&base);
    }
}

/// FNV-1a 64 of each shard's one segment file, in shard order (a shard
/// holding any other number of segments fails).
fn only_segment_digests(dir: &std::path::Path, shards: usize) -> Vec<String> {
    (0..shards)
        .map(|s| {
            let shard = dir
                .join(create::storage::STORAGE_DIR)
                .join(format!("shard-{s}"));
            let segments: Vec<std::path::PathBuf> = std::fs::read_dir(&shard)
                .expect("shard directory")
                .map(|entry| entry.expect("directory entry").path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
                .collect();
            assert_eq!(segments.len(), 1, "shard {s} holds {segments:?}");
            format!(
                "{:016x}",
                fnv1a64(&std::fs::read(&segments[0]).expect("segment file"))
            )
        })
        .collect()
}

/// A compaction rewrites a shard's segments into the file one seal of the
/// same documents writes: the 300-report corpus of
/// `every_route_into_a_shard_seals_the_same_segment_bytes`, ingested in
/// four batches with a flush after each (the fourth flush reaches
/// `COMPACT_SEGMENT_THRESHOLD` and compacts), leaves that test's
/// single-seal digests (re-pinned with them for formats 4 and 5 and for
/// the payload without its BRAT copy, unchanged here: the merge copies
/// each posting's bytes after its doc gap as they are, positions or
/// none, and writes in one pass what one seal writes). The splits put a
/// 128-posting skip boundary inside a later input (100/100/50/50) and
/// make the last input one document per shard.
#[test]
fn a_compacted_shard_holds_the_single_seal_bytes() {
    /// Shard count, the per-shard digests, the batch splits.
    type Case = (usize, &'static [&'static str], &'static [&'static [usize]]);
    const EXPECTED: [Case; 2] = [
        (
            1,
            &["0176be81d9698bc0"],
            &[&[200, 40, 30, 30], &[100, 100, 50, 50], &[200, 60, 39, 1]],
        ),
        (
            2,
            &["531a47b16cf9c087", "ffba45193e900ea8"],
            &[&[200, 40, 30, 30], &[100, 100, 50, 50], &[200, 60, 38, 2]],
        ),
    ];
    let reports = corpus(300, 20261002);
    for (shards, expected, splits) in EXPECTED {
        for split in splits {
            let dir = std::env::temp_dir().join(format!(
                "create-compacted-{}-{shards}-{}",
                std::process::id(),
                split[0]
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = CreateConfig { shards };
            let system = Create::open(&dir, config).expect("open");
            let mut from = 0;
            for &len in split.iter() {
                system
                    .ingest_gold_batch(&reports[from..from + len], 2)
                    .expect("batch ingest");
                system.flush().expect("flush");
                from += len;
            }
            assert_eq!(from, reports.len());
            assert_eq!(
                only_segment_digests(&dir, shards),
                expected,
                "{shards} shards, split {split:?}"
            );
            drop(system);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
