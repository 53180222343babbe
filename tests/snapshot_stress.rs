//! Stress test for snapshot-isolated reads.
//!
//! A writer thread batch-ingests the corpus one chunk at a time while
//! reader threads hammer a fixed query panel. Every result set a reader
//! observes must be *bit-identical* to what a quiescent system at exactly
//! one generation would return — a ranking mixing graph hits from one
//! generation with keyword hits from another (a torn read) matches no
//! generation and fails the test. Readers also check that the generations
//! they observe never roll backwards, a separate test pins the cache
//! contract: entries stamped with an old snapshot's generation survive the
//! publish itself but die (as misses) on first touch afterwards, a
//! third shows that every read API finishes while the write lock is
//! held and an ingest waits for it, and a fourth that a snapshot pinned across a
//! freeze, a tier merge and a compaction answers as it did when pinned.
//! A fifth pins a snapshot across the flushes that compact its segment
//! file away: the snapshot reads every stored body from the swept file
//! through the descriptor it holds, and dropping it closes that file.

use create::core::plan::parse_cohort_criteria;
use create::core::{Create, CreateConfig, MergePolicy, Snapshot};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BATCHES: usize = 5;
const PER_BATCH: usize = 16;
const READERS: usize = 4;
const K: usize = 10;

/// Rankings are compared at the bit level: report id + raw score bits.
type Ranking = Vec<(String, u64)>;

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

/// The generation arithmetic below (one bump per batch) assumes one
/// shard, whatever the host's core count.
fn single_shard() -> CreateConfig {
    CreateConfig { shards: 1 }
}

fn ranking(system: &Create, query: &str) -> Ranking {
    system
        .search(query, K)
        .into_iter()
        .map(|h| (h.report_id, h.score.to_bits()))
        .collect()
}

#[test]
fn concurrent_readers_never_observe_torn_results() {
    let reports = corpus(BATCHES * PER_BATCH, 20260806);
    let queries: Vec<String> = QuerySet::generate(&reports, 77, 6)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();

    // Reference pass: replay the exact batch schedule on a quiescent
    // system and record the expected rankings at every generation.
    // `expected[g][qi]` is the panel's ranking with g batches applied.
    let reference = Create::new(single_shard());
    let mut expected: Vec<Vec<Ranking>> = Vec::with_capacity(BATCHES + 1);
    expected.push(queries.iter().map(|q| ranking(&reference, q)).collect());
    for (i, batch) in reports.chunks(PER_BATCH).enumerate() {
        reference
            .ingest_gold_batch(batch, 0)
            .expect("reference ingest");
        assert_eq!(
            reference.cache_stats().generation,
            (i + 1) as u64,
            "each batch publishes exactly one generation"
        );
        expected.push(queries.iter().map(|q| ranking(&reference, q)).collect());
    }

    // Live pass: one writer applying the same schedule, READERS threads
    // searching concurrently against whatever snapshot is current.
    let system = Arc::new(Create::new(single_shard()));
    let done = Arc::new(AtomicBool::new(false));
    let expected = Arc::new(expected);
    let queries = Arc::new(queries);

    let mut handles = Vec::new();
    for reader in 0..READERS {
        let system = Arc::clone(&system);
        let done = Arc::clone(&done);
        let expected = Arc::clone(&expected);
        let queries = Arc::clone(&queries);
        handles.push(std::thread::spawn(move || {
            // Lower bound on the generation this reader has proven it saw,
            // per query; observed generations must never roll backwards.
            let mut floor = vec![0usize; queries.len()];
            loop {
                let finished = done.load(Ordering::SeqCst);
                for (qi, query) in queries.iter().enumerate() {
                    let got = ranking(&system, query);
                    let matches: Vec<usize> = (0..expected.len())
                        .filter(|&g| expected[g][qi] == got)
                        .collect();
                    assert!(
                        !matches.is_empty(),
                        "reader {reader} observed a ranking for {query:?} that matches \
                         no single generation — torn read: {got:?}"
                    );
                    let candidate = matches.iter().copied().find(|&g| g >= floor[qi]);
                    let Some(g) = candidate else {
                        panic!(
                            "reader {reader} observed {query:?} roll back below \
                             generation {} (matches: {matches:?})",
                            floor[qi]
                        );
                    };
                    floor[qi] = g;
                }
                if finished {
                    break;
                }
            }
        }));
    }

    let writer = {
        let system = Arc::clone(&system);
        let done = Arc::clone(&done);
        let reports = reports.clone();
        std::thread::spawn(move || {
            for batch in reports.chunks(PER_BATCH) {
                system.ingest_gold_batch(batch, 2).expect("live ingest");
                // Give readers a window to observe this generation.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    writer.join().expect("writer thread");
    for handle in handles {
        handle.join().expect("reader thread");
    }

    // Every batch of both passes went through the timed publish.
    let publishes = create::obs::histogram(create::obs::names::SNAPSHOT_PUBLISH_SECONDS).count();
    assert!(
        publishes >= 2 * BATCHES as u64,
        "publish histogram holds {publishes} observations for {} batches",
        2 * BATCHES
    );

    // The fully-ingested live system converges on the reference.
    assert_eq!(system.cache_stats().generation, BATCHES as u64);
    for (qi, query) in queries.iter().enumerate() {
        assert_eq!(
            ranking(&system, query),
            expected[BATCHES][qi],
            "final ranking for {query:?} diverged from the quiescent reference"
        );
    }
}

#[test]
fn stale_cache_entries_die_on_first_touch_after_publish() {
    let reports = corpus(30, 99);
    let system = Create::new(single_shard());
    system
        .ingest_gold_batch(&reports[..20], 0)
        .expect("initial ingest");

    let query = "fever cough";
    let cold = ranking(&system, query); // computed + cached
    let warm = ranking(&system, query); // served from cache
    assert_eq!(cold, warm);
    let before = system.cache_stats();
    assert_eq!(before.hits, 1);
    assert_eq!(before.misses, 1);
    assert_eq!(before.entries, 1);

    // Publishing a new snapshot does not eagerly sweep the cache…
    system
        .ingest_gold_batch(&reports[20..], 0)
        .expect("second ingest");
    let published = system.cache_stats();
    assert_eq!(published.generation, before.generation + 1);
    assert_eq!(
        published.entries, 1,
        "publish leaves stale entries in place; they die lazily"
    );
    assert_eq!(
        (published.hits, published.misses),
        (before.hits, before.misses)
    );

    // …the stale entry dies on its first touch: a miss, replaced in
    // place (no duplicate entry for the same key).
    let _ = ranking(&system, query);
    let touched = system.cache_stats();
    assert_eq!(
        touched.misses,
        published.misses + 1,
        "stale entry is a miss"
    );
    assert_eq!(
        touched.hits, published.hits,
        "stale entry never serves a hit"
    );
    assert_eq!(touched.entries, 1, "stale entry replaced, not duplicated");

    // The refreshed entry is live again at the new generation.
    let _ = ranking(&system, query);
    let refreshed = system.cache_stats();
    assert_eq!(refreshed.hits, touched.hits + 1);
    assert_eq!(refreshed.misses, touched.misses);
}

#[test]
fn a_read_completes_while_a_write_operation_is_open() {
    let reports = corpus(24, 99);
    let (reports, more) = reports.split_at(20);
    let dir = std::env::temp_dir().join(format!("create-read-under-write-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let system = Arc::new(Create::open(&dir, CreateConfig { shards: 2 }).expect("open"));
    system.ingest_gold_batch(reports, 0).expect("ingest");
    system.flush().expect("flush");
    let expected = ranking(&system, "fever cough");
    let id = reports[0].id.clone();
    let criteria = create::docstore::json::parse_json(
        r#"{"filters": [{"field": "sex", "values": ["female", "male"]}], "k": 5}"#,
    )
    .expect("criteria parse");

    // The test holds the one write lock, as an ingest does from start to
    // publish; an ingest started meanwhile waits for it.
    let held = system.hold_write_lock();
    let writer = {
        let (system, more) = (Arc::clone(&system), more.to_vec());
        std::thread::spawn(move || system.ingest_gold_batch(&more, 2))
    };
    let (sender, receiver) = std::sync::mpsc::channel();
    let reader = {
        let system = Arc::clone(&system);
        std::thread::spawn(move || {
            // Every read API, each against the published snapshot (or,
            // for `storage_stats`, the manifest): one search answered
            // from the cache, one computed.
            let lookups = (
                ranking(&system, "fever cough"),
                ranking(&system, "chest pain"),
                system.cohort_from_json(&criteria).map(|c| c.total_matched),
                system.report(&id).unwrap().is_some(),
                system.annotations(&id).unwrap().is_some(),
                system.visualize(&id).unwrap().is_some(),
            );
            let counters = (
                system.stats().reports,
                system.memory_stats().postings_bytes,
                system.storage_stats().map(|s| s.segments),
                (system.cache_stats().generation, system.facet_stats().docs),
                (system.shard_generations(), system.shard_count()),
            );
            let reads = (lookups, counters);
            sender.send(reads).expect("test thread is waiting");
        })
    };
    // A read that waited for the writer would never send: fail, not hang.
    let reads = receiver
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a read blocked on an open write operation");
    let (cached, computed, cohort, report, annotations, svg) = reads.0;
    let (reports, postings, segments, counts, shards) = reads.1;
    assert!(!writer.is_finished(), "the ingest waited for the lock");
    drop(held);
    reader.join().expect("reader thread");
    let ingested = writer.join().expect("writer thread");
    assert_eq!(ingested.expect("the ingest lands"), more.len());
    assert_eq!(system.stats().reports, 24);
    assert_eq!(cached, expected);
    assert!(!computed.is_empty(), "the uncached search ran both engines");
    assert!(
        cohort.expect("cohort criteria parse") > 0,
        "the cohort matched nothing"
    );
    assert!(report && annotations && svg, "the report's three lookups");
    assert_eq!(reports, 20);
    assert!(postings > 0);
    assert!(segments.expect("disk-backed") > 0);
    let (generation, faceted) = counts;
    assert_eq!(faceted, 20);
    let (generations, shard_count) = shards;
    assert_eq!((generations.len(), shard_count), (2, 2));
    assert_eq!(generation, generations.iter().sum::<u64>());
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a snapshot answers: `/search` bodies under every policy,
/// `/cohort` bodies, and the stored report of every id in `ids`.
type Answers = (Vec<String>, Vec<String>, Vec<Option<String>>);

/// A snapshot pinned before a flush keeps answering its generation
/// bit-exactly while the writer freezes the tail the snapshot still
/// holds, merges it with the frozen segment before it, writes on, and
/// compacts the files beneath: a freeze moves a pointer and a merge
/// builds a new segment, neither touches a segment a reader holds.
#[test]
fn a_pinned_reader_is_untouched_by_a_freeze_a_merge_and_a_compaction() {
    let reports = corpus(40, 20261016);
    let dir = std::env::temp_dir().join(format!("create-pinned-reader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let system = Create::open(&dir, single_shard()).expect("open");
    // One sealed batch, and an unsealed one of the same size: two
    // worker segments of four, which the tier rule merges into one.
    system.ingest_gold_batch(&reports[..8], 0).expect("ingest");
    system.flush().expect("flush");
    system
        .ingest_gold_batch(&reports[8..16], 2)
        .expect("ingest");
    let pinned = system.snapshot();
    let held: Vec<&str> = reports[..16].iter().map(|r| r.id.as_str()).collect();

    let queries: Vec<String> = QuerySet::generate(&reports[..16], 78, 6)
        .queries
        .into_iter()
        .map(|q| q.text)
        .chain(["fever cough".to_string()])
        .collect();
    let ontology = system.ontology();
    let criteria: Vec<_> = [
        r#"{"filters":[{"field":"sex","values":["female","male"]}],"facets":["year"],"k":20}"#,
        r#"{"keywords":"fever and cough","facets":["category"],"k":5}"#,
        r#"{"keywords":"fever","temporal":[{"a":"fever","op":"within","days":600,"b":"malaise"}],"k":5}"#,
    ]
    .iter()
    .map(|json| {
        let json = create::docstore::json::parse_json(json).expect("criteria parse");
        parse_cohort_criteria(&json, &ontology).expect("criteria accepted")
    })
    .collect();
    let answers = |snapshot: &Snapshot| -> Answers {
        let policies = [
            MergePolicy::Neo4jFirst,
            MergePolicy::EsFirst,
            MergePolicy::EsOnly,
            MergePolicy::GraphOnly,
            MergePolicy::Interleave,
        ];
        let searches = queries
            .iter()
            .flat_map(|q| policies.map(|policy| (q, policy)))
            .map(|(q, policy)| {
                system
                    .search_against(snapshot, q, K, policy)
                    .body()
                    .to_string()
            })
            .collect();
        let cohorts = criteria
            .iter()
            .map(|c| snapshot.cohort(c).to_json().to_json())
            .collect();
        let stored = held
            .iter()
            .map(|id| snapshot.report(id).unwrap().map(|r| r.to_json()))
            .collect();
        (searches, cohorts, stored)
    };
    let pinned_answers = answers(&pinned);
    assert!(
        pinned_answers.2.iter().all(Option::is_some),
        "the pin holds every id"
    );
    assert_eq!(
        pinned.index().segment_count(),
        2,
        "the sealed segment and the unsealed one beside it"
    );

    // The flush seals the unsealed segment the pin holds, and the tier
    // rule merges it with the equal-sized segment before it.
    system.flush().expect("flush");
    let mut next = 16;
    let compacted = loop {
        system
            .ingest_gold_batch(&reports[next..next + 2], 0)
            .expect("ingest");
        next += 2;
        if next == 18 {
            let ram = system.shard_segments()[0].ram;
            assert_eq!(
                ram, 2,
                "the two 8-document segments merged, beside the new batch's"
            );
        }
        system.flush().expect("flush");
        let files = system.storage_stats().expect("disk-backed").segments;
        if files == 1 || next + 2 > reports.len() {
            break files == 1;
        }
    };
    assert!(compacted, "a flush compacted the shard's files");
    assert!(
        answers(&pinned) == pinned_answers,
        "the pinned snapshot's answers moved under a freeze, a merge or a compaction"
    );
    // The live system sees the later documents too.
    assert_eq!(system.stats().reports, next);
    drop(pinned);
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}

/// This process's open descriptors on deleted `seg-*.seg` files under
/// `dir`, as `/proc/self/fd` lists them.
fn deleted_segments_open_under(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| {
            target.starts_with(&*dir.to_string_lossy())
                && target.contains("/seg-")
                && target.ends_with(".seg (deleted)")
        })
        .collect()
}

/// A snapshot pinned before the flushes that compact its segment file
/// away reads every report and annotation body, byte for byte, from the
/// swept file it still holds open; once it drops, no descriptor on a
/// deleted segment file is left.
#[test]
fn a_pinned_snapshot_reads_its_compacted_away_file_then_lets_it_go() {
    let reports = corpus(30, 20261017);
    let dir = std::env::temp_dir().join(format!("create-pinned-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let system = Create::open(&dir, single_shard()).expect("open");
    system.ingest_gold_batch(&reports[..12], 0).expect("ingest");
    system.flush().expect("flush");
    // Two unsealed documents beside the sealed ones: the pin holds both
    // halves of the payload column.
    system
        .ingest_gold_batch(&reports[12..14], 0)
        .expect("ingest");
    let pinned = system.snapshot();
    let bodies = |snapshot: &Snapshot| -> Vec<(String, String)> {
        reports[..14]
            .iter()
            .map(|r| {
                let report = snapshot.report(&r.id).expect("reads back");
                let ann = snapshot.annotations(&r.id).expect("reads back");
                (
                    report.expect("stored").to_json(),
                    ann.expect("annotated").serialize(),
                )
            })
            .collect()
    };
    let pinned_bodies = bodies(&pinned);
    let mut next = 14;
    loop {
        system.flush().expect("flush");
        assert!(
            bodies(&pinned) == pinned_bodies,
            "the pinned bodies moved after the flush at {next} reports"
        );
        if system.storage_stats().expect("disk-backed").segments == 1 && next > 14 {
            break;
        }
        assert!(next + 2 <= reports.len(), "no flush compacted the shard");
        system
            .ingest_gold_batch(&reports[next..next + 2], 0)
            .expect("ingest");
        next += 2;
    }
    assert!(
        !deleted_segments_open_under(&dir).is_empty(),
        "the pin holds the compacted-away files open"
    );
    assert_eq!(bodies(&system.snapshot()), pinned_bodies);
    drop(pinned);
    assert_eq!(
        deleted_segments_open_under(&dir),
        Vec::<String>::new(),
        "a deleted segment file is still open once the pin dropped"
    );
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}
