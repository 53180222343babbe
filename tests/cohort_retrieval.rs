//! Cohort retrieval end to end: gold precision/recall, shard
//! invariance, plan equivalence, staging/coding facets, and mixed
//! segment-format migration.
//!
//! The gold workload ([`create::corpus::gold_cohorts`]) pairs each
//! criteria query with an **independent** evaluator over the corpus's
//! gold labels. The engine answers the same criteria from its facet
//! bitmaps and property graph — so set agreement here is the paper-style
//! retrieval experiment for cohort queries, measured exactly:
//!
//! * **Precision/recall = 1.0** against the gold evaluator (the specs
//!   are keyword-free with `k` above every cohort size, so the engine's
//!   eligible set must *equal* the gold set — no ranking slack);
//! * **Bit-identical across shard counts** {1, 2, 4, 7} and between the
//!   `Optimized` (bitmap pushdown) and `Naive` (rank-then-filter)
//!   physical plans — sharding and plan choice are invisible;
//! * **Staging/coding cohorts** answer from the rule extractors' `tnm`
//!   and `icd` facets on crafted texts;
//! * **Sealed segments** reopen and answer cohorts from their decoded
//!   facet regions identically to an in-memory reference.

use create::core::{Create, CreateConfig, PlanMode};
use create::corpus::{gold_cohorts, CaseReport, CorpusConfig, Generator};
use create::docstore::json::parse_json;
use create::ontology::clinical_ontology;
use create::server::{build_api, Request, Status};
use create::storage::Manifest;
use std::path::PathBuf;

const N_DOCS: usize = 120;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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
    system.ingest_gold_batch(reports, 0).expect("ingest");
    assert_eq!(
        system.facet_stats().docs,
        reports.len(),
        "facet bitmaps cover every ingested document at {shards} shard(s)"
    );
    system
}

/// Runs a criteria-JSON string and returns the full rendered result —
/// hit ids, raw score bits via the JSON float rendering, total, facet
/// counts — as the comparison unit for every equivalence check.
fn cohort_body(system: &Create, criteria: &str) -> String {
    let json = parse_json(criteria).expect("criteria parses");
    system
        .cohort_from_json(&json)
        .expect("criteria accepted")
        .to_json()
        .to_json()
}

fn hit_ids(system: &Create, criteria: &str) -> Vec<String> {
    let json = parse_json(criteria).expect("criteria parses");
    system
        .cohort_from_json(&json)
        .expect("criteria accepted")
        .hits
        .into_iter()
        .map(|h| h.report_id)
        .collect()
}

#[test]
fn gold_cohorts_are_retrieved_with_perfect_precision_and_recall() {
    let reports = corpus(N_DOCS, 20260815);
    let ontology = clinical_ontology();
    let system = sharded(&reports, 2);

    let mut nonempty = 0usize;
    for spec in gold_cohorts() {
        let gold = {
            let mut ids = spec.expected_ids(&reports, &ontology);
            ids.sort();
            ids
        };
        let json = parse_json(&spec.criteria_json()).expect("criteria parses");
        let result = system.cohort_from_json(&json).expect("criteria accepted");
        let engine = {
            let mut ids: Vec<String> = result.hits.iter().map(|h| h.report_id.clone()).collect();
            ids.sort();
            ids
        };
        // The specs are keyword-free with k above every cohort size, so
        // the retrieved set must equal the gold set: any false positive
        // is a precision miss, any dropped report a recall miss.
        assert_eq!(
            engine, gold,
            "{}: engine cohort disagrees with gold evaluation",
            spec.name
        );
        assert_eq!(
            result.total_matched,
            gold.len() as u64,
            "{}: totalMatched must count the whole cohort",
            spec.name
        );
        if !gold.is_empty() {
            nonempty += 1;
        }
        // Facet aggregations count only matched reports: no value's
        // count may exceed the cohort size, and a facet that covers
        // every report (category, year) partitions it exactly.
        for fc in &result.facets {
            let sum: u64 = fc.counts.iter().map(|(_, c)| c).sum();
            assert!(
                sum <= result.total_matched,
                "{}: facet {} counted {sum} > {} matched",
                spec.name,
                fc.field.label(),
                result.total_matched
            );
            if matches!(fc.field.label(), "category" | "year") {
                assert_eq!(
                    sum,
                    result.total_matched,
                    "{}: {} must partition the cohort",
                    spec.name,
                    fc.field.label()
                );
            }
        }
    }
    assert!(
        nonempty >= 10,
        "only {nonempty} gold cohorts matched — the experiment lost its teeth"
    );
}

#[test]
fn cohort_results_are_bit_identical_across_shard_counts() {
    let reports = corpus(N_DOCS, 20260816);
    // The gold specs (keyword-free) plus keyword-bearing criteria, so
    // shard invariance covers both the ordinal-ordered and the
    // score-ranked merge paths.
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
    // Keyword-only: no filter or temporal node, so the keyword leg ranks
    // over every document.
    panel.push(r#"{"keywords":"fever and cough","k":10}"#.to_string());

    let baseline = sharded(&reports, 1);
    let expected: Vec<String> = panel.iter().map(|c| cohort_body(&baseline, c)).collect();
    // The baseline itself is pinned: this FNV-1a digest of its bodies was
    // computed at commit 5881757, before `/search` and `/cohort` shared
    // one executor.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in expected.iter().flat_map(|body| body.as_bytes()) {
        digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        digest, 0xe6de_ef8a_4547_44f3,
        "one-shard cohort bodies digest to {digest:#018x}"
    );
    for &shards in &SHARD_COUNTS[1..] {
        let system = sharded(&reports, shards);
        for (criteria, want) in panel.iter().zip(&expected) {
            assert_eq!(
                &cohort_body(&system, criteria),
                want,
                "cohort diverged at {shards} shards for {criteria}"
            );
        }
    }

    // The same reports in seeded random batch sizes: every batch freezes
    // as one more segment, so the filters and facet counts read several
    // segments' bitmaps per shard and must still give the one-batch
    // bodies.
    const SEED: u64 = 0xC0_4081_7E57;
    println!("batch-size seed {SEED:#x}");
    let mut state = SEED;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below) as usize
    };
    for &shards in &SHARD_COUNTS {
        let system = Create::new(CreateConfig { shards });
        let mut at = 0;
        while at < reports.len() {
            let n = (1 + next(16)).min(reports.len() - at);
            system
                .ingest_gold_batch(&reports[at..at + n], 0)
                .expect("ingest");
            at += n;
        }
        let segments = system.shard_segments();
        assert!(
            segments.iter().any(|s| s.ram >= 2),
            "no shard holds two segments at {shards} shard(s): {segments:?}"
        );
        for (criteria, want) in panel.iter().zip(&expected) {
            assert_eq!(
                &cohort_body(&system, criteria),
                want,
                "cohort diverged at {shards} shards in random batches for {criteria}"
            );
        }
    }
}

#[test]
fn optimized_and_naive_plans_return_identical_results() {
    let reports = corpus(N_DOCS, 20260817);
    let ontology = clinical_ontology();
    let mut panel: Vec<String> = gold_cohorts().iter().map(|s| s.criteria_json()).collect();
    panel.push(
        r#"{"filters":[{"field":"category","values":["infectious"]}],
            "keywords":"fever and malaise","facets":["sex"],"k":8}"#
            .to_string(),
    );
    panel.push(r#"{"keywords":"fever and cough","k":10}"#.to_string());

    for &shards in &[1usize, 4] {
        let system = sharded(&reports, shards);
        for criteria in &panel {
            let json = parse_json(criteria).unwrap();
            let parsed =
                create::core::plan::parse_cohort_criteria(&json, &ontology).expect("criteria");
            let optimized = system.cohort_with_mode(&parsed, PlanMode::Optimized);
            let naive = system.cohort_with_mode(&parsed, PlanMode::Naive);
            assert_eq!(
                optimized.to_json().to_json(),
                naive.to_json().to_json(),
                "pushdown changed answers at {shards} shards for {criteria}"
            );
        }
    }
}

/// `/cohort` passes `k` through unclamped (the gold specs ask for 2000
/// to get every match), so a hostile `k` must cost no more than the
/// corpus: at `5881757` these requests aborted the process on a
/// `k`-sized reservation.
#[test]
fn hostile_k_answers_like_k_equal_to_the_doc_count() {
    let reports = corpus(N_DOCS, 20260820);
    for shards in [1usize, 2] {
        let api = build_api(std::sync::Arc::new(sharded(&reports, shards)));
        let cohort = |criteria: String| {
            let resp = api.dispatch(&Request {
                method: "POST".to_string(),
                path: "/cohort".to_string(),
                query: Default::default(),
                headers: Default::default(),
                body: criteria.into_bytes(),
            });
            assert_eq!(
                resp.status,
                Status::Ok,
                "{}",
                String::from_utf8_lossy(&resp.body)
            );
            resp.body
        };
        for (criteria, hostile) in [
            (
                r#"{"filters":[{"field":"sex","values":["female"]}],"keywords":"fever","k":K}"#,
                "1000000000000",
            ),
            (
                r#"{"filters":[{"field":"sex","values":["female"]}],"keywords":"fever","k":K}"#,
                "9223372036854775807",
            ),
            (r#"{"keywords":"fever","k":K}"#, "1000000000000"),
            (
                r#"{"filters":[{"field":"sex","values":["female"]}],"k":K}"#,
                "1000000000000",
            ),
        ] {
            let want = cohort(criteria.replace('K', &N_DOCS.to_string()));
            assert_eq!(
                cohort(criteria.replace('K', hostile)),
                want,
                "{criteria} with k={hostile} at {shards} shard(s)"
            );
        }
    }
}

#[test]
fn staging_and_coding_facets_answer_cohorts() {
    // Plant staging/coding strings in report bodies: the `tnm`/`icd`
    // facets are rule-extracted from text at ingest, so these cohorts
    // exercise the extractor → bitmap → pushdown chain end to end.
    let mut reports = corpus(12, 20260818);
    for r in &mut reports[0..3] {
        r.text
            .push_str(" Staging was pT2N0M0; the tumor was coded C50.9.");
    }
    for r in &mut reports[3..5] {
        r.text.push_str(" Staging was pT4N1M1, coded as J18.9.");
    }
    let expect = |range: std::ops::Range<usize>| -> Vec<String> {
        let mut ids: Vec<String> = reports[range].iter().map(|r| r.id.clone()).collect();
        ids.sort();
        ids
    };
    let system = sharded(&reports, 2);

    let cases = [
        (
            r#"{"filters":[{"field":"tnm","values":["T2"]}],"k":100}"#,
            expect(0..3),
        ),
        (
            r#"{"filters":[{"field":"icd","values":["C50.9"]}],"k":100}"#,
            expect(0..3),
        ),
        (
            r#"{"filters":[{"field":"tnm","values":["T4"]}],"k":100}"#,
            expect(3..5),
        ),
        (
            r#"{"filters":[{"field":"icd","values":["J18.9"]}],"k":100}"#,
            expect(3..5),
        ),
        (
            r#"{"filters":[{"field":"tnm","values":["N0"]},{"field":"icd","values":["C50.9"]}],"k":100}"#,
            expect(0..3),
        ),
        (
            r#"{"filters":[{"field":"tnm","values":["M1"]},{"field":"icd","values":["C50.9"]}],"k":100}"#,
            vec![],
        ),
    ];
    for (criteria, want) in cases {
        let mut got = hit_ids(&system, criteria);
        got.sort();
        assert_eq!(got, want, "criteria {criteria}");
    }

    // The staging facet aggregates over a staged sub-cohort.
    let body = cohort_body(
        &system,
        r#"{"filters":[{"field":"entity_type","values":["Sign_symptom"]}],"facets":["tnm"],"k":100}"#,
    );
    let doc = parse_json(&body).unwrap();
    let facets = doc.get("facets").unwrap().as_array().unwrap();
    let counts = facets[0].get("counts").unwrap().as_array().unwrap();
    assert!(
        counts
            .iter()
            .any(|c| { c.get("value").and_then(create::docstore::Value::as_str) == Some("T2") }),
        "tnm facet counts surface the planted staging: {body}"
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "create-cohort-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Both segments are in the one format written and read: the name dates
/// from the format-2 segment this directory once mixed in, and is what
/// the test lists know this test by.
#[test]
fn mixed_format_segments_reopen_and_answer_cohorts() {
    let reports = corpus(40, 20260819);
    let dir = fresh_dir("migrate");
    // Single shard: both segments land in shard-0.
    let config = CreateConfig { shards: 1 };

    // Seal two segments, then crash without a shutdown flush.
    {
        let system = Create::open(&dir, config.clone()).expect("open");
        for r in &reports[..20] {
            system.ingest_gold(r).expect("ingest");
        }
        system.flush().expect("first seal");
        for r in &reports[20..] {
            system.ingest_gold(r).expect("ingest");
        }
        system.flush().expect("second seal");
    }

    let manifest = Manifest::load(&dir.join(create::storage::STORAGE_DIR))
        .expect("manifest readable")
        .expect("manifest present");
    assert!(
        manifest.shards[0].segments.len() >= 2,
        "two flushes seal two segments"
    );

    // Reopen: both segments' facets are decoded from their facet
    // regions — the only place they are read back — and every cohort
    // answer is bit-identical to an in-memory reference.
    let reopened = Create::open(&dir, config).expect("reopen");
    assert_eq!(reopened.stats().reports, reports.len(), "no document lost");
    let reference = sharded(&reports, 1);
    let mut panel: Vec<String> = gold_cohorts().iter().map(|s| s.criteria_json()).collect();
    panel.push(
        r#"{"filters":[{"field":"sex","values":["female"]}],
            "keywords":"fatigue","facets":["category"],"k":10}"#
            .to_string(),
    );
    for criteria in &panel {
        assert_eq!(
            cohort_body(&reopened, criteria),
            cohort_body(&reference, criteria),
            "reopened data dir diverged for {criteria}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
