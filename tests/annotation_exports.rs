//! A report's annotations are stored once, as its extraction, and
//! `GET /reports/:id/annotations` renders the BRAT export from it.
//!
//! For a seeded gold corpus on two shards, every report's export body is
//! byte-equal to `case_report_to_brat(report).serialize()` — the export
//! the gold annotations define — in every state a report's payload can
//! be read from: an in-memory instance, a disk-backed one's WAL tail,
//! segment files sealed by a flush, the file a compaction wrote, and a
//! reopened instance. What is on disk holds no second copy: every
//! segment payload's members are exactly `extraction` and `report`, and
//! every WAL record's `extraction`, `ordinal`, `report` and `t`.

use create::annotate::case_report_to_brat;
use create::core::{Create, CreateConfig};
use create::corpus::{CaseReport, CorpusConfig, Generator};
use create::docstore::json::object_members;
use create::server::{build_api, Request, Router, Status};
use create::storage::segment::read_segment;
use create::storage::{Wal, STORAGE_DIR, WAL_FILE};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 2;
/// Ingested in these batches; each of the first four is flushed, and the
/// fourth flush compacts every shard's four segments into one.
const BATCHES: [usize; 5] = [100, 50, 50, 50, 50];

fn corpus() -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: BATCHES.iter().sum(),
        seed: 20261017,
        ..Default::default()
    })
    .generate()
}

fn config() -> CreateConfig {
    CreateConfig { shards: SHARDS }
}

/// Every report's `/reports/:id/annotations` body must be the gold
/// export, byte for byte.
fn assert_gold_exports(system: Create, reports: &[CaseReport], state: &str) -> Create {
    let system = Arc::new(system);
    let api: Router = build_api(Arc::clone(&system));
    for report in reports {
        let request = Request {
            method: "GET".to_string(),
            path: format!("/reports/{}/annotations", report.id),
            query: Default::default(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let response = api.dispatch(&request);
        assert_eq!(response.status, Status::Ok, "{state}: {}", report.id);
        let body = String::from_utf8(response.body).expect("UTF-8");
        assert!(
            body == case_report_to_brat(report).serialize(),
            "{state}: {}'s export is not the gold export:\n{body}",
            report.id
        );
    }
    drop(api);
    Arc::into_inner(system).expect("the router released the system")
}

/// The sorted member keys of a serialized JSON object.
fn member_keys(text: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(text).expect("UTF-8");
    let mut keys: Vec<String> = object_members(text, |_| false)
        .expect("a JSON object")
        .into_iter()
        .map(|member| member.key)
        .collect();
    keys.sort();
    keys
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(STORAGE_DIR).join(format!("shard-{shard}"))
}

/// Every payload of every segment file: members `extraction` and
/// `report`, nothing else. Returns the number of payloads read.
fn check_segment_payloads(dir: &Path) -> usize {
    let mut payloads = 0;
    for shard in 0..SHARDS {
        let entries = std::fs::read_dir(shard_dir(dir, shard)).expect("shard directory");
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|ext| ext != "seg") {
                continue;
            }
            for doc in read_segment(&path).expect("read segment").docs {
                assert_eq!(
                    member_keys(&doc.payload),
                    ["extraction", "report"],
                    "{}: {}",
                    path.display(),
                    doc.id
                );
                payloads += 1;
            }
        }
    }
    payloads
}

/// Every record of every shard's WAL: members `extraction`, `ordinal`,
/// `report` and `t`, nothing else. Returns the number of records read.
fn check_wal_records(dir: &Path) -> usize {
    let mut records = 0;
    for shard in 0..SHARDS {
        let (_, replay) = Wal::open(shard_dir(dir, shard).join(WAL_FILE)).expect("open WAL");
        for record in &replay.records {
            assert_eq!(
                member_keys(record),
                ["extraction", "ordinal", "report", "t"],
                "shard {shard}'s WAL"
            );
        }
        records += replay.records.len();
    }
    records
}

#[test]
fn every_stored_state_serves_the_gold_export() {
    let reports = corpus();
    assert!(
        reports
            .iter()
            .any(|r| r.relations.iter().any(|rel| !rel.rtype.is_temporal())),
        "the corpus has non-temporal relations, which the export keeps"
    );

    let memory = Create::new(config());
    memory.ingest_gold_batch(&reports, 0).expect("ingest");
    assert_gold_exports(memory, &reports, "in memory");

    let dir = std::env::temp_dir().join(format!("create-exports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut system = Create::open(&dir, config()).expect("open");
    let mut from = 0;
    for (batch, &len) in BATCHES.iter().enumerate() {
        let ingested = &reports[..from + len];
        system
            .ingest_gold_batch(&reports[from..from + len], 0)
            .expect("ingest");
        from += len;
        system = assert_gold_exports(system, ingested, &format!("batch {batch}, WAL tail"));
        if batch + 1 == BATCHES.len() {
            break;
        }
        system.flush().expect("flush");
        let state = if batch == 3 {
            let stats = system.storage_stats().expect("disk-backed");
            assert_eq!(stats.segments, SHARDS, "the fourth flush compacted");
            "compaction"
        } else {
            "flush"
        };
        system = assert_gold_exports(system, ingested, &format!("batch {batch}, {state}"));
        assert_eq!(check_segment_payloads(&dir), ingested.len());
    }
    drop(system);
    assert_eq!(check_wal_records(&dir), BATCHES[4], "the unflushed batch");

    let reopened = Create::open(&dir, config()).expect("reopen");
    assert_eq!(reopened.stats().reports, reports.len());
    drop(assert_gold_exports(reopened, &reports, "reopen"));
    assert_eq!(check_segment_payloads(&dir), reports.len());
    let _ = std::fs::remove_dir_all(&dir);
}
