//! Kill-and-reopen durability: acknowledged writes survive a crash.
//!
//! Each scenario ingests a seeded corpus into a disk-backed platform,
//! flushes mid-stream (so part of the corpus is segment-durable and the
//! rest lives only in the WAL), then drops the system without any
//! shutdown flush — the moral equivalent of SIGKILL, since nothing is
//! persisted on drop. Reopening must recover every acknowledged write
//! and produce rankings that are **bit-identical** (report id + raw
//! score bits) to a never-crashed in-memory reference, at shard counts
//! {1, 2, 4}.
//!
//! Torn-tail scenarios then vandalise the WAL the way a power cut
//! would — truncating mid-frame or flipping a payload byte at seeded
//! offsets — and assert recovery truncates at the damage point: every
//! record before it survives, nothing after it does, and the reopened
//! system is indistinguishable from one that only ever saw the
//! surviving prefix.
//!
//! The stored documents are held to the same standard as the rankings:
//! `report(id)` and `annotations(id)` come back byte-equal from sealed
//! segments and WAL tail alike — `storage/` is the only copy on disk —
//! and a PDF submission keeps its extracted metadata either way.
//!
//! What recovery cannot read it refuses: a WAL record whose frame is
//! intact but whose content does not read back (an extraction that does
//! not deserialize, a negative ordinal, an unknown record type, a
//! missing member — its report or its extraction — a report without its
//! category or with a year that is not a `u32`), the retired `update`
//! record, a format-2, -3 or -4 segment header, a segment payload
//! without its extraction, a segment whose directory, postings and
//! payloads disagree on a document's id or whose facet region covers
//! another number of documents, a segment file that is not the one its
//! manifest entry describes (swapped, or an entry whose `max_ordinal`
//! would hide WAL records), a MANIFEST number outside its field's range,
//! and a MANIFEST of format 1, whose payloads carried a BRAT copy, each
//! fail the open as corruption naming the file, and the refused open
//! changes nothing on disk.
//!
//! A sealed report's payload is read from its segment file on every
//! request, so damage that lands after the open is found there: a stored
//! block whose bytes change under an open instance answers `500` naming
//! the file for the reports it holds, and every other report still
//! answers as before.

use create::core::{Create, CreateConfig, MergePolicy};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};
use create::docstore::json::{object_members, parse_json, Value};
use create::index::facets::{FacetIndex, ALL_FACET_FIELDS};
use create::storage::manifest::Manifest;
use create::storage::segment::{read_segment, write_segment, SegmentData};
use create::storage::Wal;
use create::util::varint;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const K: usize = 10;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

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

fn query_panel(reports: &[CaseReport]) -> Vec<String> {
    QuerySet::generate(reports, 77, 8)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect()
}

fn ranking(system: &Create, query: &str, policy: MergePolicy) -> Ranking {
    system
        .search_with_policy(query, K, policy)
        .into_iter()
        .map(|h| (h.report_id, h.score.to_bits(), h.pattern_matched))
        .collect()
}

/// An in-memory reference that never crashed: the gold standard every
/// recovered system is held to.
fn reference(reports: &[CaseReport], shards: usize) -> Create {
    let system = Create::new(CreateConfig { shards });
    for r in reports {
        system.ingest_gold(r).expect("reference ingest");
    }
    system
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "create-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `*.jsonl` file and top-level `shard-*` directory under `dir`:
/// the pre-segment layouts that must never reappear.
fn legacy_store_files(dir: &Path) -> Vec<PathBuf> {
    fn jsonl_under(dir: &Path, found: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read data dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                jsonl_under(&path, found);
            } else if path.extension().is_some_and(|e| e == "jsonl") {
                found.push(path);
            }
        }
    }
    let mut found = Vec::new();
    jsonl_under(dir, &mut found);
    for entry in std::fs::read_dir(dir).expect("read data dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("shard-") {
            found.push(entry.path());
        }
    }
    found
}

fn assert_same_rankings(recovered: &Create, reference: &Create, queries: &[String], label: &str) {
    for q in queries {
        for policy in [
            MergePolicy::Neo4jFirst,
            MergePolicy::EsOnly,
            MergePolicy::GraphOnly,
        ] {
            assert_eq!(
                ranking(recovered, q, policy),
                ranking(reference, q, policy),
                "{label}: ranking diverged for {q:?} under {policy:?}"
            );
        }
    }
}

#[test]
fn kill_and_reopen_recovers_every_acknowledged_write() {
    let reports = corpus(40, 20260810);
    let queries = query_panel(&reports);
    let (sealed, tail) = reports.split_at(25);

    for &shards in &SHARD_COUNTS {
        let dir = fresh_dir(&format!("kill-{shards}"));
        let config = CreateConfig { shards };

        // Ingest with a mid-stream flush: the first 25 docs become
        // segment-durable, the last 15 are acknowledged but live only
        // in the WAL when the "crash" hits.
        {
            let system = Create::open(&dir, config.clone()).expect("first open");
            for r in sealed {
                system.ingest_gold(r).expect("ingest sealed half");
            }
            system.flush().expect("mid-stream flush");
            for r in tail {
                system.ingest_gold(r).expect("ingest WAL tail");
            }
            // Dropped without flush: nothing else is persisted.
        }

        let never_crashed = reference(&reports, shards);

        // Crash → reopen → verify, twice: the second cycle proves that
        // recovery itself (seal-at-open, ordinal reassignment) is a
        // fixed point and not a slow drift.
        for cycle in 0..2 {
            let recovered = Create::open(&dir, config.clone()).expect("reopen");
            assert_eq!(
                recovered.stats().reports,
                reports.len(),
                "{shards} shards, cycle {cycle}: zero acknowledged-write loss"
            );
            for r in &reports {
                assert!(
                    recovered.report(&r.id).unwrap().is_some(),
                    "{shards} shards, cycle {cycle}: report {} lost",
                    r.id
                );
            }
            assert_same_rankings(
                &recovered,
                &never_crashed,
                &queries,
                &format!("{shards} shards, cycle {cycle}"),
            );
            // The stored documents — sealed and WAL-tail alike — come
            // back byte-equal, from `storage/` and nothing else.
            for r in &reports {
                assert_eq!(
                    recovered.report(&r.id).unwrap().map(|v| v.to_json()),
                    never_crashed.report(&r.id).unwrap().map(|v| v.to_json()),
                    "{shards} shards, cycle {cycle}: report {} differs",
                    r.id
                );
                assert_eq!(
                    recovered.annotations(&r.id).unwrap().map(|a| a.serialize()),
                    never_crashed
                        .annotations(&r.id)
                        .unwrap()
                        .map(|a| a.serialize()),
                    "{shards} shards, cycle {cycle}: annotations of {} differ",
                    r.id
                );
            }
            assert_eq!(
                legacy_store_files(&dir),
                Vec::<PathBuf>::new(),
                "{shards} shards, cycle {cycle}: a second on-disk copy appeared"
            );
            // Recovery sealed the WAL tail into segments, so the
            // manifest must now account for every document.
            let stats = recovered.storage_stats().expect("disk-backed");
            assert!(stats.segments >= 1, "tail sealed into segments");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Parse the WAL's `[len][crc][payload]` framing and return each
/// record's byte offset, so damage can be aimed at a precise frame.
fn wal_frame_offsets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + len > bytes.len() {
            break;
        }
        offsets.push((at, 8 + len));
        at += 8 + len;
    }
    offsets
}

fn shard0_wal(dir: &Path) -> PathBuf {
    dir.join(create::storage::STORAGE_DIR)
        .join("shard-0")
        .join(create::storage::WAL_FILE)
}

/// The torn-tail scenarios aim at frames of shard 0's WAL, so they run
/// single-shard whatever the host's core count.
fn single_shard() -> CreateConfig {
    CreateConfig { shards: 1 }
}

/// Build a single-shard durable system whose WAL holds exactly the
/// last `wal_docs` documents, then crash it.
fn crash_with_wal_tail(dir: &Path, reports: &[CaseReport], wal_docs: usize) {
    let system = Create::open(dir, single_shard()).expect("open");
    let sealed = reports.len() - wal_docs;
    for r in &reports[..sealed] {
        system.ingest_gold(r).expect("ingest sealed prefix");
    }
    system.flush().expect("flush");
    for r in &reports[sealed..] {
        system.ingest_gold(r).expect("ingest WAL tail");
    }
}

#[test]
fn torn_wal_tail_loses_only_the_torn_suffix() {
    let reports = corpus(20, 20260811);
    let queries = query_panel(&reports[..19]);
    // Seeded cut points *inside* the final frame: mid-header and
    // mid-payload tears from a seeded RNG.
    let mut rng = create::util::Rng::seed_from_u64(20260811);

    for case in 0..3 {
        let dir = fresh_dir(&format!("torn-{case}"));
        crash_with_wal_tail(&dir, &reports, 8);

        let wal = shard0_wal(&dir);
        let bytes = std::fs::read(&wal).expect("read WAL");
        let frames = wal_frame_offsets(&bytes);
        assert_eq!(frames.len(), 8, "one frame per WAL-tail doc");
        let (last_at, last_len) = *frames.last().unwrap();
        // Tear somewhere strictly inside the last frame (keep ≥1 byte
        // so the reader sees a partial record, not a clean end).
        let cut = last_at + 1 + rng.below(last_len - 1);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open WAL for truncation");
        f.set_len(cut as u64).expect("truncate");
        drop(f);

        let recovered = Create::open(&dir, single_shard()).expect("reopen after tear");
        assert_eq!(
            recovered.stats().reports,
            19,
            "case {case}: exactly the torn doc is lost"
        );
        assert!(
            recovered.report(&reports[19].id).unwrap().is_none(),
            "case {case}: torn doc gone"
        );
        let never_crashed = reference(&reports[..19], 1);
        assert_same_rankings(
            &recovered,
            &never_crashed,
            &queries,
            &format!("torn case {case}"),
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_wal_byte_truncates_from_the_damage_point() {
    let reports = corpus(20, 20260812);
    // Flip a payload byte in the 6th of 8 WAL-tail frames: recovery
    // must keep the 5 records before it and drop it plus the 2 after.
    let dir = fresh_dir("flip");
    crash_with_wal_tail(&dir, &reports, 8);

    let wal = shard0_wal(&dir);
    let mut bytes = std::fs::read(&wal).expect("read WAL");
    let frames = wal_frame_offsets(&bytes);
    assert_eq!(frames.len(), 8);
    let (at, _) = frames[5];
    bytes[at + 8 + 3] ^= 0x40; // payload byte: CRC mismatch, not a length lie
    std::fs::write(&wal, &bytes).expect("write corrupted WAL");

    let recovered = Create::open(&dir, single_shard()).expect("reopen after flip");
    let survivors = 12 + 5; // sealed prefix + clean WAL records before the damage
    assert_eq!(recovered.stats().reports, survivors);
    for r in &reports[..survivors] {
        assert!(
            recovered.report(&r.id).unwrap().is_some(),
            "survivor {} lost",
            r.id
        );
    }
    for r in &reports[survivors..] {
        assert!(
            recovered.report(&r.id).unwrap().is_none(),
            "{} should be gone",
            r.id
        );
    }

    let queries = query_panel(&reports[..survivors]);
    let never_crashed = reference(&reports[..survivors], 1);
    assert_same_rankings(&recovered, &never_crashed, &queries, "flipped byte");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A tagger just good enough for `ingest_pdf` to run its extraction.
fn tiny_tagger(system: &Create) -> create::ner::CrfTagger {
    let dataset = create::ner::NerDataset::from_reports(
        &corpus(15, 20260813),
        create::ner::LabelSet::ner_targets(),
    );
    create::ner::CrfTagger::train(
        &dataset,
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

#[test]
fn pdf_metadata_survives_reopen_from_wal_tail_and_from_segment() {
    let pdf = create::grobid::write_pdf(&create::grobid::PdfSource {
        title: "Myocarditis after infection: a case report".into(),
        authors: "Chen W, Smith J".into(),
        affiliation: "Department of Cardiology, Example University".into(),
        body_lines: vec![
            "Abstract".into(),
            "A patient presented with fever and chest pain.".into(),
            "Case report".into(),
            "An echocardiogram revealed myocarditis. The patient recovered.".into(),
        ],
    });
    // The stored `reports` text, captured at the commit before the PDF's
    // metadata became fields of the one document it submits (it was an
    // insert, then an update).
    const STORED: &str = concat!(
        r#"{"_id":"user:pdf1","affiliation":"Department of Cardiology, Example University","#,
        r#""authors":["Chen W","Smith J"],"category":"user","source":"pdf","#,
        r#""text":"A patient presented with fever and chest pain.\n\n"#,
        r#"An echocardiogram revealed myocarditis. The patient recovered.","#,
        r#""title":"Myocarditis after infection: a case report","year":2020}"#
    );
    // Without a flush the metadata rides the submission's one `doc` WAL
    // record; with one it is in the sealed payload.
    for flush in [false, true] {
        let dir = fresh_dir(&format!("pdf-{flush}"));
        let served = {
            let system = Create::open(&dir, single_shard()).expect("open");
            system.attach_tagger(tiny_tagger(&system));
            system.ingest_pdf("user:pdf1", &pdf).expect("ingest pdf");
            if flush {
                system.flush().expect("flush");
            }
            let frames = wal_frame_offsets(&std::fs::read(shard0_wal(&dir)).expect("read WAL"));
            assert_eq!(
                frames.len(),
                usize::from(!flush),
                "flush={flush}: one frame a submit"
            );
            system
                .report("user:pdf1")
                .unwrap()
                .expect("served before the crash")
                .to_json()
        };
        assert_eq!(served, STORED, "flush={flush}");
        let reopened = Create::open(&dir, single_shard()).expect("reopen");
        let report = reopened
            .report("user:pdf1")
            .unwrap()
            .expect("pdf report recovered");
        assert_eq!(report.to_json(), served, "flush={flush}");
        let authors: Vec<&str> = report
            .get("authors")
            .and_then(|a| a.as_array())
            .expect("authors array")
            .iter()
            .filter_map(|a| a.as_str())
            .collect();
        assert_eq!(authors, ["Chen W", "Smith J"], "flush={flush}");
        assert_eq!(
            report.get("affiliation").and_then(|a| a.as_str()),
            Some("Department of Cardiology, Example University"),
            "flush={flush}"
        );
        assert_eq!(
            report.get("source").and_then(|s| s.as_str()),
            Some("pdf"),
            "flush={flush}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crashes a single-shard system with `reports` in its WAL tail, passes
/// the tail's records through `edit` and writes them back through the
/// public `Wal` API — every frame's CRC is valid, so whatever `edit`
/// broke is a content error. Returns the data directory.
fn crash_then_edit_wal(
    tag: &str,
    reports: &[CaseReport],
    edit: impl FnOnce(&mut Vec<String>),
) -> PathBuf {
    let dir = fresh_dir(tag);
    crash_with_wal_tail(&dir, reports, reports.len());
    let (mut wal, replay) = Wal::open(shard0_wal(&dir)).expect("open WAL");
    let mut records: Vec<String> = replay
        .records
        .into_iter()
        .map(|r| String::from_utf8(r).expect("records are JSON text"))
        .collect();
    assert_eq!(records.len(), reports.len(), "one record per WAL-tail doc");
    edit(&mut records);
    wal.reset().expect("reset WAL");
    for record in &records {
        wal.append(record.as_bytes()).expect("append");
    }
    wal.sync().expect("sync");
    dir
}

/// Every file under `dir`, by path, with its bytes.
fn files_under(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push((path.clone(), std::fs::read(&path).expect("read file")));
        }
    }
    files.sort();
    files
}

/// The open must fail as corruption whose message holds every one of
/// `needles`, and leave every file under `dir` byte-identical.
fn assert_open_refused(dir: &Path, needles: &[&str], label: &str) {
    let before = files_under(dir);
    let err = Create::open(dir, single_shard()).expect_err(label);
    assert!(
        err.is_corruption(),
        "{label}: {err} is not typed as corruption"
    );
    let message = err.to_string();
    for needle in needles {
        assert!(message.contains(needle), "{label}: {err} lacks {needle:?}");
    }
    assert!(
        files_under(dir) == before,
        "{label}: the refused open changed a file"
    );
}

/// The open must fail as corruption naming shard 0's WAL, and leave the
/// WAL and the rest of the directory as they were: nothing sealed,
/// nothing reset.
fn assert_open_refuses_the_wal(dir: &Path, label: &str) {
    assert_open_refused(dir, &[create::storage::WAL_FILE], label);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unreadable_extraction_in_a_wal_record_is_corruption_not_an_empty_extraction() {
    let reports = corpus(3, 20261002);
    let dir = crash_then_edit_wal("bad-extraction", &reports, |records| {
        assert!(records[1].contains(r#""mentions":"#));
        records[1] = records[1].replacen(r#""mentions":"#, r#""mentionz":"#, 1);
    });
    assert_open_refuses_the_wal(&dir, "renamed mentions");
}

#[test]
fn negative_ordinal_in_a_wal_record_is_corruption() {
    let reports = corpus(3, 20261003);
    let dir = crash_then_edit_wal("bad-ordinal", &reports, |records| {
        assert!(records[2].contains(r#""ordinal":2,"#));
        records[2] = records[2].replacen(r#""ordinal":2,"#, r#""ordinal":-1,"#, 1);
    });
    assert_open_refuses_the_wal(&dir, "ordinal -1");
}

/// `record` with its report's year (the last `"year"` member: the report
/// is the record's last document) set to `year`.
fn with_year(record: &str, year: &str) -> String {
    let key = record.rfind(r#""year":"#).expect("the report has a year") + r#""year":"#.len();
    let end = key + record[key..].find('}').expect("the report closes");
    format!("{}{year}{}", &record[..key], &record[end..])
}

/// `record` — a WAL record or a payload — without its `extraction`
/// member, its other members' texts as they were.
fn without_extraction(record: &str) -> String {
    let members: Vec<String> = object_members(record, |_| false)
        .expect("a JSON object")
        .into_iter()
        .filter(|member| member.key != "extraction")
        .map(|member| format!("\"{}\":{}", member.key, member.text))
        .collect();
    format!("{{{}}}", members.join(","))
}

#[test]
fn wal_record_content_errors_are_corruption_naming_the_file() {
    let reports = corpus(2, 20261004);
    type Damage = fn(&str) -> String;
    let cases: [(&str, Damage); 8] = [
        ("unknown record type", |r| {
            r.replacen(r#""t":"doc""#, r#""t":"nope""#, 1)
        }),
        ("no record type", |r| r.replacen(r#","t":"doc""#, "", 1)),
        ("no report member", |_| {
            r#"{"ordinal":1,"t":"doc"}"#.to_string()
        }),
        ("no extraction member", without_extraction),
        ("not an object", |_| "[1,2]".to_string()),
        ("year -1", |r| with_year(r, "-1")),
        ("year 2019.5", |r| with_year(r, "2019.5")),
        ("no category", |r| {
            let at = r
                .rfind(r#""category":""#)
                .expect("the report has a category");
            let end = at + r[at..].find(r#"","#).expect("more members follow") + 2;
            format!("{}{}", &r[..at], &r[end..])
        }),
    ];
    for (label, damage) in cases {
        let dir = crash_then_edit_wal("bad-record", &reports, |records| {
            let damaged = damage(&records[1]);
            assert_ne!(damaged, records[1], "{label}: the damage applied");
            records[1] = damaged;
        });
        assert_open_refuses_the_wal(&dir, label);
    }
}

#[test]
fn retired_formats_are_refused_as_corruption() {
    // A WAL holding the `update` record PDF submissions used to log
    // after their `doc` record: refused, never skipped.
    let reports = corpus(2, 20261005);
    let dir = crash_then_edit_wal("update-record", &reports, |records| {
        records.push(
            r#"{"collection":"reports","id":"x","set":{"source":"pdf"},"t":"update"}"#.to_string(),
        );
    });
    assert_open_refuses_the_wal(&dir, "update record");

    // A segment whose header names a retired format — 2, without the
    // facets region, 3, whose postings carried positions in every field,
    // or 4, whose regions and dictionaries led with counts — with the
    // footer checksum redone, so the header is the only thing wrong with
    // the file.
    for format in [2u32, 3, 4] {
        let dir = fresh_dir(&format!("format-{format}"));
        crash_with_wal_tail(&dir, &reports, 0);
        let segment = shard0_wal(&dir).with_file_name("seg-000000.seg");
        let mut bytes = std::fs::read(&segment).expect("read segment");
        bytes[4..8].copy_from_slice(&format.to_le_bytes());
        let footer = bytes.len() - 8;
        let crc = create::storage::checksum::crc32(&bytes[..footer]);
        bytes[footer..footer + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&segment, &bytes).expect("write segment");
        let refusal = format!("unsupported segment format {format}");
        assert_open_refused(&dir, &[&refusal], &format!("format {format}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A MANIFEST of format 1, whose payloads carried a BRAT copy of the
    // annotations and whose gold extractions lacked the non-temporal
    // relations the export now renders from them.
    let dir = fresh_dir("manifest-format-1");
    crash_with_wal_tail(&dir, &reports, 0);
    edit_manifest(&dir, |manifest| {
        let format = member(manifest, "format");
        assert_eq!(format.as_i64(), Some(2), "the current format");
        *format = Value::from(1i64);
    });
    assert_open_refused(
        &dir,
        &["MANIFEST", "unsupported manifest format 1"],
        "manifest format 1",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_whose_copies_of_an_id_disagree_is_corruption() {
    // A sealed segment rewritten with its columns out of step, and the
    // manifest entry updated to match the new file: two directory
    // entries swapped with their payloads (the postings disagree), and
    // two payloads swapped alone (the payloads disagree).
    let reports = corpus(6, 20261006);
    type Reorder = fn(&mut SegmentData);
    let cases: [(&str, Reorder); 2] = [
        ("directory entries swapped", |data| data.docs.swap(1, 4)),
        ("payloads swapped", |data| {
            let (head, tail) = data.docs.split_at_mut(4);
            std::mem::swap(&mut head[1].payload, &mut tail[0].payload);
        }),
    ];
    for (label, reorder) in cases {
        let dir = fresh_dir("swapped-ids");
        crash_with_wal_tail(&dir, &reports, 0);
        rewrite_sealed_segment(&dir, |data| {
            assert_eq!(
                data.docs.len(),
                reports.len(),
                "{label}: one sealed segment"
            );
            reorder(data);
        });
        assert_open_refused(&dir, &["seg-000000.seg"], label);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_segment_payload_without_its_extraction_is_refused() {
    // The extraction is a report's only stored record of its
    // annotations: a payload without one would open as a report with no
    // mentions and serve an empty export.
    let reports = corpus(4, 20261018);
    let dir = fresh_dir("payload-without-extraction");
    crash_with_wal_tail(&dir, &reports, 0);
    rewrite_sealed_segment(&dir, |data| {
        let payload = std::str::from_utf8(&data.docs[2].payload).expect("UTF-8");
        data.docs[2].payload = without_extraction(payload).into_bytes();
    });
    assert_open_refused(
        &dir,
        &["seg-000000.seg", "payload missing extraction"],
        "payload without extraction",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites shard 0's first segment file with `edit` applied to its
/// regions, and updates its MANIFEST entry's size and CRC to match the
/// new file, so the edit is the only thing wrong with it.
fn rewrite_sealed_segment(dir: &Path, edit: impl FnOnce(&mut SegmentData)) {
    let storage = dir.join(create::storage::STORAGE_DIR);
    let segment = shard0_wal(dir).with_file_name("seg-000000.seg");
    let mut data = read_segment(&segment).expect("read segment");
    edit(&mut data);
    let info = write_segment(&segment, &data).expect("rewrite segment");
    let mut manifest = Manifest::load(&storage)
        .expect("load manifest")
        .expect("a manifest");
    let meta = &mut manifest.shards[0].segments[0];
    (meta.bytes, meta.crc) = (info.bytes, info.crc);
    manifest.store(&storage).expect("store manifest");
}

#[test]
fn a_facet_region_short_of_its_segment_is_refused() {
    // A well-formed facet region that covers one document fewer than
    // the segment's directory and postings: each document's facets would
    // otherwise answer for the wrong report, or for none.
    let reports = corpus(6, 20261010);
    let dir = fresh_dir("short-facets");
    crash_with_wal_tail(&dir, &reports, 0);
    rewrite_sealed_segment(&dir, |data| {
        let facets = FacetIndex::decode(&data.facets).expect("a sealed facet region");
        assert_eq!(facets.num_docs() as usize, reports.len(), "one segment");
        let mut short = FacetIndex::new();
        for doc in 0..facets.num_docs() - 1 {
            let values = ALL_FACET_FIELDS.into_iter().flat_map(|field| {
                facets
                    .values(field)
                    .filter(|(_, run)| run.contains(&doc))
                    .map(move |(value, _)| (field, value.to_string()))
            });
            short.add_doc(doc, values.collect::<Vec<_>>());
        }
        data.facets = short.encode();
        assert!(FacetIndex::decode(&data.facets).is_ok(), "well formed");
    });
    let covered = format!("the facets cover {} docs", reports.len() - 1);
    assert_open_refused(&dir, &["seg-000000.seg", &covered], "short facets");
    let _ = std::fs::remove_dir_all(&dir);
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(create::storage::STORAGE_DIR)
        .join(create::storage::manifest::MANIFEST_FILE)
}

/// `value`'s member `key`.
fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(members) => members.get_mut(key).expect("the member exists"),
        other => panic!("{other:?} is not an object"),
    }
}

/// Shard 0's last segment entry in a parsed MANIFEST.
fn last_segment(manifest: &mut Value) -> &mut Value {
    let shard = match member(manifest, "shards") {
        Value::Array(shards) => &mut shards[0],
        other => panic!("{other:?} is not an array"),
    };
    match member(shard, "segments") {
        Value::Array(segments) => segments.last_mut().expect("a segment"),
        other => panic!("{other:?} is not an array"),
    }
}

/// Rewrites the MANIFEST under `dir` with `edit` applied to its JSON.
fn edit_manifest(dir: &Path, edit: impl FnOnce(&mut Value)) {
    let path = manifest_path(dir);
    let mut manifest = parse_json(&std::fs::read_to_string(&path).expect("read MANIFEST"))
        .expect("MANIFEST is JSON");
    edit(&mut manifest);
    std::fs::write(&path, manifest.to_json_pretty()).expect("write MANIFEST");
}

#[test]
fn swapped_segment_files_are_refused() {
    // Two flushes seal two segments into shard 0; swapping the files by
    // rename leaves each where the other's manifest entry points.
    let reports = corpus(10, 20261007);
    let dir = fresh_dir("swapped-files");
    {
        let system = Create::open(&dir, single_shard()).expect("open");
        for half in reports.chunks(5) {
            system.ingest_gold_batch(half, 1).expect("ingest");
            system.flush().expect("flush");
        }
    }
    let shard = shard0_wal(&dir).with_file_name("");
    let (first, second) = (shard.join("seg-000000.seg"), shard.join("seg-000001.seg"));
    let swap = shard.join("swap.tmp");
    std::fs::rename(&first, &swap).expect("rename");
    std::fs::rename(&second, &first).expect("rename");
    std::fs::rename(&swap, &second).expect("rename");
    assert_open_refused(
        &dir,
        &["seg-000000.seg", "the manifest records"],
        "swapped files",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_manifest_ordinal_past_its_segment_is_refused() {
    // Recovery skips WAL records at or below the last entry's
    // `max_ordinal`: raised past the WAL tail, it would drop the three
    // acknowledged reports there without a word.
    let reports = corpus(8, 20261008);
    let dir = fresh_dir("raised-ordinal");
    crash_with_wal_tail(&dir, &reports, 3);
    edit_manifest(&dir, |manifest| {
        let max = member(last_segment(manifest), "max_ordinal");
        assert_eq!(max.as_i64(), Some(4), "the five sealed reports");
        *max = Value::from(20i64);
    });
    assert_open_refused(
        &dir,
        &["seg-000000.seg", "max_ordinal 20"],
        "raised max_ordinal",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_numbers_out_of_their_range_are_refused() {
    // Each number the manifest holds, negative — and a CRC past `u32` —
    // is refused as a corrupt MANIFEST, not cast into range.
    let reports = corpus(2, 20261009);
    let dir = fresh_dir("manifest-numbers");
    crash_with_wal_tail(&dir, &reports, 0);
    let pristine = std::fs::read(manifest_path(&dir)).expect("read MANIFEST");
    let cases: [(&str, i64); 8] = [
        ("shard_count", -1),
        ("next_segment_id", -1),
        ("docs", -1),
        ("bytes", -1),
        ("crc", -1),
        ("crc", 1 << 32),
        ("min_ordinal", -1),
        ("max_ordinal", -1),
    ];
    for (key, bad) in cases {
        edit_manifest(&dir, |manifest| {
            let target = match key {
                "shard_count" => member(manifest, key),
                "next_segment_id" => match member(manifest, "shards") {
                    Value::Array(shards) => member(&mut shards[0], key),
                    other => panic!("{other:?} is not an array"),
                },
                _ => member(last_segment(manifest), key),
            };
            *target = Value::from(bad);
        });
        let label = format!("{key} {bad}");
        assert_open_refused(&dir, &["MANIFEST", &label], &label);
        std::fs::write(manifest_path(&dir), &pristine).expect("restore MANIFEST");
    }
    Create::open(&dir, single_shard()).expect("the restored manifest opens");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The file offset and length of the compressed bytes of each block of
/// a segment file's stored-fields region: past the 8-byte header and
/// every block of the directory region up to its end marker, then each
/// block's two lengths and its CRC, up to the region's end marker.
fn stored_blocks(segment: &[u8]) -> Vec<(usize, usize)> {
    let mut pos = 8;
    let next = |pos: &mut usize| varint::read_u64(segment, pos).expect("a varint") as usize;
    while next(&mut pos) != 0 {
        let compressed = next(&mut pos);
        pos += 4 + compressed;
    }
    let mut blocks = Vec::new();
    while next(&mut pos) != 0 {
        let compressed = next(&mut pos);
        blocks.push((pos + 4, compressed));
        pos += 4 + compressed;
    }
    blocks
}

#[test]
fn a_stored_block_corrupted_after_open_fails_only_the_reports_it_holds() {
    // 300 reports of ~2.2 KB in one segment: at least three stored
    // blocks, as asserted below. The reopened instance located every
    // payload while it streamed the file; a byte of the first block
    // flipped afterwards is found by the read of each route that reads
    // a stored payload: the report, its annotations and its graph.svg.
    let reports = corpus(300, 20261017);
    let dir = fresh_dir("stored-after-open");
    {
        let system = Create::open(&dir, single_shard()).expect("open");
        system.ingest_gold_batch(&reports, 0).expect("ingest");
        system.flush().expect("flush");
    }
    let api = create::server::build_api(std::sync::Arc::new(
        Create::open(&dir, single_shard()).expect("reopen"),
    ));
    let get = |path: String| {
        let request = create::server::Request {
            method: "GET".to_string(),
            path,
            query: Default::default(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let response = api.dispatch(&request);
        (
            response.status,
            String::from_utf8(response.body).expect("UTF-8"),
        )
    };
    let bodies = |id: &str| {
        [
            get(format!("/reports/{id}")),
            get(format!("/reports/{id}/annotations")),
            get(format!("/reports/{id}/graph.svg")),
        ]
    };
    let before: Vec<_> = reports.iter().map(|r| bodies(&r.id)).collect();
    assert!(before
        .iter()
        .flatten()
        .all(|(status, _)| *status == create::server::Status::Ok));

    let segment = shard0_wal(&dir).with_file_name("seg-000000.seg");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&segment)
        .expect("open the segment in place");
    let blocks = stored_blocks(&std::fs::read(&segment).expect("read segment"));
    assert!(blocks.len() >= 3, "{} stored blocks", blocks.len());
    let (at, len) = blocks[0];
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, (at + len / 2) as u64)
        .expect("read");
    file.write_all_at(&[byte[0] ^ 0x20], (at + len / 2) as u64)
        .expect("flip");

    let (mut failed, mut served) = (0, 0);
    for (r, before) in reports.iter().zip(&before) {
        let after = bodies(&r.id);
        if after[0].0 == create::server::Status::Ok {
            assert_eq!(&after, before, "{} still reads back", r.id);
            served += 1;
            continue;
        }
        for (status, body) in &after {
            assert_eq!(*status, create::server::Status::InternalServerError);
            assert!(
                body.contains("seg-000000.seg") && body.contains("corruption"),
                "{}: {body}",
                r.id
            );
        }
        failed += 1;
    }
    assert!(failed > 0, "no report lives in the flipped block");
    assert!(served > 0, "every report lives in the flipped block");
    assert_eq!(
        get("/reports/no-such-report".to_string()).0,
        create::server::Status::NotFound
    );
    drop(api);
    let _ = std::fs::remove_dir_all(&dir);
}
