//! Seeded differential test of the one-pass payload decoder.
//!
//! `decode_payload` and `decode_wal_record` read a stored payload or a
//! WAL record straight into a report's fields and its annotations. The
//! oracle is the reader they replaced (`support/payload.rs`): split the
//! record into members, parse each into a `Value` tree, read the fields
//! off the trees. Over every segment payload and WAL record of a gold
//! corpus and of a raw-text corpus, and over seeded mutants of them,
//! the decoder must accept exactly what the oracle accepts and read the
//! same member texts, fields and annotations — and never panic. Named
//! cases pin the edges of the shape: a repeated key (the last one
//! wins), a non-string `concept` (no concept), a fractional or negative
//! `step` (cast `as u32`) and a `span` whose start is past its end (no
//! span). The seed is printed.

#[path = "support/payload.rs"]
mod oracle;

use create::core::{decode_payload, decode_wal_record, Create, CreateConfig, TextSubmission};
use create::corpus::{CaseReport, CorpusConfig, Generator};
use create::docstore::json::{object_members, parse_json, Value};
use create::storage::manifest::shard_dir_name;
use create::storage::segment::read_segment;
use create::storage::{Wal, STORAGE_DIR, WAL_FILE};
use create::util::Rng;
use std::path::{Path, PathBuf};

const SEED: u64 = 0x5041_594C_4F41;
/// Mutants per corpus and record kind.
const MUTANTS: usize = 1500;
/// Values a mutant may put in place of a scalar member.
const VALUES: [&str; 22] = [
    "null",
    "true",
    "-1",
    "-0",
    "-2.5",
    "2.7",
    "1e40",
    "4294967296",
    "18446744073709551616",
    "\"x\"",
    "\"\\u00e9\\\"\"",
    "\"C0015967\"",
    "\"Cx\"",
    "\"Sign_symptom\"",
    "\"BEFORE\"",
    "[]",
    "{}",
    "[9,3]",
    "[3,9]",
    "[1]",
    "[1,2,3]",
    "[0,1,\"OVERLAP\"]",
];
/// Bytes a mutant may put in place of one.
const BYTES: &[u8] = b"{}[]\":,-.0123456789eE \\/untrfalsC\x00\xc3\xff";

/// What the decoder and the oracle made of one record.
fn agree(bytes: &[u8], wal: bool, context: &str) -> bool {
    let (ours, theirs) = if wal {
        (
            decode_wal_record(bytes).map(|(ordinal, doc)| (Some(ordinal), doc)),
            oracle::wal_record(bytes).map(|(ordinal, doc)| (Some(ordinal), doc)),
        )
    } else {
        (
            decode_payload(bytes).map(|doc| (None, doc)),
            oracle::payload(bytes).map(|doc| (None, doc)),
        )
    };
    match (ours, theirs) {
        (Ok((ordinal, doc)), Ok((expected_ordinal, expected))) => {
            assert_eq!(ordinal, expected_ordinal, "{context}: ordinal");
            assert_eq!(
                doc.texts.report, expected.report_text,
                "{context}: report text"
            );
            assert_eq!(
                doc.texts.extraction, expected.extraction_text,
                "{context}: extraction text"
            );
            let f = &doc.fields;
            let fields = (
                f.id.to_string(),
                f.title.to_string(),
                f.text.to_string(),
                f.year,
                f.category.to_string(),
            );
            assert_eq!(fields, expected.fields, "{context}: report fields");
            assert_eq!(
                doc.annotations.mentions, expected.annotations.mentions,
                "{context}: mentions"
            );
            assert_eq!(
                doc.annotations.relations, expected.annotations.relations,
                "{context}: relations"
            );
            true
        }
        (Err(_), Err(_)) => false,
        (ours, theirs) => panic!(
            "{context}: the decoder says {:?}, the oracle {:?}, for {:?}",
            ours.map(|_| ()),
            theirs.map(|_| ()),
            String::from_utf8_lossy(bytes)
        ),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "create-payload-decoding-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every segment payload and every WAL record of a one-shard data
/// directory.
fn stored_records(dir: &Path) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let shard = dir.join(STORAGE_DIR).join(shard_dir_name(0));
    let mut payloads = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&shard)
        .expect("shard directory")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    files.sort();
    for file in files {
        let data = read_segment(&file).expect("read segment");
        payloads.extend(data.docs.into_iter().map(|doc| doc.payload));
    }
    let (_, replay) = Wal::open(shard.join(WAL_FILE)).expect("open WAL");
    (payloads, replay.records)
}

fn gold_corpus(reports: &[CaseReport]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let dir = fresh_dir("gold");
    let system = Create::open(&dir, CreateConfig { shards: 1 }).expect("open");
    let (sealed, tail) = reports.split_at(reports.len() * 4 / 5);
    system.ingest_gold_batch(sealed, 1).expect("ingest");
    system.flush().expect("flush");
    system.ingest_gold_batch(tail, 1).expect("ingest");
    drop(system);
    let records = stored_records(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    records
}

fn text_corpus(reports: &[CaseReport]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let dir = fresh_dir("text");
    let system = Create::open(&dir, CreateConfig { shards: 1 }).expect("open");
    system.attach_tagger(create::ner::CrfTagger::train(
        &create::ner::NerDataset::from_reports(
            &reports[..20],
            create::ner::LabelSet::ner_targets(),
        ),
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
    ));
    let submissions: Vec<TextSubmission> = reports
        .iter()
        .map(|r| TextSubmission {
            id: format!("user:{}", r.id),
            title: r.title.clone(),
            text: r.text.clone(),
            year: r.metadata.year,
        })
        .collect();
    let (sealed, tail) = submissions.split_at(submissions.len() * 4 / 5);
    system.ingest_text_batch(sealed, 1).expect("ingest");
    system.flush().expect("flush");
    system.ingest_text_batch(tail, 1).expect("ingest");
    drop(system);
    let records = stored_records(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    records
}

/// The end of the scalar value starting at `at`, or `None` when an
/// object or an array starts there.
fn scalar_end(bytes: &[u8], at: usize) -> Option<usize> {
    match bytes.get(at)? {
        b'"' => {
            let mut i = at + 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => return Some(i + 1),
                    _ => i += 1,
                }
            }
            None
        }
        b'{' | b'[' => None,
        _ => Some(
            at + bytes[at..]
                .iter()
                .position(|b| matches!(b, b',' | b'}' | b']'))
                .unwrap_or(bytes.len() - at),
        ),
    }
}

/// A seeded mutant of `record`: one to three edits, each a byte
/// replaced, a run deleted, a run repeated, the tail cut, or the scalar
/// after a member's colon (or an array item's comma) replaced by one of
/// `VALUES`.
fn mutate(rng: &mut Rng, record: &[u8]) -> Vec<u8> {
    let mut out = record.to_vec();
    for _ in 0..rng.range(1, 4) {
        let at = rng.below(out.len() + 1);
        match rng.below(8) {
            0 if at < out.len() => out[at] = BYTES[rng.below(BYTES.len())],
            1 => {
                let end = (at + rng.range(1, 9)).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let end = (at + rng.range(1, 24)).min(out.len());
                let run = out[at..end].to_vec();
                out.splice(at..at, run);
            }
            3 if rng.chance(0.2) => out.truncate(at),
            _ => {
                let delimiters: Vec<usize> = (0..out.len())
                    .filter(|&i| matches!(out[i], b':' | b','))
                    .collect();
                if delimiters.is_empty() {
                    continue;
                }
                let start = delimiters[rng.below(delimiters.len())] + 1;
                if let Some(end) = scalar_end(&out, start) {
                    let value = VALUES[rng.below(VALUES.len())].as_bytes();
                    out.splice(start..end, value.iter().copied());
                }
            }
        }
    }
    out
}

/// The payload's `extraction` with its first mention's `key` set to
/// `value`, spliced back beside the report.
fn with_mention_member(payload: &str, key: &str, value: Value) -> String {
    let members = object_members(payload, |_| false).expect("an object");
    let text = |name: &str| members.iter().find(|m| m.key == name).expect(name).text;
    let mut extraction = parse_json(text("extraction")).expect("parses");
    let mention = extraction
        .as_object_mut()
        .and_then(|e| e.get_mut("mentions"))
        .and_then(|m| match m {
            Value::Array(items) => items.first_mut(),
            _ => None,
        })
        .expect("a mention");
    mention.set(key, value);
    format!(
        "{{\"extraction\":{},\"report\":{}}}",
        extraction.to_json(),
        text("report")
    )
}

/// The named edges of the stored shape, on a real payload.
fn named_cases(payload: &str) {
    let first_mention = |bytes: &str| {
        assert!(agree(bytes.as_bytes(), false, "named case"), "{bytes}");
        let doc = decode_payload(bytes.as_bytes()).expect("decodes");
        doc.annotations.mentions[0].clone()
    };
    // A non-string concept means no concept; a string that is not a
    // concept id fails the payload.
    for concept in [Value::Number(5.0), Value::Null, Value::Bool(true)] {
        assert_eq!(
            first_mention(&with_mention_member(payload, "concept", concept)).concept,
            None
        );
    }
    let bad_concept = with_mention_member(payload, "concept", "C12x".into());
    assert!(!agree(
        bad_concept.as_bytes(),
        false,
        "a concept that is no id"
    ));
    // A fractional or negative step is cast `as u32`.
    for (step, cast) in [(2.7, 2), (-3.0, 0), (-0.5, 0), (1e40, u32::MAX)] {
        let mention = first_mention(&with_mention_member(payload, "step", step.into()));
        assert_eq!(mention.time_step, Some(cast), "step {step}");
    }
    // A span whose start is past its end is no span; so is one short of
    // two numbers. Items past the second are read and ignored.
    let span = |items: Vec<Value>| Value::Array(items);
    for items in [
        vec![9.into(), 3.into()],
        vec![1.into()],
        vec!["a".into(), 2.into()],
    ] {
        let mention = first_mention(&with_mention_member(payload, "span", span(items)));
        assert_eq!(mention.span, None);
    }
    let mention = first_mention(&with_mention_member(
        payload,
        "span",
        span(vec![3.into(), 9.into(), "x".into()]),
    ));
    assert_eq!(mention.span.map(|s| (s.start, s.end)), Some((3, 9)));
    // A repeated key: the last member wins, at the top and inside.
    let members = object_members(payload, |_| false).expect("an object");
    let text = |name: &str| members.iter().find(|m| m.key == name).expect(name).text;
    let other_report = r#"{"_id":"other","category":"c","text":"t","title":"u","year":7}"#;
    let repeated = format!(
        "{{\"report\":{},\"extraction\":{},\"report\":{other_report}}}",
        text("report"),
        text("extraction")
    );
    assert!(agree(repeated.as_bytes(), false, "repeated report"));
    let doc = decode_payload(repeated.as_bytes()).expect("decodes");
    assert_eq!((&*doc.fields.id, doc.fields.year), ("other", 7));
    assert_eq!(doc.texts.report, other_report);
    let repeated = format!(
        "{{\"extraction\":5,\"report\":{},\"extraction\":{}}}",
        text("report"),
        text("extraction")
    );
    assert!(agree(
        repeated.as_bytes(),
        false,
        "a bad member, then a good one"
    ));
    let repeated = format!(
        "{{\"extraction\":{},\"report\":{},\"extraction\":5}}",
        text("extraction"),
        text("report")
    );
    assert!(!agree(
        repeated.as_bytes(),
        false,
        "a good member, then a bad one"
    ));
    let step_twice = with_mention_member(payload, "step", 4.into()).replacen(
        "\"step\":4",
        "\"step\":\"x\",\"step\":4",
        1,
    );
    assert_eq!(first_mention(&step_twice).time_step, Some(4));
}

#[test]
fn the_decoder_reads_what_the_value_tree_read() {
    println!("payload decoding seed {SEED:#x}");
    let reports = Generator::new(CorpusConfig {
        num_reports: 100,
        seed: 20261018,
        ..Default::default()
    })
    .generate();
    let corpora = [
        ("gold", gold_corpus(&reports)),
        ("raw text", text_corpus(&reports[..40])),
    ];
    named_cases(std::str::from_utf8(&corpora[0].1 .0[0]).expect("UTF-8"));
    let mut rng = Rng::seed_from_u64(SEED);
    for (name, (payloads, records)) in &corpora {
        assert!(!payloads.is_empty() && !records.is_empty(), "{name}");
        for (kind, wal, all) in [("payload", false, payloads), ("WAL record", true, records)] {
            for (i, bytes) in all.iter().enumerate() {
                assert!(
                    agree(bytes, wal, &format!("{name} {kind} {i}")),
                    "reads back"
                );
            }
            let mut accepted = 0;
            for m in 0..MUTANTS {
                let source = &all[rng.below(all.len())];
                let mutant = mutate(&mut rng, source);
                accepted += usize::from(agree(&mutant, wal, &format!("{name} {kind} mutant {m}")));
            }
            println!(
                "{name} {kind}s: {} read back, {accepted} of {MUTANTS} mutants accepted",
                all.len()
            );
            assert!(
                accepted > MUTANTS / 20 && accepted < MUTANTS,
                "{name} {kind}s: {accepted} of {MUTANTS} mutants accepted"
            );
        }
    }
}
