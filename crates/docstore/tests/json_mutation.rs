//! Seeded mutation fuzz of the JSON parser, and the round-trip invariant
//! the document store rests on (`crates/index/tests/codec_mutation.rs`
//! style: std-only, fixed printed seed, its own test binary because it
//! installs a global allocator — and therefore one test, so nothing
//! else allocates beside the measured parses).
//!
//! A 200-report ingest is flushed to a segment and every payload it
//! wrote is read back as the shard holds it — serialized text:
//!
//! * each payload and each of its members is what serializing its own
//!   parse gives (`to_json(parse(text)) == text`), so splicing member
//!   texts into a payload writes the bytes serializing the whole object
//!   would, and the value survives the trip (`parse(to_json(v)) == v`) —
//!   likewise for a document of the shapes the corpus lacks: fractions,
//!   huge and negative numbers, `\u` escapes, empty objects and arrays;
//! * one real payload and one `/cohort` body are then flipped, truncated
//!   and spliced a few thousand times, and every mutant must come back
//!   as `Err(JsonError)` or as a value that survives the same trip —
//!   never a panic, a stack overflow, or a single allocation beyond a
//!   small multiple of the input; `object_members` must agree with
//!   `parse_json` on which mutants are objects, and on every member.

use create_core::{Create, CreateConfig};
use create_corpus::{CorpusConfig, Generator};
use create_docstore::json::{obj, object_members};
use create_docstore::{parse_json, Value};
use create_storage::manifest::{segment_file_name, shard_dir_name};
use create_storage::segment::read_segment;
use create_util::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x0D0C_5704;
const MUTANTS: u64 = 3000;
const REPORTS: usize = 200;
/// Largest single request a parse may make, per input byte (plus a
/// page). The worst a text can ask for is an array of one-digit numbers:
/// two bytes each for a 32-byte `Value`, in a vector that doubles as it
/// grows. The payload and its mutants peak at about 1x, their longest
/// string.
const RESERVE_PER_INPUT_BYTE: usize = 32;

const COHORT_BODY: &str = r#"{
    "filters": [{"field": "sex", "values": ["female", "male"]}, {"field": "year", "values": ["2019"]}],
    "keywords": "fatigue and weight loss",
    "temporal": [{"a": "weight loss", "op": "within", "days": 365, "b": "fatigue"}],
    "facets": ["category", "year"],
    "k": 10
}"#;

/// `System`, remembering the largest single request.
struct MaxRequest;

static MAX_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is a relaxed atomic max that touches no allocator state.
unsafe impl GlobalAlloc for MaxRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MAX_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        MAX_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: MaxRequest = MaxRequest;

/// Every payload a flushed `REPORTS`-report ingest sealed.
fn sealed_payloads() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("create-json-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reports = Generator::new(CorpusConfig {
        num_reports: REPORTS,
        seed: SEED,
        ..Default::default()
    })
    .generate();
    let config = CreateConfig { shards: 1 };
    let system = Create::open(&dir, config).expect("open a fresh directory");
    system.ingest_gold_batch(&reports, 1).expect("ingest");
    system.flush().expect("flush");
    let segment = dir
        .join(create_storage::STORAGE_DIR)
        .join(shard_dir_name(0))
        .join(segment_file_name(0));
    let data = read_segment(&segment).expect("read the sealed segment");
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(data.docs.len(), REPORTS);
    data.docs
        .into_iter()
        .map(|doc| String::from_utf8(doc.payload).expect("payloads are UTF-8"))
        .collect()
}

/// `text` is its own parse's serialization, and the parse survives one.
fn assert_canonical(text: &str) {
    let value = parse_json(text).expect("stored text parses");
    assert_eq!(value.to_json(), text, "stored text is not canonical");
    assert_eq!(parse_json(&value.to_json()).unwrap(), value);
}

fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        if out.is_empty() {
            break;
        }
        let at = rng.below(out.len());
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.below(256) as u8,
            // The bytes the grammar turns on.
            2 => out[at] = *rng.choose(b"{}[]\",:\\u0-e.\x00\x1f\x7f\x80\xff"),
            3 => out.truncate(at),
            // Splice: a run from elsewhere in the text overwrites, is
            // inserted at, or is cut out of `at`.
            kind => {
                let from = rng.below(out.len());
                let run = out[from..(from + 1 + rng.below(24)).min(out.len())].to_vec();
                let end = (at + run.len()).min(out.len());
                match (kind, rng.chance(0.5)) {
                    (4, true) => out[at..end].copy_from_slice(&run[..end - at]),
                    (4, false) => drop(out.splice(at..at, run)),
                    _ => drop(out.drain(at..end)),
                }
            }
        }
    }
    // The parser takes `&str` (the server refuses a non-UTF-8 body before
    // it), so a broken sequence becomes U+FFFD and still reaches it.
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn stored_text_is_canonical_and_mutants_parse_to_err_or_round_trip() {
    println!("json_mutation seed {SEED:#x}");
    let payloads = sealed_payloads();
    let mut documents = 0;
    for payload in &payloads {
        assert_canonical(payload);
        for member in object_members(payload, |_| false).expect("payloads are objects") {
            assert_canonical(member.text);
            documents += 1;
        }
    }
    assert_eq!(documents, 2 * REPORTS, "extraction and report each");
    let odd = obj([
        ("_id", "odd".into()),
        ("fraction", 0.1.into()),
        ("huge", 1.0e300.into()),
        ("past_i64", 9.0e15.into()),
        ("negative", (-7.25e-9).into()),
        ("zero", (-0.0).into()),
        (
            "escapes",
            "\u{0}\u{1f}\"\\/\u{8}\u{c}\n\r\t\u{7f}é\u{1F600}".into(),
        ),
        ("", Value::object()),
        ("empty", Value::Array(Vec::new())),
        (
            "nested",
            vec![Value::object(), Value::Null, true.into()].into(),
        ),
    ]);
    let text = odd.to_json();
    assert_canonical(&text);
    assert_eq!(parse_json(&text).unwrap(), odd);

    let longest = payloads.iter().max_by_key(|p| p.len()).unwrap();
    let mut accepted = 0u32;
    for (name, valid) in [("payload", longest.as_str()), ("cohort body", COHORT_BODY)] {
        for i in 0..=MUTANTS {
            // Mutant 0 is the valid text itself.
            let mut rng = Rng::seed_from_u64(SEED + i);
            let mutant = if i == 0 {
                valid.to_string()
            } else {
                mutate(&mut rng, valid)
            };
            let context = format!("seed {SEED:#x} {name} mutant {i}");
            MAX_REQUEST.store(0, Ordering::Relaxed);
            // Every other member built, the rest only checked.
            let split = || object_members(&mutant, |key| key.len() % 2 == 0);
            let (parsed, members) = std::panic::catch_unwind(|| (parse_json(&mutant), split()))
                .unwrap_or_else(|_| panic!("{context}: the parser panicked"));
            let reserved = MAX_REQUEST.load(Ordering::Relaxed);
            assert!(
                reserved <= RESERVE_PER_INPUT_BYTE * mutant.len() + 4096,
                "{context}: one request of {reserved} bytes for {} input bytes",
                mutant.len()
            );
            let is_object = matches!(parsed, Ok(Value::Object(_)));
            assert_eq!(members.is_ok(), is_object, "{context}: object_members");
            let Ok(value) = parsed else { continue };
            accepted += 1;
            assert_eq!(
                parse_json(&value.to_json()).as_ref(),
                Ok(&value),
                "{context}: an accepted value does not survive serialization"
            );
            let members = members.unwrap_or_default();
            for (at, member) in members.iter().enumerate() {
                let parsed = parse_json(member.text).expect("a member's text parses");
                assert_eq!(member.value.is_some(), member.key.len() % 2 == 0);
                assert!(
                    member.value.iter().all(|built| *built == parsed),
                    "{context}"
                );
                // A repeated key's last member is the one a parse keeps.
                if !members[at + 1..]
                    .iter()
                    .any(|later| later.key == member.key)
                {
                    assert_eq!(value.get(&member.key), Some(&parsed), "{context}");
                }
            }
        }
    }
    println!("{accepted} of {} mutants accepted", 2 * MUTANTS);
    // The valid texts and the many mutations inside a string or a number
    // must survive, or the test exercises nothing past the first byte.
    assert!(
        accepted > MUTANTS as u32 / 10,
        "only {accepted} mutants parsed"
    );
}
