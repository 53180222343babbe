//! Seeded mutation fuzz of the postings codec (`tests/invariants.rs`
//! style: std-only, fixed printed seed). A valid segment blob is
//! flipped, truncated and spliced a few thousand times; every mutant
//! must decode to `Err`, or to a segment that re-encodes to the mutant's
//! own bytes — never a panic, and never a reservation beyond a small
//! multiple of the input length (the counts in the blob are untrusted).
//!
//! Its own test binary because it installs a global allocator.

use create_index::codec::{decode_segment, encode_index_tail, SKIP_INTERVAL};
use create_index::Index;
use create_util::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0xC0DE_C017;
const MUTANTS: u64 = 4000;
/// Largest single request a decode may make, per input byte (plus a
/// page for fixed-size tables). The worst a blob can ask for is the id
/// map of a segment of empty documents, ~20 bytes of table per input
/// byte; the valid blob below peaks at 3.4x and its mutants at 8.2x.
const RESERVE_PER_INPUT_BYTE: usize = 32;

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

/// A small index whose blob has every structure the format knows: three
/// fields, prefix-shared terms, multi-position postings, an empty
/// document, one list long enough for skip entries, and — as the blob's
/// very last term — one that shares more bytes with its predecessor
/// than the input has left.
fn valid_blob() -> Vec<u8> {
    const TEXTS: &[&str] = &[
        "Fever and cough persisted; fever recurred with fever spikes.",
        "Amiodarone-induced pulmonary toxicity was confirmed.",
        "",
        "Echocardiogram revealed myocarditis after admission.",
    ];
    let mut idx = Index::clinical();
    for i in 0..SKIP_INTERVAL + 40 {
        let text = TEXTS[i % TEXTS.len()];
        let (body, ngram) = if i < TEXTS.len() {
            (text, text)
        } else {
            ("fever", "")
        };
        let title = match i {
            0 => "1 12345678901",
            1 => "1 123456789012",
            _ => "1",
        };
        idx.add_document(
            &format!("pmid:{i}"),
            &[("title", title), ("body", body), ("body_ngram", ngram)],
        )
        .unwrap();
    }
    let blob = encode_index_tail(&idx, 0);
    // shared 11 | suffix "2" | 1 posting | 0 skips | 3 bytes: doc 1, 1
    // position, position 1.
    assert!(blob.ends_with(&[11, 1, b'2', 1, 0, 3, 1, 1, 1]));
    blob
}

fn mutate(rng: &mut Rng, blob: &[u8]) -> Vec<u8> {
    let mut out = blob.to_vec();
    for _ in 0..1 + rng.below(3) {
        if out.is_empty() {
            break;
        }
        let at = rng.below(out.len());
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.below(256) as u8,
            // The values length and count fields are most sensitive to.
            2 => out[at] = *rng.choose(&[0x00, 0x01, 0x7f, 0x80, 0xff]),
            3 => out.truncate(at),
            // Splice: a run from elsewhere in the blob overwrites, is
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
    out
}

#[test]
fn mutated_blobs_decode_to_err_or_round_trip() {
    println!("codec_mutation seed {SEED:#x}");
    let template = Index::clinical();
    let blob = valid_blob();
    let mut accepted = 0u32;
    for i in 0..=MUTANTS {
        // Mutant 0 is the valid blob itself.
        let mut rng = Rng::seed_from_u64(SEED + i);
        let mutant = if i == 0 {
            blob.clone()
        } else {
            mutate(&mut rng, &blob)
        };
        MAX_REQUEST.store(0, Ordering::Relaxed);
        // The template is only read, so observing it after a panic is fine.
        let decode = std::panic::AssertUnwindSafe(|| decode_segment(&mutant, &template));
        let decoded = std::panic::catch_unwind(decode)
            .unwrap_or_else(|_| panic!("seed {SEED:#x} mutant {i}: decode_segment panicked"));
        let reserved = MAX_REQUEST.load(Ordering::Relaxed);
        assert!(
            reserved <= RESERVE_PER_INPUT_BYTE * mutant.len() + 4096,
            "seed {SEED:#x} mutant {i}: one request of {reserved} bytes for {} input bytes",
            mutant.len()
        );
        if let Ok(segment) = decoded {
            let mut rebuilt = Index::clinical();
            rebuilt
                .merge_segment(segment)
                .unwrap_or_else(|e| panic!("seed {SEED:#x} mutant {i}: merge refused: {e}"));
            assert!(
                encode_index_tail(&rebuilt, 0) == mutant,
                "seed {SEED:#x} mutant {i}: accepted blob re-encodes to different bytes"
            );
            accepted += 1;
        }
    }
    println!("{accepted} of {MUTANTS} mutants accepted");
    // The valid blob and the many value-only mutations (a position, a doc
    // length) must survive, or the test exercises nothing past the header.
    assert!(
        accepted > MUTANTS as u32 / 20,
        "only {accepted} mutants decoded"
    );
}
