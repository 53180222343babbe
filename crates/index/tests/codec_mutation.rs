//! Seeded mutation fuzz of the postings codec and the facet codec — the
//! two blobs a sealed segment hands `create-index` (`tests/invariants.rs`
//! style: std-only, fixed printed seed). A valid blob of each is
//! flipped, truncated and spliced a few thousand times; every mutant
//! must decode to `Err`, or to a value that re-encodes to the mutant's
//! own bytes — never a panic, and never a reservation beyond a small
//! multiple of the input length (the counts in the blob are untrusted).
//!
//! The postings mutants also go through the streaming merge compaction
//! runs, merged with a valid blob of other documents (on either side
//! of it): it must refuse exactly the mutants that `decode_segment` +
//! `merge_segment` refuse or whose segments then do not merge into one
//! (`merge_unsealed`, a seal's merge), and write that one segment's blob
//! for the rest.
//!
//! Hand-built blobs pin what the checks of a stream without positions
//! (`body_ngram`'s: a doc gap and a term frequency per posting) refuse,
//! and what a dictionary's or a blob's end in the wrong place is, from
//! `decode_segment` and `merge_postings` alike.
//!
//! The postings mutants also go through `adopt` — what recovery does
//! with a segment file's postings region — which must refuse each with
//! the `CodecError` that `decode_segment` and a merge of the mutant alone
//! refuse it with. An adopted mutant is then a frozen segment whose lists
//! queries decode trusting the bytes, so it must answer every query kind
//! of `frozen_equivalence` without a panic, ranking as the same
//! documents decoded into posting lists do: the checks cover everything
//! a cursor assumes. The merged-postings mutants the merge accepts are
//! adopted too, beside the other blob, as an index's tier rule merges
//! two frozen segments, and must answer as the decoded pair does.
//!
//! Its own test binary because it installs a global allocator.

mod support;

use create_index::codec::{
    adopt, decode_segment, encode_segment, merge_postings, CodecError, MergeError, SKIP_INTERVAL,
};
use create_index::facets::{FacetField, FacetIndex, ALL_FACET_FIELDS};
use create_index::index::IndexError;
use create_index::{FieldConfig, FrozenSegment, Index, QueryNode};
use create_text::Analyzer;
use create_util::{varint, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
fn valid_blob(id_prefix: &str) -> Vec<u8> {
    const TEXTS: &[&str] = &[
        "Fever and cough persisted; fever recurred with fever spikes.",
        "Amiodarone-induced pulmonary toxicity was confirmed.",
        "",
        "Echocardiogram revealed myocarditis after admission.",
    ];
    let mut segment = Index::clinical().segment();
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
        segment
            .add_document(
                &format!("{id_prefix}:{i}"),
                &[("title", title), ("body", body), ("body_ngram", ngram)],
                [],
            )
            .unwrap();
    }
    let mut blob = Vec::new();
    encode_segment(&segment, &mut blob).expect("a Vec takes every byte");
    // shared 11 | suffix "2" | 1 posting | 0 skips | 3 bytes: doc 1, 1
    // position, position 1 | the end entry.
    assert!(blob.ends_with(&[11, 1, b'2', 1, 0, 3, 1, 1, 1, 0, 0]));
    blob
}

/// The blob of every document of `index`: its segments' blobs merged,
/// as a seal of them all writes it (a single segment's blob as it is).
fn encoded(index: &Index) -> Vec<u8> {
    let blobs: Vec<&[u8]> = index.frozen().map(FrozenSegment::blob).collect();
    merge(&blobs, index).expect("an index's segments merge")
}

/// A facet blob with every field, values that share prefixes, runs with
/// gaps and without, a value only the last document carries, and
/// documents that carry nothing.
fn valid_facet_blob() -> Vec<u8> {
    let mut facets = FacetIndex::new();
    for doc in 0..90u32 {
        let mut values = vec![
            (
                FacetField::Category,
                ["cancer", "cardiovascular", "card"][doc as usize % 3],
            ),
            (FacetField::Year, if doc < 50 { "2019" } else { "2020" }),
        ];
        if doc % 7 == 0 {
            values.extend(ALL_FACET_FIELDS[2..].iter().map(|&f| (f, "T2")));
        }
        if doc == 89 {
            values.push((FacetField::Icd, "C50.9"));
        }
        if doc % 11 == 5 {
            values.clear();
        }
        facets.add_doc(doc, values.into_iter().map(|(f, v)| (f, v.to_string())));
    }
    facets.encode()
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

/// Runs the mutants of `blob` through `decode`, then hands each mutant
/// and what `decode` made of it to `check` (with the failure label to
/// panic with).
fn fuzz<D>(
    what: &str,
    blob: &[u8],
    decode: impl Fn(&[u8]) -> Option<D>,
    check: impl Fn(&[u8], Option<D>, &str),
) {
    let mut accepted = 0u32;
    for i in 0..=MUTANTS {
        let label = format!("seed {SEED:#x} {what} mutant {i}");
        // Mutant 0 is the valid blob itself.
        let mut rng = Rng::seed_from_u64(SEED + i);
        let mutant = if i == 0 {
            blob.to_vec()
        } else {
            mutate(&mut rng, blob)
        };
        MAX_REQUEST.store(0, Ordering::Relaxed);
        // What `decode` captures is only read, so observing it after a
        // panic is fine.
        let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&mutant)))
            .unwrap_or_else(|_| panic!("{label}: decode panicked"));
        let reserved = MAX_REQUEST.load(Ordering::Relaxed);
        assert!(
            reserved <= RESERVE_PER_INPUT_BYTE * mutant.len() + 4096,
            "{label}: one request of {reserved} bytes for {} input bytes",
            mutant.len()
        );
        accepted += u32::from(decoded.is_some());
        check(&mutant, decoded, &label);
    }
    println!("{accepted} of {MUTANTS} {what} mutants accepted");
    // The valid blob and the many value-only mutations (a position, a doc
    // length, a facet value's bytes) must survive, or the fuzz exercises
    // nothing past the header.
    assert!(
        accepted > MUTANTS as u32 / 20,
        "only {accepted} {what} mutants decoded"
    );
}

/// `check` for a codec: an accepted blob re-encodes to its own bytes.
fn round_trips<D>(reencode: impl Fn(D, &str) -> Vec<u8>) -> impl Fn(&[u8], Option<D>, &str) {
    move |mutant, decoded, label| {
        if let Some(decoded) = decoded {
            assert!(
                reencode(decoded, label) == mutant,
                "{label}: accepted blob re-encodes to different bytes"
            );
        }
    }
}

/// A postings mutant with `other`: after it when the mutant's length is
/// odd, before it when even — so both positions are fuzzed, and the pair
/// is a function of the mutant alone.
fn pair<'a>(mutant: &'a [u8], other: &'a [u8]) -> [&'a [u8]; 2] {
    if mutant.len() % 2 == 1 {
        [other, mutant]
    } else {
        [mutant, other]
    }
}

/// The entry that ends a field's dictionary: an empty term.
const END: [u8; 2] = [0, 0];

/// Appends `b`'s length, then `b`.
fn bytes(out: &mut Vec<u8>, b: &[u8]) {
    varint::write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// A hand-built postings blob of the documents `ids`, with the
/// `body_ngram` lengths `lens` and no `title` or `body` tokens, whose
/// `body_ngram` dictionary is the bytes `dictionary` (the other two
/// fields' are their end entries alone).
fn blob(ids: &[&str], lens: &[u32], dictionary: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, ids.len() as u64);
    for id in ids {
        bytes(&mut out, id.as_bytes());
    }
    varint::write_u64(&mut out, 3);
    for field in ["body", "body_ngram", "title"] {
        bytes(&mut out, field.as_bytes());
        let ngram = field == "body_ngram";
        for &len in lens {
            varint::write_u32(&mut out, if ngram { len } else { 0 });
        }
        out.extend_from_slice(if ngram { dictionary } else { &END });
    }
    out
}

/// One dictionary entry sharing no prefix with the term before it: the
/// suffix `term`, `postings` postings whose stream is the varints
/// `stream`, no skips.
fn term_entry(term: &[u8], postings: u64, stream: &[u64]) -> Vec<u8> {
    let mut out = vec![0];
    bytes(&mut out, term);
    varint::write_u64(&mut out, postings);
    varint::write_u64(&mut out, 0);
    let mut blob = Vec::new();
    for &v in stream {
        varint::write_u64(&mut blob, v);
    }
    bytes(&mut out, &blob);
    out
}

/// [`blob`] holding one term — `body_ngram`'s "abc", of `postings`
/// postings whose stream is the varints `stream`.
fn ngram_blob(ids: &[&str], lens: &[u32], postings: u64, stream: &[u64]) -> Vec<u8> {
    blob(
        ids,
        lens,
        &[term_entry(b"abc", postings, stream), END.to_vec()].concat(),
    )
}

/// [`merge_postings`] over `blobs`, into the merged blob.
fn merge(blobs: &[&[u8]], template: &Index) -> Result<Vec<u8>, MergeError> {
    let inputs = blobs.iter().map(|b| (*b, b.len() as u64)).collect();
    let mut merged = Vec::new();
    merge_postings(inputs, template, &mut merged)?;
    Ok(merged)
}

/// The codec error `merge_postings` refused input `at` with.
fn merge_refusal(merged: Result<Vec<u8>, MergeError>, at: usize, what: &str) -> CodecError {
    match merged {
        Err(MergeError::Input(i, e)) if i == at => e
            .get_ref()
            .and_then(|e| e.downcast_ref::<CodecError>())
            .unwrap_or_else(|| panic!("{what}: the merge refused input {i} untyped: {e}"))
            .clone(),
        other => panic!("{what}: the merge gave {other:?}, not a refusal of input {at}"),
    }
}

/// Streams of a field without positions that only their term
/// frequencies make wrong — a frequency of 0, one past the document's
/// length, frequencies summing past `u32::MAX`, position bytes after a
/// frequency (as a positional encoder writes them) — are the same typed
/// [`CodecError`] from `decode_segment` and `merge_postings`; and a term
/// whose occurrences pass `u32::MAX` only across two segments is refused
/// by the merge, and kept in two segments of an index that a seal's
/// merge then refuses, with no panic in either.
fn hostile_frequency_streams_are_refused_alike(template: &Index) {
    let max = u64::from(u32::MAX);
    let valid = ngram_blob(&["a"], &[2], 1, &[0, 2]);
    let mut rebuilt = Index::clinical();
    rebuilt
        .merge_segment(decode_segment(&valid, template).expect("the hand-built shape decodes"))
        .unwrap();
    assert_eq!(encoded(&rebuilt), valid);

    // `body_ngram` as a positional field would write it: tf, position.
    let mut positional = Index::new(
        ["title", "body", "body_ngram"]
            .into_iter()
            .map(|name| FieldConfig {
                name: name.to_string(),
                analyzer: Arc::new(Analyzer::clinical_standard()),
                boost: 1.0,
            })
            .collect(),
    );
    positional
        .add_document("a", &[("body_ngram", "amiodarone toxicity amiodarone")])
        .unwrap();
    let cases = [
        (
            "tf 0",
            ngram_blob(&["a"], &[1], 1, &[0, 0]),
            "posting with term frequency 0",
        ),
        (
            "tf past the document's length",
            ngram_blob(&["a"], &[1], 1, &[0, 2]),
            "term frequency exceeds the document's length",
        ),
        (
            "cumulative tf past u32::MAX",
            ngram_blob(&["a", "b"], &[u32::MAX; 2], 2, &[0, max, 1, 1]),
            "term frequencies overflow u32",
        ),
        (
            "a stray position delta",
            ngram_blob(&["a"], &[1], 1, &[0, 1, 0]),
            "trailing bytes in postings blob",
        ),
        (
            "positions of a positional encoder",
            encoded(&positional),
            "trailing bytes in postings blob",
        ),
    ];
    for (what, blob, message) in cases {
        let decoded = decode_segment(&blob, template).map(drop).expect_err(what);
        assert_eq!(decoded.0, message, "{what}");
        assert_eq!(
            merge_refusal(merge(&[&blob], template), 0, what),
            decoded,
            "{what}: the merge refuses it as decode does"
        );
    }

    let (a, b) = (
        ngram_blob(&["a"], &[u32::MAX], 1, &[0, max]),
        ngram_blob(&["b"], &[u32::MAX], 1, &[0, max]),
    );
    let what = "occurrences past u32::MAX across two segments";
    assert_eq!(
        merge_refusal(merge(&[&a, &b], template), 1, what).0,
        "merged term frequencies overflow u32"
    );
    let mut oracle = Index::clinical();
    for blob in [&a, &b] {
        oracle
            .merge_segment(decode_segment(blob, template).unwrap())
            .expect(what);
    }
    let kept: Vec<&[u8]> = oracle.frozen().map(FrozenSegment::blob).collect();
    assert_eq!(
        kept,
        [&a[..], &b[..]],
        "{what}: the tier rule keeps them apart"
    );
    assert!(
        matches!(
            oracle.merge_unsealed(),
            Err(IndexError::FrequencyOverflow(_))
        ),
        "{what}: a seal's merge refuses them"
    );
    assert_eq!(
        oracle.segment_count(),
        2,
        "{what}: the refusal changed nothing"
    );
}

/// Dictionaries and blobs that end in the wrong place — an empty term in
/// the middle of a dictionary (it is the end entry, so what follows is
/// read as the next field), a dictionary without its end entry (the next
/// field is read as a term), a byte after the last field — are the same
/// typed [`CodecError`] from `decode_segment` and `merge_postings`, with
/// no panic and no reservation past the fuzz's bound.
fn misplaced_ends_are_refused_alike(template: &Index) {
    let (abc, xyz) = (
        term_entry(b"abc", 1, &[0, 2]),
        term_entry(b"xyz", 1, &[0, 2]),
    );
    let mut trailing = blob(&["a"], &[2], &[&abc[..], &END].concat());
    trailing.push(0);
    let cases = [
        (
            "an empty term mid-dictionary",
            blob(&["a"], &[2], &[&abc[..], &END, &xyz, &END].concat()),
            "fields out of order",
        ),
        (
            "a dictionary without its end entry",
            blob(&["a"], &[2], &abc),
            "term prefix longer than previous term",
        ),
        (
            "a byte after the last field",
            trailing,
            "trailing bytes after last field",
        ),
    ];
    for (what, blob, message) in cases {
        MAX_REQUEST.store(0, Ordering::Relaxed);
        // What the closure captures is only read, so observing it after
        // a panic is fine.
        let read = std::panic::AssertUnwindSafe(|| {
            (
                decode_segment(&blob, template).map(drop),
                merge(&[&blob], template),
            )
        });
        let (decoded, merged) =
            std::panic::catch_unwind(read).unwrap_or_else(|_| panic!("{what}: a reader panicked"));
        let decoded = decoded.expect_err(what);
        assert_eq!(decoded.0, message, "{what}");
        assert_eq!(merge_refusal(merged, 0, what), decoded, "{what}");
        let reserved = MAX_REQUEST.load(Ordering::Relaxed);
        assert!(
            reserved <= RESERVE_PER_INPUT_BYTE * blob.len() + 4096,
            "{what}: one request of {reserved} bytes"
        );
    }
}

/// `check` for the adoption of a postings mutant: `adopted` is what
/// [`adopt`] made of it. A refusal is the error `decode_segment` and a
/// merge of the mutant alone refuse it with; an adopted mutant is what
/// that merge writes, and as one frozen segment of an index answers
/// `queries` as its decoded lists in the tail of another do.
fn adoption_agrees<'a>(
    template: &'a Index,
    queries: &'a [QueryNode],
) -> impl Fn(&[u8], Option<FrozenSegment>, &str) + 'a {
    move |mutant, adopted, label| {
        let merged = merge(&[mutant], template);
        let Some(segment) = adopted else {
            let refused = adopt(mutant.to_vec(), template).map(drop).expect_err(label);
            let decoded = decode_segment(mutant, template).map(drop).expect_err(label);
            assert_eq!(
                refused, decoded,
                "{label}: adopt and decode_segment disagree"
            );
            assert_eq!(merge_refusal(merged, 0, label), refused, "{label}");
            return;
        };
        assert!(
            merged.is_ok_and(|merged| merged == mutant),
            "{label}: adopted, but a merge of it alone does not rewrite it"
        );
        let mut frozen = Index::clinical();
        frozen.adopt_frozen(segment).expect("one segment");
        let mut decoded = Index::clinical();
        decoded
            .merge_segment(decode_segment(mutant, template).expect(label))
            .expect(label);
        answer_alike(label, &frozen, &decoded, queries);
    }
}

/// `frozen` answers every query of `queries` as `decoded` does, with no
/// panic, by [`support::assert_same_rankings`] at `k` = 10 and with every
/// third document allowed.
fn answer_alike(label: &str, frozen: &Index, decoded: &Index, queries: &[QueryNode]) {
    let allowed: Vec<u32> = (0..decoded.num_docs() as u32).step_by(3).collect();
    // What the closure captures is only read, so observing it after a
    // panic is fine.
    let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        support::assert_same_rankings(label, (frozen, decoded), queries, &allowed, &[10]);
    }));
    answered.unwrap_or_else(|_| panic!("{label}: the adopted segments answered apart"));
}

/// One test for every blob: they share the allocator's high-water mark.
#[test]
fn mutated_blobs_decode_to_err_or_round_trip() {
    println!("codec_mutation seed {SEED:#x}");
    let template = Index::clinical();
    hostile_frequency_streams_are_refused_alike(&template);
    misplaced_ends_are_refused_alike(&template);
    let valid = valid_blob("pmid");
    fuzz(
        "postings",
        &valid,
        |mutant| decode_segment(mutant, &template).ok(),
        round_trips(|segment, label| {
            let mut rebuilt = Index::clinical();
            rebuilt
                .merge_segment(segment)
                .unwrap_or_else(|e| panic!("{label}: merge refused: {e}"));
            encoded(&rebuilt)
        }),
    );
    // "fever recurred" and "pulmonary toxicity" are phrases of the blob.
    let words = ["fever", "recurred", "pulmonary", "toxicity"];
    let queries = support::queries(&template, &words);
    fuzz(
        "adopted postings",
        &valid,
        |mutant| adopt(mutant.to_vec(), &template).ok(),
        adoption_agrees(&template, &queries),
    );
    fuzz(
        "facets",
        &valid_facet_blob(),
        |mutant| FacetIndex::decode(mutant).ok(),
        round_trips(|facets: FacetIndex, _| facets.encode()),
    );
    let other = valid_blob("other");
    fuzz(
        "merged postings",
        &valid,
        |mutant| merge(&pair(mutant, &other), &template).ok(),
        |mutant, merged, label| {
            let mut oracle = Index::clinical();
            let built = pair(mutant, &other).into_iter().try_for_each(|blob| {
                let segment = decode_segment(blob, &oracle).map_err(|e| e.to_string())?;
                oracle.merge_segment(segment).map_err(|e| e.to_string())
            });
            let built = built.and_then(|()| oracle.merge_unsealed().map_err(|e| e.to_string()));
            match (merged, built) {
                (Some(merged), Ok(one)) => {
                    assert!(
                        one.is_some_and(|one| merged == one.blob()),
                        "{label}: the merge wrote other bytes than decode + merge_segment + a seal"
                    );
                    // Two segments of one size class: the tier rule merges
                    // them, and the index keeps the merged blob.
                    let mut tiered = Index::clinical();
                    for blob in pair(mutant, &other) {
                        let segment = adopt(blob.to_vec(), &template).expect(label);
                        tiered.adopt_frozen(segment).expect(label);
                    }
                    answer_alike(label, &tiered, &oracle, &queries);
                }
                (None, Err(_)) => {}
                (merged, built) => panic!(
                    "{label}: the merge {} but decode + merge_segment {}",
                    if merged.is_some() {
                        "accepted"
                    } else {
                        "refused"
                    },
                    if built.is_ok() { "accepted" } else { "refused" },
                ),
            }
        },
    );
}
