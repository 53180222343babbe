//! Allocation budgets of the write path and the in-RAM index.
//!
//! A counting `GlobalAlloc` (hence a test binary of its own, holding one
//! test so nothing else allocates beside it) over an in-memory `Create`
//! pinned to one shard and 500 generated reports:
//!
//! * (a) a 2-document `ingest_gold_batch` after a publish — the
//!   copy-on-write case, every touched term shared with the published
//!   snapshot — stays under a fixed number of allocations. With one
//!   heap `Vec` per posting it took 209 179;
//! * (b) the heap an `Index` holds, built the way `Create::open` builds
//!   it, is `Index::postings_bytes()` plus a fixed cost per term, which
//!   pins that figure to what the allocator really hands out: the three
//!   arrays and the term's text are exactly `postings_bytes`; what comes
//!   on top is two `Arc` headers and the `PostingList` struct (104
//!   bytes), a dictionary slot and a fuzzy-bucket slot. On a corpus
//!   this small — 20 049 terms for 504 reports — those headers are 0.68x
//!   `postings_bytes`, so the whole-heap ratio (1.68x; it was 3.45x in
//!   requested bytes, before malloc rounded each one-position `Vec` up
//!   to a 32-byte chunk) is printed and the per-term remainder is what
//!   is gated;
//! * (c) dropping the previous snapshot after a publish gives back what
//!   the copy-on-write copied.

use create::core::{Create, CreateConfig};
use create::corpus::{CorpusConfig, Generator};
use create::index::codec::{decode_segment, encode_index_tail};
use create::index::Index;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// `System`, counting calls that allocate and the bytes currently live.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// additions are relaxed atomic counters that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const REPORTS: usize = 500;
/// Heap bytes a term may cost beside what `postings_bytes` counts for
/// it: 181.3 measured (the tables' slack and the documents' ids and
/// lengths included), and the figure repeats exactly. One more `u32`
/// per posting would add about 80.
const TERM_OVERHEAD: usize = 190;
/// Allocations one 2-document batch may make at 500 reports: about
/// twice the 25 524 it makes (tokens, the batch's own segment, the
/// touched lists' copies, the snapshot's tables), a quarter of the
/// 209 179 it made with a `Vec` per posting.
const SUBMIT_BUDGET: usize = 50_000;

#[test]
fn submit_and_index_stay_inside_their_allocation_budgets() {
    let reports = Generator::new(CorpusConfig {
        num_reports: REPORTS + 4,
        seed: 20260217,
        ..Default::default()
    })
    .generate();
    let system = Create::new(CreateConfig {
        shards: 1,
        ..Default::default()
    });
    system.ingest_gold_batch(&reports[..REPORTS], 1).unwrap();
    // One small batch first, so lazily created state (pool workers,
    // metric handles) is not charged to the measured one.
    system
        .ingest_gold_batch(&reports[REPORTS..REPORTS + 2], 1)
        .unwrap();

    // (a) + (c): the previous snapshot stays pinned across the batch, so
    // every list the batch touches is copied, never mutated in place.
    let single_copy = live_bytes();
    let previous = system.snapshot();
    let before = allocations();
    system
        .ingest_gold_batch(&reports[REPORTS + 2..], 1)
        .unwrap();
    let submit_allocations = allocations() - before;
    let both_copies = live_bytes();
    drop(previous);
    let after_drop = live_bytes();
    println!(
        "2-document submit at {REPORTS} reports: {submit_allocations} allocations; \
         live bytes {single_copy} -> {both_copies} with the old snapshot pinned -> {after_drop} after its drop"
    );

    // (b) the index as `Create::open` builds it: decode + merge.
    let blob = encode_index_tail(&system.index(), 0);
    let before = (allocations(), live_bytes());
    let mut index = Index::clinical();
    index
        .merge_segment(decode_segment(&blob, &index).unwrap())
        .unwrap();
    let open_allocations = allocations() - before.0;
    let held = (live_bytes() - before.1) as f64;
    let counted = index.postings_bytes() as f64;
    let terms: usize = ["title", "body", "body_ngram"]
        .iter()
        .map(|field| index.vocabulary_size(field))
        .sum();
    let per_term = (held - counted) / terms as f64;
    println!(
        "index of {} docs: {open_allocations} allocations to decode + merge, \
         {held} live bytes for postings_bytes {counted} = {:.3}x, \
         {per_term:.1} bytes beside it for each of {terms} terms",
        index.num_docs(),
        held / counted
    );
    assert!(
        submit_allocations <= SUBMIT_BUDGET,
        "a 2-document submit made {submit_allocations} allocations, budget {SUBMIT_BUDGET}"
    );
    assert!(
        held >= counted && per_term <= TERM_OVERHEAD as f64,
        "the index holds {held} heap bytes for postings_bytes {counted}: \
         {per_term:.1} bytes over it per term, budget {TERM_OVERHEAD}"
    );
    assert!(
        both_copies > after_drop && after_drop as f64 <= 1.03 * single_copy as f64,
        "dropping the old snapshot left {after_drop} bytes live, single copy was {single_copy}"
    );
}
