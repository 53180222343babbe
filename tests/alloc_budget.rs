//! Allocation budgets of the write path, the in-RAM index and a
//! cache-hit search.
//!
//! A counting `GlobalAlloc` (hence a test binary of its own, holding one
//! test so nothing else allocates, or searches, beside it) over an
//! in-memory `Create` pinned to one shard and 500 generated reports:
//!
//! * (a) a 2-document `ingest_gold_batch` after a publish — the
//!   copy-on-write case: the writer's tables are shared with the
//!   published snapshot, so this first write copies what it touches —
//!   stays under a fixed number of allocations. With one heap `Vec` per
//!   posting it took 209 179;
//! * (b) the heap an `Index` holds, built the way `Create::open` builds
//!   it — a segment file's postings region checked and adopted as one
//!   frozen segment — is `Index::postings_bytes()` plus a fixed cost per
//!   term, which pins that figure to what the allocator really hands
//!   out: the encoded blob and the term tables are exactly
//!   `postings_bytes`; what comes on top is the documents' id offsets and
//!   lengths and the fuzzy buckets' map, 2.8 bytes a term on 20 049
//!   terms for 504 reports, and the whole-heap ratio is 1.04x. While
//!   recovery decoded every list into a `PostingList` of its own, each
//!   term added two `Arc` headers and the struct (104 bytes), a
//!   dictionary slot and a fuzzy-bucket slot: 181.3 bytes a term, a
//!   whole-heap ratio of 2.01x (1.68x while `body_ngram` stored
//!   positions, 3.45x in requested bytes before malloc rounded each
//!   one-position `Vec` up to a 32-byte chunk). The per-term remainder is
//!   what is gated, with `postings_bytes` itself: 1 533 420 bytes, 3 586
//!   951 decoded, 5 310 279 with the n-gram positions;
//! * (c) dropping the previous snapshot after a publish gives back what
//!   the copy-on-write copied;
//! * (d) everything the loaded `Create` holds — index, event records,
//!   stored payloads, facets, ordinals, one copy of each, which the
//!   writer and the published snapshot share — stays under a fixed
//!   number of live bytes. While each shard held a property graph it
//!   held 3.76 MB; while the index was one mutable tail of posting lists it
//!   held 11.07 MB; with every stored document a tree of `BTreeMap`s and
//!   `String`s and every graph node and edge an `Arc` of its own 30.8
//!   MB, while a publish copied the tables 17.63 MB, while
//!   `body_ngram` stored positions 16.57 MB, and while a document store
//!   filed each report as three documents under three copies of its id
//!   14.46 MB;
//! * (e) the event column of the 504 generated reports, built as ingest
//!   builds it, holds under a fixed number of live bytes, and
//!   `graph_build::column_bytes()` — what `/stats` and the
//!   `create_resident_bytes{component="graph"}` gauge report — is within
//!   a tenth of what the allocator says building it added (the stored
//!   payloads' figure is exact by construction: a text and its `Arc`
//!   header each, and the slot array). The property graph of the same
//!   reports, which each shard held before, took 832 424 bytes;
//! * (f) on a two-shard copy of the same corpus, a warmed query is
//!   answered without parsing or planning anything — the `parse` and
//!   `plan` stage histograms and `create_plan_nodes_total` stay where
//!   they were while `cache_hits` counts every repeat — and inside a
//!   fixed number of allocations: for `Create::search_answer` (the call
//!   `GET /search` makes), for `Create::search_with_policy` (the same
//!   plus a copy of the ten hits) and for the whole request through
//!   `Router::dispatch`. With a parse memo, a plan-keyed hit cache and a
//!   body memo in a row, `search_with_policy` made 33–36 and the request
//!   62–66;
//! * (g) a compacting `flush()` on a disk-backed one-shard instance —
//!   the reports sealed by a first flush, two 2-document batches flushed
//!   after it, then a third whose flush reaches the fourth segment and
//!   compacts — needs a heap high-water mark above what was live when
//!   it started that does not grow with the shard: the same bound at
//!   250, 500 and 1000 reports. Decoding the shard into a scratch index
//!   took 14.1 / 24.1 / 43.5 MB — more than the whole loaded system;
//! * (h) a publish that writes no table — attaching a tagger to the
//!   loaded shard, which republishes the shard with a new generation —
//!   makes a fixed handful of allocations and holds a few hundred bytes:
//!   the new shard shares the writer's tables (the same event column and
//!   index `Arc`s) instead of copying them. Copying them made 103 allocations
//!   and held 1 067 002 bytes above its start; copying the document
//!   store's name map, 11 and 457;
//! * (i) the sealing `flush()` of (g) — the first, which writes the
//!   whole shard as one segment — needs a heap high-water mark above its
//!   start under the same bound as the compaction, at the same three
//!   sizes: it streams each region from the shard's columns, the
//!   postings being the blob of the index's one unsealed segment, which
//!   the index already holds — 0.68 MB at every size. While the seal
//!   encoded a mutable tail it took 1.66 / 2.64 / 4.56 MB, that encoding
//!   and its term tables beside the tail's lists; streaming the
//!   postings from the tail 1.20–1.37 MB; assembling the segment in RAM
//!   first (every payload copied twice, the postings blob whole) 4.34 /
//!   6.97 / 13.26 MB, about 13 KB a report;
//! * (j) on a disk-backed one-shard instance sealed by one flush at the
//!   sizes of (g), a 2-document `ingest_gold_batch` after a publish, with
//!   the previous snapshot pinned, grows the live heap by under 512 KiB
//!   at every size: the write freezes its documents as one more segment
//!   (merging it with the unsealed one before it), copies the index's
//!   list of segment pointers and the last chunks of the columns, not
//!   the shard; its facets are the segment's own, so no
//!   facet run is copied either. While a shard-wide facet index sat
//!   beside the segments, the write copied every run it touched, 196 787
//!   / 179 698 / 239 649 bytes in all; while writes went to a mutable
//!   tail it copied the tail's tables, 0.51 / 0.44 / 0.47 MB; while the
//!   index was one dictionary, its tables and every touched list: 2.66 /
//!   3.26 / 5.02 MB at 250 / 500 / 1000 reports. The event column's
//!   share of the write — the same two reports added to a copy of the
//!   pinned column — has a bound of its own that does not grow with the
//!   shard either;
//! * (k) the 500 reports of (d) in a one-shard instance, `flush()`ed,
//!   hold under a fixed number of live bytes: every write froze its
//!   documents, so the index is frozen segments only and an in-memory
//!   `flush()` has nothing to do. While a frozen segment kept the tail's
//!   lists, the flushed instance held what the unflushed one does;
//! * (l) a tagger trained as the benchmark trains its own — 60 generated
//!   reports, the default configuration (2^18 hashed features, 27
//!   labels) — holds under 1 MiB of live heap, and
//!   `CrfTagger::heap_bytes()` — what `/stats` and the
//!   `create_resident_bytes{component="tagger"}` gauge report — is within
//!   a tenth of it: the CRF keeps emission weights only for the features
//!   its training met. While it held a dense `2^18 × 27` matrix, the
//!   tagger requested 56.6 MB. Training it reaches a heap high-water mark
//!   above its start under a fixed bound, and tagging a fixed sentence
//!   makes a fixed number of allocations;
//! * (m) on an in-memory one-shard instance at the sizes of (g), the
//!   write of (j) — a 2-document `ingest_gold_batch`, the previous
//!   snapshot pinned — grows the live heap by under the same 512 KiB at
//!   every size: nothing seals an in-memory index, and the write still
//!   copies no segment. While every write went to a mutable tail that
//!   only a `flush()` froze, the write copied the tail — the whole
//!   index — and grew the heap by 2.30 / 2.78 / 4.17 MB at 250 / 500 /
//!   1000 reports;
//! * (n) the 500 reports of (d) sealed into a disk-backed one-shard
//!   instance and reopened: its payload column holds where each payload
//!   lies in the segment file, not the payloads, so `docstore_bytes` —
//!   what `/stats` and `create_resident_bytes{component="docstore"}`
//!   report — is at most 64 bytes a document, and equals the live bytes
//!   of that column as recovery builds it (each file's payloads located
//!   by streaming its documents, in an `Arc`, in a list in manifest
//!   order). While every sealed payload stayed in RAM the column held
//!   its text, 3.96 KB a report;
//! * (o) that reopen makes under a fixed number of allocations per
//!   document: each payload decodes in one pass into its report's fields
//!   (borrowed from the block) and its annotations. While each payload
//!   was parsed into a `Value` tree first, the reopen made 121 269, 242.5
//!   a document.

use create::core::graph_build::{column_bytes, EventColumn, EventRecord};
use create::core::{Create, CreateConfig, ExtractedAnnotations, MergePolicy};
use create::corpus::{CorpusConfig, Generator};
use create::index::codec::{adopt, merge_postings};
use create::index::Index;
use create::obs::names;
use create::server::{build_api, Request, Status};
use create::storage::segment::{PayloadFile, SegmentReader};
use create::storage::Manifest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// `System`, counting calls that allocate and the bytes currently live.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// The most bytes live at once since it was last reset.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn add_live(bytes: isize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// additions are relaxed atomic counters that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        add_live(layout.size() as isize);
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
        add_live(new_size as isize - layout.size() as isize);
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
/// it: 2.8 measured (the documents' id offsets and lengths and the fuzzy
/// buckets' map, spread over the terms), and the figure repeats exactly;
/// 181.3 while every list was decoded into a `PostingList` of its own.
const TERM_OVERHEAD: usize = 4;
/// Allocations one 2-document batch may make at 500 reports: 7 016
/// measured (the standard analyzer's words, a key per term new to the
/// batch's own segment, its encoding and the frozen segment's tables,
/// the merges the tier rule makes, the copies of the tables the
/// published snapshot shares); 7 726–7 732 while every n-gram was a
/// `String` of its own, 7 734 while each event
/// record held its edges as a list, 8 047 while each
/// write added the documents to a property graph, 8 464 while ingest
/// built and serialized a BRAT export of each report, 8 526 while a
/// shard-wide facet index copied the runs a write touched, 13 498 while
/// the write copied the index's mutable tail — on an instance never
/// flushed, the whole index — 13 720 while the graph's properties were
/// `Value`s and its key tables hash maps, 13 664 while the graph's id
/// lists were one vector each, 13 666 while each shard's writer had a
/// lock of its own, 13 920 while a document store filed each report
/// three times, 16 267–16 683 while `body_ngram` stored positions,
/// 25 524 while a publish cloned a `String` per graph index key and a
/// node per 11 stored documents, 209 179 with a `Vec` per posting.
const SUBMIT_BUDGET: usize = 7_400;
/// Live bytes the loaded one-shard `Create` may hold at 500 reports:
/// 3.04 MB measured, its index frozen segments only; 3.09 MB while each
/// event record held its edges as a list, 3.76 MB while the
/// shard held a property graph, 4.60 MB while each
/// payload held a BRAT copy of its extraction, 11.07 MB while the
/// index was one mutable tail of posting lists, 14.38 MB while the
/// graph's edges were 72 bytes and
/// its properties `Value`s, 14.33 MB while the graph's index lists were one
/// `Vec` each, 14.46 MB while a document store held each report
/// as three documents, 16.57 MB while `body_ngram` stored positions —
/// 18.07 MB with the generated corpus beside it, the figure that read
/// 19.13 MB while the writer and the published snapshot held a copy of
/// the tables each, and 32.28 MB before documents were text and the
/// graph flat.
const RESIDENT_BUDGET: isize = 3_400_000;
/// Live bytes a one-shard `Create` loaded with the same 500 reports may
/// hold after a `flush()` (k): 2.96 MB measured, as before the flush
/// (3.01 MB while each event record held its edges as a list);
/// 3.68 MB while the shard held a property graph, 4.52 MB while each
/// payload held a BRAT copy of its extraction, 7.82
/// MB while the graph's edges were 72 bytes and its properties
/// `Value`s, 14.63 MB while a frozen segment kept the tail's posting
/// lists.
const FROZEN_RESIDENT_BUDGET: isize = 3_300_000;
/// `Index::postings_bytes()` of the index of (b): 1 533 420 measured,
/// 3 586 951 while recovery decoded every list, 5 310 279 while
/// `body_ngram` stored positions.
const POSTINGS_BUDGET: usize = 1_700_000;
/// Allocations a cache-hit `search_answer` may make: the lookup key's
/// copy of the query text, which is all it makes.
const HIT_ANSWER_BUDGET: usize = 1;
/// Allocations a cache-hit `search_with_policy` may make at `k` = 10: a
/// fifth over the 12 it makes (the key, the `Vec` and ten report ids).
const HIT_HITS_BUDGET: usize = 14;
/// Allocations a cache-hit `GET /search` may make through
/// `Router::dispatch`: a fifth over the 28–29 it makes, of which the
/// handler's are two (the key and the body's copy into the response)
/// and the rest the router's trace id, spans and headers.
const HIT_REQUEST_BUDGET: usize = 34;
/// Shard sizes, in reports, of the compacting flushes of (g).
const COMPACT_SIZES: [usize; 3] = [250, 500, 1000];
/// Heap a compacting flush may hold above what was live when it began,
/// at any shard size: a block of each input and of the output, one
/// term's postings, the shard's ids and its facets — 1.20–1.37 MB
/// measured at 250–1000 reports, 1.86–2.25 MB while `body_ngram` stored
/// positions. A sealing flush is held to it too.
const COMPACTION_HEAP_BUDGET: isize = 6 << 20;
/// Live bytes a 2-document batch may add, the previous snapshot pinned,
/// on a shard sealed by one flush (j) and on an in-memory shard (m), at
/// every size: 116 642 / 109 264 / 116 912 and 120 666 / 117 384 /
/// 133 224 measured at 250 / 500 / 1000 reports — the merged segment of
/// the batch and the one before it (the pinned snapshot keeps that one),
/// postings and facets, the payloads, the columns' last chunks; the
/// sealed shard copies no chunk of sealed payload texts, which its
/// column does not hold. 175 270 / 146 784 / 172 916 and 179 294 /
/// 154 904 / 189 228 while each write added its documents to a property
/// graph and copied the graph's last chunks; with the graph, 182 726 /
/// 157 616 / 192 492 on the sealed shard while its payload column held
/// sealed texts, and 178 726 / 149 520 / 176 204 and 182 750 / 157 640
/// / 192 516 while each payload held a BRAT copy of its extraction.
/// 196 787 / 179 698 / 239 649 while
/// a shard-wide facet index beside the segments copied each run the
/// write touched; on the sealed shard 0.51 / 0.44 / 0.47 MB while writes
/// copied a mutable tail, 0.79 / 0.69 / 0.91 MB while the graph's key
/// tables grew with the corpus as well; on the in-memory one 2 303 885 /
/// 2 784 385 / 4 165 349 bytes while the tail was the whole index.
const WRITE_BUDGET: isize = 1 << 19;
/// Live bytes the event column of (e) may hold: 105 828 measured (a
/// record's `Arc` and its two lists, 210 bytes a report); 163 152 while
/// each record held its temporal edges as a list (324 bytes a report);
/// the property graph of the same reports held 832 424, and 4 142 390
/// while every edge was 72 bytes, every node's properties an `Arc` slice
/// of `Value`s and every `(label, key, value)` indexed.
const COLUMN_BUDGET: isize = 116_000;
/// Live bytes two reports may add to a copy of a sealed shard's event
/// column (j), at every size: 2 500 / 4 504 / 8 644 measured at 250 /
/// 500 / 1000 reports — the clone's chunk table, its last chunk of
/// record pointers (at most 1 024 of them), the two records; 2 736 /
/// 4 704 / 8 868 while each record held its edges as a list. The
/// property graph's share was 60 896 / 41 792 / 64 416 — the clone's
/// chunk tables, the last chunk of each column and the arena's last
/// block, the head chunks of the concepts the reports link to — and
/// about 318 000 / 300 000 / 465 000 while the clone copied key tables
/// that grew with the corpus.
const COLUMN_WRITE_BUDGET: isize = 12_000;
/// Reports the tagger of (l) is trained on, as the benchmark's is.
const TAGGER_REPORTS: usize = 60;
/// Live bytes the tagger of (l) may hold: 619 637 measured (2 788 rows
/// of 27 weights and their ids, the transitions), all of it
/// `heap_bytes()`; 56 629 381 while the CRF held a dense `2^18 × 27`
/// matrix.
const TAGGER_BUDGET: isize = 1 << 20;
/// Heap training the tagger of (l) may hold above its start: a tenth
/// over the 1 500 613 measured (every sentence's feature vectors, each
/// entry's row, the distinct feature ids, the lattices of one example);
/// 57 319 914 with the dense matrix.
const TAGGER_TRAIN_HEAP_BUDGET: isize = 1_651_000;
/// Allocations one `CrfTagger::tag` of `TAGGED_SENTENCE` makes: the
/// tokens, each token's feature strings and vector, the emission lattice
/// and the Viterbi tables, the mentions — 193 measured, and the count
/// repeats exactly; 205 while the lattice was a vector per token.
const TAG_BUDGET: usize = 193;
/// The sentence (l) tags.
const TAGGED_SENTENCE: &str = "A patient was admitted to the hospital because of fever and cough.";
/// Repeats of the warmed query per measured call.
const HIT_REPEATS: usize = 40;
/// Allocations a publish that writes no table may make: 11 measured (the
/// tagger's `Arc`, the composite snapshot and its shard list, the
/// shard's `Arc`, the publish counters' label); 10 while it was a
/// dropped graph write guard's, which had no tagger to share.
const PUBLISH_BUDGET: usize = 12;
/// Bytes a document may cost the payload column of a sealed instance
/// (n): 16 measured (its payload's offset and length; a block's location
/// per 256 KiB of payloads, the file's path and descriptor beside them);
/// 3 959 while the column held every sealed payload's text.
const SEALED_DOCSTORE_PER_DOC: usize = 64;
/// Heap such a publish may hold above its start: 401 bytes measured (the
/// tagger's `Arc` among them, 24 bytes larger since the CRF holds its row
/// table), 161 while it was a dropped graph write guard's.
const PUBLISH_HEAP_BUDGET: isize = 1 << 10;
/// Allocations a disk-backed `Create::open` of the 500 reports of (n),
/// sealed, may make per document: 45.8 measured (each payload decoded in
/// one pass — its mentions' texts, its event record — and, spread over
/// the documents, the adopted segment's term tables); 242.5 while each
/// payload was parsed into a `Value` tree of `BTreeMap`s first.
const OPEN_ALLOCATIONS_PER_DOC: usize = 50;

#[test]
fn submit_and_index_stay_inside_their_allocation_budgets() {
    let reports = Generator::new(CorpusConfig {
        num_reports: REPORTS + 4,
        seed: 20260217,
        ..Default::default()
    })
    .generate();
    let empty = live_bytes();
    let system = Create::new(CreateConfig { shards: 1 });
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
         live bytes {single_copy} -> {both_copies} with the old snapshot pinned -> {after_drop} after its drop; \
         the loaded system holds {} of them",
        single_copy - empty
    );

    // (h) a publish that writes no table: attaching a tagger republishes
    // the shard with every table it had.
    let tagger = tiny_tagger(&system, &reports[..20]);
    let (events_before, index_before) = (system.events(), system.index());
    let generations_before = system.shard_generations();
    let (before, start) = (allocations(), live_bytes());
    PEAK_BYTES.store(start, Ordering::Relaxed);
    system.attach_tagger(tagger);
    let publish_allocations = allocations() - before;
    let publish_peak = PEAK_BYTES.load(Ordering::Relaxed) - start;
    println!(
        "a publish with no table written at {REPORTS} reports: {publish_allocations} \
         allocations, heap high-water {publish_peak} bytes above its start"
    );
    let republished = system.shard_generations() != generations_before;
    let shared = Arc::ptr_eq(&events_before, &system.events())
        && Arc::ptr_eq(&index_before, &system.index());
    drop((events_before, index_before));

    // (e) the event column as ingest builds it, on its own.
    let before = live_bytes();
    let mut column = EventColumn::default();
    for report in &reports {
        push_record(&mut column, report);
    }
    let column_held = live_bytes() - before;
    println!(
        "event column of {} reports: {column_held} live bytes, column_bytes {}",
        reports.len(),
        column_bytes(&column),
    );

    // (b) the index as `Create::open` builds it: a segment file's
    // postings region, read into a buffer of its own, checked and
    // adopted.
    let loaded = system.index();
    let inputs = loaded.frozen().map(|s| (s.blob(), s.blob().len() as u64));
    let mut blob = Vec::new();
    merge_postings(inputs.collect(), &loaded, &mut blob).unwrap();
    drop(loaded);
    let mut index = Index::clinical();
    let before = (allocations(), live_bytes());
    let region = blob.clone();
    index.adopt_frozen(adopt(region, &index).unwrap()).unwrap();
    let open_allocations = allocations() - before.0;
    let held = (live_bytes() - before.1) as f64;
    let counted = index.postings_bytes() as f64;
    let terms: usize = ["title", "body", "body_ngram"]
        .iter()
        .map(|field| index.vocabulary_size(field))
        .sum();
    let per_term = (held - counted) / terms as f64;
    println!(
        "index of {} docs: {open_allocations} allocations to adopt, \
         {held} live bytes for postings_bytes {counted} = {:.3}x, \
         {per_term:.1} bytes beside it for each of {terms} terms",
        index.num_docs(),
        held / counted
    );
    // (k) the same corpus in a one-shard instance, flushed: an in-memory
    // flush has nothing to do, every write having frozen its documents.
    let before = live_bytes();
    let flushed = Create::new(CreateConfig { shards: 1 });
    flushed.ingest_gold_batch(&reports[..REPORTS], 1).unwrap();
    flushed.flush().unwrap();
    let flushed_held = live_bytes() - before;
    let flushed_postings = flushed.index().postings_bytes();
    println!(
        "a flushed one-shard instance of {REPORTS} reports holds {flushed_held} live bytes, \
         postings_bytes {flushed_postings}"
    );
    drop(flushed);
    // (n) the same corpus sealed and reopened: the payload column holds
    // where the payloads lie, not the payloads.
    // (o) the same reopen: what recovering each document allocates.
    let (open_allocations, sealed_docstore, sealed_column) = sealed_column(&reports[..REPORTS]);
    println!(
        "a reopened disk-backed instance of {REPORTS} reports: {open_allocations} allocations \
         to open ({:.1} a document), docstore_bytes {sealed_docstore}, its column as recovery \
         builds it holds {sealed_column} live bytes",
        open_allocations as f64 / REPORTS as f64
    );
    // (f) a warmed query on two shards: what a hit does not do, and
    // what it allocates.
    let served = Arc::new(Create::new(CreateConfig { shards: 2 }));
    served.ingest_gold_batch(&reports[..REPORTS], 1).unwrap();
    let api = build_api(Arc::clone(&served));
    let (query, k, policy) = ("fever and cough", 10, MergePolicy::Neo4jFirst);
    let request = Request {
        method: "GET".to_string(),
        path: "/search".to_string(),
        query: [("q", query), ("k", "10")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Default::default(),
        body: Vec::new(),
    };
    // The miss, the body's one rendering, and lazily created metric and
    // recorder state all happen here.
    for _ in 0..3 {
        assert_eq!(served.search_with_policy(query, k, policy).len(), k);
        assert_eq!(api.dispatch(&request).status, Status::Ok);
    }
    let planned = || {
        let stage = |stage| {
            create::obs::histogram_with(names::QUERY_STAGE_SECONDS, &[("stage", stage)]).count()
        };
        (
            stage(names::QSTAGE_PARSE),
            stage(names::QSTAGE_PLAN),
            create::obs::counter(names::PLAN_NODES_TOTAL).get(),
        )
    };
    let (planned_before, hits_before) = (planned(), served.cache_stats().hits);
    // The most allocations any one of the repeats of `call` made.
    let most = |call: &dyn Fn()| {
        (0..HIT_REPEATS)
            .map(|_| {
                let before = allocations();
                call();
                allocations() - before
            })
            .max()
            .expect("at least one repeat")
    };
    let hit_answer = most(&|| drop(black_box(served.search_answer(query, k, policy))));
    let hit_hits = most(&|| drop(black_box(served.search_with_policy(query, k, policy))));
    let hit_request = most(&|| drop(black_box(api.dispatch(&request))));
    println!(
        "a cache-hit search at {REPORTS} reports / 2 shards: {hit_answer} allocations in search_answer, \
         {hit_hits} in search_with_policy, {hit_request} in GET /search through Router::dispatch"
    );
    assert_eq!(
        planned(),
        planned_before,
        "a hit parsed or planned: (parse, plan, plan nodes) observations moved"
    );
    assert_eq!(
        served.cache_stats().hits - hits_before,
        3 * HIT_REPEATS as u64,
        "every repeat of the warmed query is one cache hit"
    );
    for (what, made, budget) in [
        ("search_answer", hit_answer, HIT_ANSWER_BUDGET),
        ("search_with_policy", hit_hits, HIT_HITS_BUDGET),
        ("GET /search", hit_request, HIT_REQUEST_BUDGET),
    ] {
        assert!(
            made <= budget,
            "a cache-hit {what} made {made} allocations, budget {budget}"
        );
    }
    // (l) a tagger trained as the benchmark's: what it holds, what
    // training it needs, what tagging a sentence allocates.
    let tagger_reports = Generator::new(CorpusConfig {
        num_reports: TAGGER_REPORTS,
        seed: 0xC0FFEE,
        ..Default::default()
    })
    .generate();
    let dataset = create::ner::NerDataset::from_reports(
        &tagger_reports,
        create::ner::LabelSet::ner_targets(),
    );
    let mut tagger = None;
    let before = live_bytes();
    let train_peak = peak_above(|| {
        tagger = Some(create::ner::CrfTagger::train(
            &dataset,
            create::ner::CrfTaggerConfig::default(),
            Some(system.ontology()),
            None,
        ))
    });
    let tagger = tagger.expect("trained");
    let tagger_held = live_bytes() - before;
    let tag_allocations = (0..HIT_REPEATS)
        .map(|_| {
            let before = allocations();
            black_box(tagger.tag(TAGGED_SENTENCE));
            allocations() - before
        })
        .max()
        .expect("at least one repeat");
    println!(
        "a tagger trained on {TAGGER_REPORTS} reports: {tagger_held} live bytes, heap_bytes {}; \
         training reached {train_peak} bytes above its start; a tag made {tag_allocations} \
         allocations",
        tagger.heap_bytes()
    );
    // (g) the heap a compacting flush needs, at three shard sizes.
    let corpus = Generator::new(CorpusConfig {
        num_reports: COMPACT_SIZES[2] + 6,
        seed: 20261015,
        ..Default::default()
    })
    .generate();
    let (seal_peaks, compaction_peaks): (Vec<isize>, Vec<isize>) = COMPACT_SIZES
        .iter()
        .map(|&size| flush_peaks(&corpus[..size + 6]))
        .unzip();
    println!(
        "a sealing flush at {COMPACT_SIZES:?} reports: heap high-water {seal_peaks:?} bytes \
         above the live bytes before it; a compacting flush: {compaction_peaks:?}"
    );
    // (j) a write after a seal, the previous snapshot pinned, and the
    // event column's share of it.
    let (sealed_writes, column_writes): (Vec<isize>, Vec<isize>) = COMPACT_SIZES
        .iter()
        .map(|&size| sealed_write_growth(&corpus[..size + 4]))
        .unzip();
    println!(
        "a 2-document submit on a shard sealed at {COMPACT_SIZES:?} reports, \
         the old snapshot pinned: {sealed_writes:?} live bytes added, \
         {column_writes:?} of them the event column's"
    );
    // (m) the same write on an in-memory shard, which nothing seals.
    let memory_writes: Vec<isize> = COMPACT_SIZES
        .iter()
        .map(|&size| in_memory_write_growth(&corpus[..size + 4]))
        .collect();
    println!(
        "a 2-document submit on an in-memory shard of {COMPACT_SIZES:?} reports, \
         the old snapshot pinned: {memory_writes:?} live bytes added"
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
        index.postings_bytes() <= POSTINGS_BUDGET,
        "the index's postings_bytes is {counted}, budget {POSTINGS_BUDGET}"
    );
    assert!(
        both_copies > after_drop && after_drop as f64 <= 1.03 * single_copy as f64,
        "dropping the old snapshot left {after_drop} bytes live, single copy was {single_copy}"
    );
    assert!(
        single_copy - empty <= RESIDENT_BUDGET,
        "the loaded system holds {} live bytes, budget {RESIDENT_BUDGET}",
        single_copy - empty
    );
    assert!(
        flushed_held <= FROZEN_RESIDENT_BUDGET,
        "the flushed system holds {flushed_held} live bytes, budget {FROZEN_RESIDENT_BUDGET}"
    );
    assert!(
        republished && shared,
        "attaching a tagger republished the shard: {republished}, sharing its event column \
         and index: {shared}"
    );
    assert!(
        publish_allocations <= PUBLISH_BUDGET && publish_peak <= PUBLISH_HEAP_BUDGET,
        "a publish with nothing written made {publish_allocations} allocations \
         (budget {PUBLISH_BUDGET}) and held {publish_peak} bytes above its start \
         (budget {PUBLISH_HEAP_BUDGET})"
    );
    assert!(
        column_held <= COLUMN_BUDGET,
        "the event column of {} reports holds {column_held} live bytes, budget {COLUMN_BUDGET}",
        reports.len()
    );
    let ratio = column_bytes(&column) as f64 / column_held as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "the event column holds {column_held} live bytes but column_bytes() says {} \
         ({ratio:.3}x)",
        column_bytes(&column)
    );
    assert!(
        tagger_held <= TAGGER_BUDGET,
        "the tagger holds {tagger_held} live bytes, budget {TAGGER_BUDGET}"
    );
    let ratio = tagger.heap_bytes() as f64 / tagger_held as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "the tagger holds {tagger_held} live bytes but heap_bytes() says {} ({ratio:.3}x)",
        tagger.heap_bytes()
    );
    assert!(
        train_peak <= TAGGER_TRAIN_HEAP_BUDGET,
        "training the tagger reached {train_peak} bytes above its start, \
         budget {TAGGER_TRAIN_HEAP_BUDGET}"
    );
    assert!(
        tag_allocations <= TAG_BUDGET,
        "a tag made {tag_allocations} allocations, budget {TAG_BUDGET}"
    );
    for ((size, grew), column) in COMPACT_SIZES.iter().zip(&sealed_writes).zip(&column_writes) {
        assert!(
            *grew <= WRITE_BUDGET,
            "a 2-document submit on a shard sealed at {size} reports added {grew} live bytes, \
             budget {WRITE_BUDGET}"
        );
        assert!(
            *column <= COLUMN_WRITE_BUDGET,
            "a 2-document write to the event column of {size} reports added {column} live \
             bytes, budget {COLUMN_WRITE_BUDGET}"
        );
    }
    for (size, grew) in COMPACT_SIZES.iter().zip(&memory_writes) {
        assert!(
            *grew <= WRITE_BUDGET,
            "a 2-document submit on an in-memory shard of {size} reports added {grew} live \
             bytes, budget {WRITE_BUDGET}"
        );
    }
    assert!(
        sealed_docstore <= SEALED_DOCSTORE_PER_DOC * REPORTS,
        "the sealed instance's docstore_bytes is {sealed_docstore}, budget \
         {SEALED_DOCSTORE_PER_DOC} a document"
    );
    assert!(
        open_allocations <= OPEN_ALLOCATIONS_PER_DOC * REPORTS,
        "opening {REPORTS} sealed reports made {open_allocations} allocations, budget \
         {OPEN_ALLOCATIONS_PER_DOC} a document"
    );
    assert_eq!(
        sealed_docstore as isize, sealed_column,
        "docstore_bytes against the live bytes of the column it counts"
    );
    for (what, peaks) in [("sealing", &seal_peaks), ("compacting", &compaction_peaks)] {
        for (size, peak) in COMPACT_SIZES.iter().zip(peaks) {
            assert!(
                *peak <= COMPACTION_HEAP_BUDGET,
                "a {what} flush at {size} reports reached {peak} bytes above its start, \
                 budget {COMPACTION_HEAP_BUDGET}"
            );
        }
    }
}

/// The heap high-water mark `run` reaches above the bytes live before it.
fn peak_above(run: impl FnOnce()) -> isize {
    let before = live_bytes();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    run();
    PEAK_BYTES.load(Ordering::Relaxed) - before
}

/// Seals all but the last six of `reports` into a fresh disk-backed
/// one-shard instance, then the rest two at a time, flushing after each;
/// the last flush compacts. The heap high-water marks of the first
/// (sealing) flush and of the last (compacting) one.
fn flush_peaks(reports: &[create::corpus::CaseReport]) -> (isize, isize) {
    let dir = std::env::temp_dir().join(format!(
        "create-alloc-compact-{}-{}",
        std::process::id(),
        reports.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let system = Create::open(&dir, CreateConfig { shards: 1 }).unwrap();
    let (bulk, small) = reports.split_at(reports.len() - 6);
    system.ingest_gold_batch(bulk, 1).unwrap();
    let seal = peak_above(|| system.flush().unwrap());
    let mut compaction = 0;
    for pair in small.chunks(2) {
        system.ingest_gold_batch(pair, 1).unwrap();
        compaction = peak_above(|| system.flush().unwrap());
    }
    let shard = dir.join(create::storage::STORAGE_DIR).join("shard-0");
    let segments = std::fs::read_dir(&shard)
        .unwrap()
        .filter(|entry| {
            let path = entry.as_ref().unwrap().path();
            path.extension().is_some_and(|ext| ext == "seg")
        })
        .count();
    assert_eq!(segments, 1, "the fourth flush compacts the shard");
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
    (seal, compaction)
}

/// A small CRF tagger over the gold annotations of `reports`.
fn tiny_tagger(system: &Create, reports: &[create::corpus::CaseReport]) -> create::ner::CrfTagger {
    create::ner::CrfTagger::train(
        &create::ner::NerDataset::from_reports(reports, create::ner::LabelSet::ner_targets()),
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

/// Appends a report's event record to `column`, as ingest does.
fn push_record(column: &mut EventColumn, report: &create::corpus::CaseReport) {
    let annotations = ExtractedAnnotations::from_gold(report);
    column.push(Arc::new(EventRecord::new(
        report.metadata.year,
        &annotations,
    )));
}

/// Seals all but the last four of `reports` into a fresh disk-backed
/// one-shard instance with one flush, submits two more (a publish whose
/// index holds them unsealed), then — that snapshot pinned — the last
/// two. The
/// live bytes the last submit added, and the live bytes the same two
/// reports add to a copy of the pinned snapshot's event column: the
/// column's share of the write, the clone and the copies `Writer::apply`
/// makes.
fn sealed_write_growth(reports: &[create::corpus::CaseReport]) -> (isize, isize) {
    let dir = std::env::temp_dir().join(format!(
        "create-alloc-sealed-{}-{}",
        std::process::id(),
        reports.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let system = Create::open(&dir, CreateConfig { shards: 1 }).unwrap();
    let (bulk, small) = reports.split_at(reports.len() - 4);
    system.ingest_gold_batch(bulk, 1).unwrap();
    system.flush().unwrap();
    system.ingest_gold_batch(&small[..2], 1).unwrap();
    let previous = system.snapshot();
    let pinned = system.events();
    let before = live_bytes();
    let mut column = (*pinned).clone();
    for report in &small[2..] {
        push_record(&mut column, report);
    }
    let column_grew = live_bytes() - before;
    drop((column, pinned));
    let before = live_bytes();
    system.ingest_gold_batch(&small[2..], 1).unwrap();
    let grew = live_bytes() - before;
    drop(previous);
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
    (grew, column_grew)
}

/// Loads all but the last four of `reports` into an in-memory one-shard
/// instance, submits two more, then — that snapshot pinned — the last
/// two. The live bytes the last submit added.
fn in_memory_write_growth(reports: &[create::corpus::CaseReport]) -> isize {
    let system = Create::new(CreateConfig { shards: 1 });
    let (bulk, small) = reports.split_at(reports.len() - 4);
    system.ingest_gold_batch(bulk, 1).unwrap();
    system.ingest_gold_batch(&small[..2], 1).unwrap();
    let previous = system.snapshot();
    let before = live_bytes();
    system.ingest_gold_batch(&small[2..], 1).unwrap();
    let grew = live_bytes() - before;
    drop(previous);
    grew
}

/// Seals `reports` into a fresh disk-backed one-shard instance with one
/// flush and reopens it. The allocations the reopen made, its
/// `docstore_bytes`, and the live bytes of its payload column built as
/// recovery builds it: each segment file's payloads, located by
/// streaming its documents, in an `Arc`, in a list in manifest order
/// (there is no unsealed document).
fn sealed_column(reports: &[create::corpus::CaseReport]) -> (usize, usize, isize) {
    let dir = std::env::temp_dir().join(format!("create-alloc-column-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let system = Create::open(&dir, CreateConfig { shards: 1 }).unwrap();
        system.ingest_gold_batch(reports, 1).unwrap();
        system.flush().unwrap();
    }
    let before = allocations();
    let system = Create::open(&dir, CreateConfig { shards: 1 }).unwrap();
    let opened = allocations() - before;
    let docstore = system.memory_stats().docstore_bytes;
    let storage = dir.join(create::storage::STORAGE_DIR);
    let manifest = Manifest::load(&storage).unwrap().expect("a manifest");
    let shard = storage.join(create::storage::manifest::shard_dir_name(0));
    let before = live_bytes();
    let mut column: Vec<Arc<PayloadFile>> = Vec::new();
    for meta in &manifest.shards[0].segments {
        let segment = SegmentReader::open(&shard.join(&meta.file)).unwrap();
        column.push(Arc::new(segment.docs().unwrap().finish().unwrap()));
    }
    let held = live_bytes() - before;
    drop(column);
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
    (opened, docstore, held)
}
