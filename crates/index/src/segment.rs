//! Segments: how documents enter an [`Index`], and how its segment list
//! stays short.
//!
//! The ElasticSearch/Solr engines the paper substitutes both keep an
//! index as a list of immutable Lucene segments plus an in-memory buffer
//! that a refresh turns into one more segment; this module is our
//! equivalent. A worker thread tokenizes its shard of the batch into a
//! [`Segment`] of its own, from [`Index::segment`], whose doc ids are
//! *segment-local*, with no synchronization. The single-writer apply
//! phase then merges segments into the index's tail in deterministic
//! shard order ([`Index::merge_segment`]); a seal freezes the tail
//! ([`Index::freeze`]) into its encoding, the bytes the seal wrote to its
//! file ([`crate::frozen`]).
//!
//! Merge invariants (what makes parallel ingestion byte-identical to
//! sequential):
//!
//! 1. **Dense id remapping** — segment-local doc `i` becomes `base + i`
//!    where `base` is the tail's doc count at merge time, so merging
//!    shards 0..S in order reproduces exactly the ids sequential
//!    `add_document` calls would have assigned.
//! 2. **Sorted-postings concatenation** — every remapped id exceeds every
//!    id already in the tail, so appending a segment's (sorted) postings
//!    to the tail's (sorted) postings needs no re-sort.
//! 3. **Length-statistics recomposition** — `doc_len` concatenates,
//!    `total_len` and `docs_with_field` add, so BM25 normalization is
//!    identical to the sequential build.
//!
//! Duplicate external ids (within the segment or against the index) are
//! rejected before any mutation, keeping the merge atomic.
//!
//! **The tier rule.** Each freeze adds a segment, and every read visits
//! every segment, so after each freeze the newest frozen segments merge
//! in binary-counter fashion: the last two merge while the older one's
//! size class — the bit length of its doc count — is no larger than the
//! newer one's ([`tier_merge_width`], a pure function of the doc
//! counts). Size classes then strictly fall from oldest to newest, so an
//! index of `n` documents holds at most `bit_length(n)` frozen segments,
//! and a document is copied once per class it climbs, O(log n) times.
//! The rule never rebuilds the whole index at once the way a disk
//! compaction does: a large old segment merges only once the newer ones
//! add up to its size class. A merge is a disk compaction's kernel,
//! [`merge_postings`] over the segments' encoded blobs: the merged blob
//! is the encoding of the merged documents, and nothing is decoded.

use crate::codec::{adopt, encode_index_tail, merge_postings};
use crate::frozen::FrozenSegment;
use crate::index::{FieldIndex, Index, IndexError, Segment, SegmentRead};
use crate::postings::PostingList;
use std::sync::Arc;

/// How many of the newest frozen segments to merge into one, given each
/// frozen segment's doc count, oldest first: the last two merge while the
/// older one's size class (bit length of its doc count) is no larger than
/// the newer one's, the newer one being what merged so far. 1 (or 0 for
/// none) means nothing to merge.
pub(crate) fn tier_merge_width(docs: &[usize]) -> usize {
    let class = |n: usize| usize::BITS - n.leading_zeros();
    let Some((&newest, older)) = docs.split_last() else {
        return 0;
    };
    let mut merged = newest;
    let mut width = 1;
    for &doc_count in older.iter().rev() {
        if class(doc_count) > class(merged) {
            break;
        }
        merged += doc_count;
        width += 1;
    }
    width
}

impl Index {
    /// An empty segment with this index's field configuration (analyzer
    /// `Arc`s shared, not recompiled), for a worker to build a batch in.
    pub fn segment(&self) -> Segment {
        self.tail.empty_like()
    }

    /// Merges a segment into the tail, remapping its dense doc ids onto
    /// the end of the index's id space (see the module docs for the
    /// invariants). Fails — without mutating the index — if the segment's
    /// fields differ, any external id is already present, or a term would
    /// occur 2^32 or more times in a field of the tail. The segment's ids
    /// move in: no id is copied. Touches no frozen segment: what the
    /// merge copies of a tail a published snapshot shares is the tail's.
    pub fn merge_segment(&mut self, segment: Segment) -> Result<(), IndexError> {
        if let Some(id) = segment.external_ids.iter().find(|id| self.frozen_holds(id)) {
            return Err(IndexError::DuplicateDocument(id.to_string()));
        }
        Arc::make_mut(&mut self.tail).append(segment)
    }

    /// Whether a frozen segment holds external id `id`.
    pub(crate) fn frozen_holds(&self, id: &str) -> bool {
        self.frozen.iter().any(|s| s.internal_id(id).is_some())
    }

    /// Freezes the tail: its encoding ([`encode_index_tail`]) joins the
    /// frozen segments, and an empty tail takes its place; then the newest
    /// frozen segments merge as the tier rule says (see the module docs).
    /// A no-op on an empty tail.
    pub fn freeze(&mut self) {
        if self.tail.num_docs() == 0 {
            return;
        }
        let mut blob = Vec::new();
        encode_index_tail(self, &mut blob).expect("a Vec takes every byte");
        self.freeze_encoded(blob);
    }

    /// [`Index::freeze`] of a tail already encoded: `blob` must be what
    /// [`encode_index_tail`] wrote of it — the bytes a seal wrote to its
    /// file, which the frozen segment then keeps.
    pub fn freeze_encoded(&mut self, blob: Vec<u8>) {
        let frozen = adopt(blob, self).expect("a tail's encoding adopts");
        assert_eq!(
            frozen.num_docs(),
            self.tail.num_docs(),
            "the blob encodes the tail"
        );
        self.tail = Arc::new(self.tail.empty_like());
        self.push_frozen(frozen);
    }

    /// Adds an adopted segment — a segment file's postings region — after
    /// the frozen ones, as [`Index::freeze`] adds the tail's encoding,
    /// tier rule included. The tail must be empty: recovery adopts every
    /// file before it replays the WAL. Fails, changing nothing, when an
    /// external id is already present.
    pub fn adopt_frozen(&mut self, segment: FrozenSegment) -> Result<(), IndexError> {
        assert_eq!(self.tail.num_docs(), 0, "segments are adopted first");
        let ids = (0..segment.num_docs() as u32).map(|doc| segment.external_id(doc));
        if let Some(id) = ids.flatten().find(|id| self.frozen_holds(id)) {
            return Err(IndexError::DuplicateDocument(id.to_string()));
        }
        self.push_frozen(segment);
        Ok(())
    }

    /// Pushes a frozen segment, then merges the newest ones as the tier
    /// rule says: [`merge_postings`] of their blobs, adopted.
    fn push_frozen(&mut self, segment: FrozenSegment) {
        self.frozen.push(Arc::new(segment));
        let docs: Vec<usize> = self.frozen.iter().map(|s| s.num_docs()).collect();
        let width = tier_merge_width(&docs);
        if width < 2 {
            return;
        }
        let at = self.frozen.len() - width;
        let inputs: Vec<(&[u8], u64)> = self.frozen[at..]
            .iter()
            .map(|s| (s.blob(), s.blob().len() as u64))
            .collect();
        let mut merged = Vec::with_capacity(inputs.iter().map(|(_, len)| *len as usize).sum());
        // Past 2^32 occurrences of a term the segments stay apart.
        if merge_postings(inputs, self, &mut merged).is_err() {
            return;
        }
        let merged = adopt(merged, self).expect("merged blobs adopt");
        self.frozen.truncate(at);
        self.frozen.push(Arc::new(merged));
    }
}

impl Segment {
    /// Appends `segment`'s documents after this one's: the merge of
    /// [`Index::merge_segment`].
    fn append(&mut self, segment: Segment) -> Result<(), IndexError> {
        for name in segment.fields.keys() {
            if !self.fields.contains_key(name) {
                return Err(IndexError::UnknownField(name.clone()));
            }
        }
        for id in &segment.external_ids {
            if self.id_map.contains_key(id) {
                return Err(IndexError::DuplicateDocument(id.to_string()));
            }
        }
        // A term occurs in a field at most as often as the field has
        // tokens (true as built, and checked by the codec), so below 2^32
        // tokens no term's occurrences can overflow its `ends`; past it,
        // every term the two share is checked.
        for (name, seg_field) in &segment.fields {
            let fi = &self.fields[name];
            if fi.total_len + seg_field.total_len <= u64::from(u32::MAX) {
                continue;
            }
            for (term, seg_postings) in &seg_field.dict {
                let overflows = fi.dict.get(term).is_some_and(|postings| {
                    postings
                        .occurrences()
                        .checked_add(seg_postings.occurrences())
                        .is_none()
                });
                if overflows {
                    return Err(IndexError::FrequencyOverflow(term.to_string()));
                }
            }
        }
        let base = self.external_ids.len() as u32;
        for (local, id) in segment.external_ids.into_iter().enumerate() {
            self.external_ids.push(Arc::clone(&id));
            self.id_map.insert(id, base + local as u32);
        }
        for (name, seg_field) in segment.fields {
            let fi = self.fields.get_mut(&name).expect("checked above");
            fi.doc_len.extend(seg_field.doc_len);
            fi.total_len += seg_field.total_len;
            fi.docs_with_field += seg_field.docs_with_field;
            for (term, mut seg_postings) in seg_field.dict {
                match fi.dict.entry(term) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        FieldIndex::bucket_new_term(&mut fi.term_buckets, v.key());
                        // A first merge into an empty tail needs no
                        // remap and adopts the list wholesale; otherwise
                        // `make_mut` remaps in place a worker-local list,
                        // and copies one a published snapshot shares.
                        if base > 0 {
                            Arc::make_mut(&mut seg_postings).shift_docs(base);
                        }
                        v.insert(seg_postings);
                    }
                    // This side copies-on-write only when a published
                    // snapshot still shares the term's list.
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        PostingList::append_shifted(o.get_mut(), &seg_postings, base)
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FieldConfig;
    use create_text::Analyzer;

    const DOCS: &[(&str, &str)] = &[
        ("pmid:1", "Fever and cough persisted for three days."),
        ("pmid:2", "The patient developed fever after admission."),
        (
            "pmid:3",
            "Amiodarone-induced pulmonary toxicity was confirmed.",
        ),
        ("pmid:4", "Cough resolved; fever recurred on day five."),
        ("pmid:5", "Echocardiogram revealed myocarditis."),
        ("pmid:6", ""),
    ];

    fn sequential_index() -> Index {
        let mut idx = Index::clinical();
        for (id, text) in DOCS {
            idx.add_document(id, &[("title", id), ("body", text), ("body_ngram", text)])
                .unwrap();
        }
        idx
    }

    fn sharded_index(shards: usize) -> Index {
        let mut idx = Index::clinical();
        let chunk = DOCS.len().div_ceil(shards);
        let segments: Vec<Segment> = DOCS
            .chunks(chunk)
            .map(|docs| {
                let mut seg = idx.segment();
                for (id, text) in docs {
                    seg.add_document(id, &[("title", id), ("body", text), ("body_ngram", text)])
                        .unwrap();
                }
                seg
            })
            .collect();
        for seg in segments {
            idx.merge_segment(seg).unwrap();
        }
        idx
    }

    fn assert_identical(a: &Index, b: &Index) {
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.postings_bytes(), b.postings_bytes());
        for doc in 0..a.num_docs() as u32 {
            assert_eq!(a.external_id(doc), b.external_id(doc));
        }
        for (name, fa) in &a.tail.fields {
            let fb = b.tail.fields.get(name).expect("same fields");
            assert_eq!(fa.doc_len, fb.doc_len, "doc_len of {name}");
            assert_eq!(fa.total_len, fb.total_len, "total_len of {name}");
            assert_eq!(
                fa.docs_with_field, fb.docs_with_field,
                "docs_with_field of {name}"
            );
            assert_eq!(fa.dict.len(), fb.dict.len(), "vocab of {name}");
            for (term, pa) in &fa.dict {
                assert_eq!(
                    Some(&**pa),
                    fb.dict.get(term).map(|p| &**p),
                    "postings of {term}"
                );
            }
        }
    }

    #[test]
    fn merge_is_identical_to_sequential_for_any_shard_count() {
        let sequential = sequential_index();
        for shards in 1..=DOCS.len() + 1 {
            let sharded = sharded_index(shards);
            assert_identical(&sequential, &sharded);
        }
    }

    #[test]
    fn merged_index_is_searchable() {
        let idx = sharded_index(3);
        assert_eq!(idx.doc_freq("body", "fever"), 3);
        assert_eq!(idx.internal_id("pmid:4"), Some(3));
        let postings = idx.tail().postings("body", "fever").unwrap();
        assert_eq!(postings.docs(), [0, 1, 3]);
    }

    #[test]
    fn duplicate_across_segments_rejected_atomically() {
        let mut idx = Index::clinical();
        idx.add_document("pmid:1", &[("body", "one")]).unwrap();
        let before = idx.postings_bytes();
        let mut seg = idx.segment();
        seg.add_document("pmid:9", &[("body", "nine")]).unwrap();
        seg.add_document("pmid:1", &[("body", "dup")]).unwrap();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::DuplicateDocument("pmid:1".to_string()))
        );
        assert_eq!(idx.num_docs(), 1);
        assert_eq!(idx.postings_bytes(), before);
    }

    #[test]
    fn duplicate_within_segment_rejected() {
        let idx = Index::clinical();
        let mut seg = idx.segment();
        seg.add_document("x", &[("body", "one")]).unwrap();
        assert_eq!(
            seg.add_document("x", &[("body", "two")]),
            Err(IndexError::DuplicateDocument("x".to_string()))
        );
    }

    #[test]
    fn segment_unknown_field_rejected() {
        let idx = Index::clinical();
        let mut seg = idx.segment();
        assert_eq!(
            seg.add_document("x", &[("nope", "text")]),
            Err(IndexError::UnknownField("nope".to_string()))
        );
    }

    #[test]
    fn a_segment_of_another_configuration_is_refused() {
        let other = Index::new(vec![FieldConfig {
            name: "abstract".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        let mut seg = other.segment();
        seg.add_document("a", &[("abstract", "fever")]).unwrap();
        assert_eq!(seg.num_docs(), 1);
        let mut idx = Index::clinical();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::UnknownField("abstract".to_string()))
        );
        assert_eq!(idx.num_docs(), 0);
    }

    #[test]
    fn a_duplicate_of_a_frozen_segment_is_refused() {
        let mut idx = sequential_index();
        idx.freeze();
        let mut seg = idx.segment();
        seg.add_document("pmid:7", &[("body", "new")]).unwrap();
        seg.add_document("pmid:2", &[("body", "again")]).unwrap();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::DuplicateDocument("pmid:2".to_string()))
        );
        assert_eq!((idx.num_docs(), idx.tail().num_docs()), (DOCS.len(), 0));
    }

    #[test]
    fn the_tier_rule_merges_like_a_binary_counter() {
        assert_eq!(tier_merge_width(&[]), 0);
        assert_eq!(tier_merge_width(&[5]), 1);
        // Equal classes merge; a larger older class stops the carry.
        assert_eq!(tier_merge_width(&[1, 1]), 2);
        assert_eq!(tier_merge_width(&[2, 3]), 2);
        assert_eq!(tier_merge_width(&[4, 3]), 1);
        assert_eq!(tier_merge_width(&[8, 4, 2, 1, 1]), 5);
        assert_eq!(tier_merge_width(&[16, 4, 2, 1, 1]), 4);
        // A large old segment waits until the newer ones reach its class.
        assert_eq!(tier_merge_width(&[2000, 36, 36]), 2);
        assert_eq!(tier_merge_width(&[2000, 288, 144, 72, 36, 36]), 5);
        assert_eq!(
            tier_merge_width(&[1024, 512, 256, 128, 64, 32, 16, 8, 8]),
            9
        );
    }

    /// Whatever the freeze sizes, the frozen segments' size classes fall
    /// strictly from oldest to newest, so there are at most as many as
    /// the doc count has bits.
    #[test]
    fn frozen_segments_stay_within_the_bit_length_of_the_doc_count() {
        let bit_length = |n: usize| (usize::BITS - n.leading_zeros()) as usize;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for round in 0..40 {
            let mut docs: Vec<usize> = Vec::new();
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Shrinking, growing and equal sizes all occur.
                let size = 1 + (state % [3, 40, 500][round % 3]) as usize;
                docs.push(size);
                let width = tier_merge_width(&docs);
                if width >= 2 {
                    let at = docs.len() - width;
                    let merged = docs.drain(at..).sum();
                    docs.push(merged);
                }
                let classes: Vec<usize> = docs.iter().map(|&n| bit_length(n)).collect();
                assert!(classes.windows(2).all(|w| w[0] > w[1]), "{docs:?}");
                assert!(docs.len() <= bit_length(docs.iter().sum()), "{docs:?}");
            }
        }
    }

    #[test]
    fn freezing_keeps_ids_statistics_and_postings() {
        let sequential = sequential_index();
        for every in 1..=DOCS.len() {
            let mut idx = Index::clinical();
            for (i, (id, text)) in DOCS.iter().enumerate() {
                idx.add_document(id, &[("title", id), ("body", text), ("body_ngram", text)])
                    .unwrap();
                if (i + 1) % every == 0 {
                    idx.freeze();
                }
            }
            assert_eq!(idx.num_docs(), DOCS.len());
            for doc in 0..DOCS.len() as u32 {
                let id = sequential.external_id(doc);
                assert_eq!(idx.external_id(doc), id, "every {every}");
                assert_eq!(idx.internal_id(id.unwrap()), Some(doc));
            }
            for (field, term) in [("body", "fever"), ("body_ngram", "ough"), ("title", "pmid")] {
                assert_eq!(idx.doc_freq(field, term), sequential.doc_freq(field, term));
            }
            let bound = (usize::BITS - DOCS.len().leading_zeros()) as usize;
            assert!(idx.frozen.len() <= bound, "every {every}: {:?}", idx);
        }
    }

    #[test]
    fn avg_len_identical_after_merge() {
        let sequential = sequential_index();
        let sharded = sharded_index(2);
        for name in ["title", "body", "body_ngram"] {
            let a = sequential.tail.fields[name].view().avg_len();
            let b = sharded.tail.fields[name].view().avg_len();
            assert_eq!(a.to_bits(), b.to_bits(), "avg_len of {name}");
        }
    }
}
