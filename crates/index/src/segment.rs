//! Shard-local index segments for parallel ingestion.
//!
//! The ElasticSearch/Solr engines the paper substitutes both build
//! per-shard Lucene segments that merge into one searchable index; this
//! module is our equivalent. A worker thread tokenizes its shard of the
//! batch into a segment — an [`Index`] of its own, from
//! [`Index::segment`], whose doc ids are *segment-local* — with no
//! synchronization. The single-writer apply phase then merges segments
//! back into the shard's index in deterministic shard order.
//!
//! Merge invariants (what makes parallel ingestion byte-identical to
//! sequential):
//!
//! 1. **Dense id remapping** — segment-local doc `i` becomes global
//!    `base + i` where `base` is the index's doc count at merge time, so
//!    merging shards 0..S in order reproduces exactly the ids sequential
//!    `add_document` calls would have assigned.
//! 2. **Sorted-postings concatenation** — every remapped id exceeds every
//!    id already in the index, so appending a segment's (sorted) postings
//!    to the index's (sorted) postings needs no re-sort.
//! 3. **Length-statistics recomposition** — `doc_len` concatenates,
//!    `total_len` and `docs_with_field` add, so BM25 normalization is
//!    identical to the sequential build.
//!
//! Duplicate external ids (within the segment or against the index) are
//! rejected before any mutation, keeping the merge atomic.

use crate::index::{FieldIndex, Index, IndexError};
use crate::postings::PostingList;
use create_util::fxhash::FxHashMap;
use std::sync::Arc;

impl Index {
    /// An empty index with this index's field configuration (analyzer
    /// `Arc`s shared, not recompiled), for a worker to build a segment
    /// in.
    pub fn segment(&self) -> Index {
        Index {
            fields: self
                .fields
                .iter()
                .map(|(name, fi)| {
                    (
                        name.clone(),
                        FieldIndex::empty(fi.analyzer.clone(), fi.boost),
                    )
                })
                .collect(),
            external_ids: Vec::new(),
            id_map: FxHashMap::default(),
        }
    }

    /// Merges a segment into the index, remapping its dense doc ids onto
    /// the end of the index's id space (see the module docs for the
    /// invariants). Fails — without mutating the index — if the segment's
    /// fields differ, any external id is already present, or a term would
    /// occur 2^32 or more times in a field. The segment's ids move in:
    /// no id is copied.
    pub fn merge_segment(&mut self, segment: Index) -> Result<(), IndexError> {
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
                        // A first merge into an empty index (the recovery
                        // path) needs no remap and adopts the segment's
                        // list wholesale; otherwise the list is
                        // worker-local, so `make_mut` remaps in place.
                        if base > 0 {
                            Arc::make_mut(&mut seg_postings).shift_docs(base);
                        }
                        v.insert(seg_postings);
                    }
                    // The index side copies-on-write only when a
                    // published snapshot still shares the term's list.
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
        let segments: Vec<Index> = DOCS
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
        for (name, fa) in &a.fields {
            let fb = b.fields.get(name).expect("same fields");
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
        let postings = idx.postings("body", "fever").unwrap();
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
    fn standalone_segment_construction() {
        let mut seg = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        seg.add_document("a", &[("body", "fever")]).unwrap();
        assert_eq!(seg.num_docs(), 1);
        let mut idx = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        idx.merge_segment(seg).unwrap();
        assert_eq!(idx.doc_freq("body", "fever"), 1);
    }

    #[test]
    fn avg_len_identical_after_merge() {
        let sequential = sequential_index();
        let sharded = sharded_index(2);
        for name in ["title", "body", "body_ngram"] {
            let a = sequential.fields.get(name).unwrap().avg_len();
            let b = sharded.fields.get(name).unwrap().avg_len();
            assert_eq!(a.to_bits(), b.to_bits(), "avg_len of {name}");
        }
    }
}
