//! Segments: how documents enter an [`Index`], and how its segment list
//! stays short.
//!
//! The ElasticSearch/Solr engines the paper substitutes both keep an
//! index as a list of immutable Lucene segments; a refresh turns the
//! in-memory buffer into one more segment, and no query reads the
//! buffer. This module is our equivalent, with publish as the refresh. A
//! worker thread tokenizes its shard of the batch into a [`Segment`] of
//! its own, from [`Index::segment`], whose doc ids are *segment-local*,
//! with no synchronization. The single-writer apply phase then hands the
//! segments to [`Index::merge_segment`] in deterministic shard order,
//! and each one is frozen there and then: encoded
//! ([`encode_segment`]), checked and kept as its encoding ([`adopt`],
//! [`crate::frozen`]), and pushed after the others. An empty segment
//! pushes nothing, so no frozen segment is empty.
//!
//! Why the result is the index sequential ingestion builds: a segment's
//! local doc `i` becomes global `base + i`, `base` being the documents of
//! the segments before it, so pushing shards 0..S in order assigns
//! exactly the ids sequential `add_document` calls would have. Reads
//! score every segment under statistics merged over the whole index
//! ([`crate::stats`]), so how the documents are cut into segments never
//! shows in a ranking. Duplicate external ids (within the segment or
//! against the index) are refused before anything changes.
//!
//! **The tier rule.** Each push adds a segment, and every read visits
//! every segment, so after each push the newest segments merge in
//! binary-counter fashion: the last two merge while the older one's size
//! class — the bit length of its doc count — is no larger than the newer
//! one's ([`tier_merge_width`], a pure function of the doc counts). Size
//! classes then strictly fall from oldest to newest, so an index of `n`
//! documents holds at most `bit_length(n)` segments, and a document is
//! copied once per class it climbs, O(log n) times. The rule never
//! rebuilds the whole index at once the way a disk compaction does: a
//! large old segment merges only once the newer ones add up to its size
//! class. A merge is a disk compaction's kernels, [`merge_postings`] over
//! the segments' encoded blobs — the merged blob is the encoding of the
//! merged documents, and nothing is decoded — and [`FacetIndex::concat`]
//! over their facets.
//!
//! **Sealing.** A disk-backed shard writes its unsealed documents to a
//! segment file at each flush. They are the segments after one boundary
//! (`Index::sealed`), and the tier rule never merges across it, so they
//! stay a suffix of their own. A seal merges that suffix into one
//! segment ([`Index::merge_unsealed`]), whose blob — by
//! [`merge_postings`]' contract the encoding of those documents — is the
//! file's postings region, and once the file is registered moves the
//! boundary to the end and runs the tier rule over the whole list
//! ([`Index::seal`]). Recovery adopts each file's region as one sealed
//! segment ([`Index::adopt_frozen`]).

use crate::codec::{adopt, encode_segment, merge_postings};
use crate::facets::FacetIndex;
use crate::frozen::FrozenSegment;
use crate::index::{Index, IndexError, Segment};
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
        self.config.empty_like()
    }

    /// Adds a segment's documents after the index's, as one more frozen
    /// segment: its encoding, checked by [`adopt`], with its facets, and
    /// pushed under the tier rule (see the module docs). Its dense doc
    /// ids follow the index's. Fails — without mutating the index — if
    /// the segment's fields differ or any external id is already present.
    /// An empty segment adds nothing.
    pub fn merge_segment(&mut self, mut segment: Segment) -> Result<(), IndexError> {
        let (config, fields) = (&self.config.fields, &segment.fields);
        let foreign = fields.keys().find(|name| !config.contains_key(*name));
        let missing = || config.keys().find(|name| !fields.contains_key(*name));
        if let Some(name) = foreign.or_else(missing) {
            return Err(IndexError::UnknownField(name.clone()));
        }
        if let Some(id) = segment.external_ids.iter().find(|id| self.frozen_holds(id)) {
            return Err(IndexError::DuplicateDocument(id.to_string()));
        }
        if segment.num_docs() == 0 {
            return Ok(());
        }
        let mut blob = Vec::new();
        encode_segment(&segment, &mut blob).expect("a Vec takes every byte");
        let facets = std::mem::take(&mut segment.facets);
        drop(segment);
        let frozen = adopt(blob, self).expect("a segment's encoding adopts");
        let frozen = frozen
            .with_facets(facets)
            .expect("a builder's facets are its docs'");
        self.frozen.push(Arc::new(frozen));
        self.tier_merge(self.sealed);
        Ok(())
    }

    /// Whether a frozen segment holds external id `id`.
    fn frozen_holds(&self, id: &str) -> bool {
        self.frozen.iter().any(|s| s.internal_id(id).is_some())
    }

    /// Adds an adopted segment — a segment file's postings and facet
    /// regions — after the others, as a sealed one ([`Index::seal`]).
    /// Every segment
    /// before it must be sealed: recovery adopts every file before it
    /// replays the WAL. Fails, changing nothing, when an external id is
    /// already present.
    pub fn adopt_frozen(&mut self, segment: FrozenSegment) -> Result<(), IndexError> {
        assert_eq!(self.sealed, self.frozen.len(), "segments are adopted first");
        let ids = (0..segment.num_docs() as u32).map(|doc| segment.external_id(doc));
        if let Some(id) = ids.flatten().find(|id| self.frozen_holds(id)) {
            return Err(IndexError::DuplicateDocument(id.to_string()));
        }
        self.frozen.push(Arc::new(segment));
        self.seal();
        Ok(())
    }

    /// Documents in sealed segments: global ids below this are in
    /// segment files.
    pub fn sealed_docs(&self) -> usize {
        self.frozen[..self.sealed]
            .iter()
            .map(|s| s.num_docs())
            .sum()
    }

    /// Merges the unsealed segments into one — [`merge_postings`] of
    /// their blobs and [`FacetIndex::concat`] of their facets; a single
    /// one stays as it is — and returns it: its blob and facets are what
    /// a seal writes as its file's postings and facet regions.
    /// `None` when every document is sealed. Fails, changing nothing,
    /// when the segments do not merge (a term would occur 2^32 or more
    /// times).
    pub fn merge_unsealed(&mut self) -> Result<Option<Arc<FrozenSegment>>, IndexError> {
        if self.frozen.len() - self.sealed > 1 {
            let merged = self.merged(self.sealed)?;
            self.frozen.truncate(self.sealed);
            self.frozen.push(Arc::new(merged));
        }
        Ok(self.frozen[self.sealed..].first().cloned())
    }

    /// Marks every document sealed: moves the boundary to the end of the
    /// segment list and runs the tier rule over the whole list.
    pub fn seal(&mut self) {
        self.tier_merge(0);
        self.sealed = self.frozen.len();
    }

    /// Merges the newest segments from `floor` on as the tier rule says
    /// (see the module docs). Past 2^32 occurrences of a term the
    /// segments stay apart.
    fn tier_merge(&mut self, floor: usize) {
        let docs: Vec<usize> = self.frozen[floor..].iter().map(|s| s.num_docs()).collect();
        let width = tier_merge_width(&docs);
        if width < 2 {
            return;
        }
        let at = self.frozen.len() - width;
        if let Ok(merged) = self.merged(at) {
            self.frozen.truncate(at);
            self.frozen.push(Arc::new(merged));
        }
    }

    /// The segments from `at` on as one: [`merge_postings`] of their
    /// blobs, adopted, with the [`FacetIndex::concat`] of their facets.
    fn merged(&self, at: usize) -> Result<FrozenSegment, IndexError> {
        let segments = &self.frozen[at..];
        let inputs: Vec<(&[u8], u64)> = segments
            .iter()
            .map(|s| (s.blob(), s.blob().len() as u64))
            .collect();
        let mut merged = Vec::with_capacity(inputs.iter().map(|(_, len)| *len as usize).sum());
        merge_postings(inputs, self, &mut merged)
            .map_err(|e| IndexError::FrequencyOverflow(e.to_string()))?;
        let facets = FacetIndex::concat(segments.iter().map(|s| s.facets()));
        let frozen = adopt(merged, self).expect("merged blobs adopt");
        Ok(frozen
            .with_facets(facets)
            .expect("merged facets cover the merged docs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facets::FacetField;
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

    fn fields<'a>(id: &'a str, text: &'a str) -> [(&'a str, &'a str); 3] {
        [("title", id), ("body", text), ("body_ngram", text)]
    }

    fn sequential_index() -> Index {
        let mut idx = Index::clinical();
        for (id, text) in DOCS {
            idx.add_document(id, &fields(id, text)).unwrap();
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
                    seg.add_document(id, &fields(id, text), []).unwrap();
                }
                seg
            })
            .collect();
        for seg in segments {
            idx.merge_segment(seg).unwrap();
        }
        idx
    }

    /// Facet values derived from a `doc:{i}` id: its parity, and a
    /// category for every third document.
    fn facets_of(id: &str) -> Vec<(FacetField, String)> {
        let i: u32 = id.trim_start_matches("doc:").parse().unwrap();
        let parity = if i % 2 == 1 { "odd" } else { "even" };
        let mut values = vec![(FacetField::Year, parity.to_string())];
        if i.is_multiple_of(3) {
            values.push((FacetField::Category, "third".to_string()));
        }
        values
    }

    /// The encoding of every document of `idx`: its segments merged.
    fn blob_of(idx: &Index) -> Vec<u8> {
        idx.merged(0).unwrap().blob().to_vec()
    }

    /// The encoding of one builder segment.
    fn encoded(segment: &Segment) -> Vec<u8> {
        let mut blob = Vec::new();
        encode_segment(segment, &mut blob).unwrap();
        blob
    }

    #[test]
    fn merge_is_identical_to_sequential_for_any_shard_count() {
        let sequential = sequential_index();
        for shards in 1..=DOCS.len() + 1 {
            let sharded = sharded_index(shards);
            assert_eq!(sharded.num_docs(), DOCS.len());
            for doc in 0..DOCS.len() as u32 {
                assert_eq!(sharded.external_id(doc), sequential.external_id(doc));
            }
            assert!(blob_of(&sharded) == blob_of(&sequential), "{shards} shards");
        }
    }

    #[test]
    fn merged_index_is_searchable() {
        let idx = sharded_index(3);
        assert_eq!(idx.doc_freq("body", "fever"), 3);
        assert_eq!(idx.internal_id("pmid:4"), Some(3));
        let whole = idx.merged(0).unwrap();
        let postings = whole.postings("body", "fever").unwrap();
        assert_eq!(postings.docs(), [0, 1, 3]);
    }

    #[test]
    fn duplicate_across_segments_rejected_atomically() {
        let mut idx = Index::clinical();
        idx.add_document("pmid:1", &[("body", "one")]).unwrap();
        let before = idx.postings_bytes();
        let mut seg = idx.segment();
        seg.add_document("pmid:9", &[("body", "nine")], []).unwrap();
        seg.add_document("pmid:1", &[("body", "dup")], []).unwrap();
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
        seg.add_document("x", &[("body", "one")], []).unwrap();
        assert_eq!(
            seg.add_document("x", &[("body", "two")], []),
            Err(IndexError::DuplicateDocument("x".to_string()))
        );
    }

    #[test]
    fn segment_unknown_field_rejected() {
        let idx = Index::clinical();
        let mut seg = idx.segment();
        assert_eq!(
            seg.add_document("x", &[("nope", "text")], []),
            Err(IndexError::UnknownField("nope".to_string()))
        );
    }

    #[test]
    fn a_segment_of_another_configuration_is_refused() {
        let config = |names: &[&str]| {
            let fields = names.iter().map(|name| FieldConfig {
                name: name.to_string(),
                analyzer: Arc::new(Analyzer::clinical_standard()),
                boost: 1.0,
            });
            Index::new(fields.collect())
        };
        let mut seg = config(&["abstract"]).segment();
        seg.add_document("a", &[("abstract", "fever")], []).unwrap();
        assert_eq!(seg.num_docs(), 1);
        let mut idx = Index::clinical();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::UnknownField("abstract".to_string()))
        );
        let mut seg = config(&["title", "body"]).segment();
        seg.add_document("a", &[("body", "fever")], []).unwrap();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::UnknownField("body_ngram".to_string()))
        );
        assert_eq!(idx.num_docs(), 0);
    }

    #[test]
    fn a_duplicate_of_a_frozen_segment_is_refused() {
        let mut idx = sequential_index();
        let segments = idx.segment_count();
        let mut seg = idx.segment();
        seg.add_document("pmid:7", &[("body", "new")], []).unwrap();
        seg.add_document("pmid:2", &[("body", "again")], [])
            .unwrap();
        assert_eq!(
            idx.merge_segment(seg),
            Err(IndexError::DuplicateDocument("pmid:2".to_string()))
        );
        assert_eq!(
            (idx.num_docs(), idx.segment_count()),
            (DOCS.len(), segments)
        );
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

    /// Whatever the push sizes, the segments' size classes fall strictly
    /// from oldest to newest, so there are at most as many as the doc
    /// count has bits.
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
    fn batches_of_any_size_keep_ids_statistics_and_postings() {
        let sequential = sequential_index();
        let bound = (usize::BITS - DOCS.len().leading_zeros()) as usize;
        for every in 1..=DOCS.len() {
            let mut idx = Index::clinical();
            for batch in DOCS.chunks(every) {
                let mut seg = idx.segment();
                for (id, text) in batch {
                    seg.add_document(id, &fields(id, text), []).unwrap();
                }
                idx.merge_segment(seg).unwrap();
                assert!(idx.segment_count() <= bound, "every {every}: {idx:?}");
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
            assert!(blob_of(&idx) == blob_of(&sequential), "every {every}");
        }
    }

    /// Random batch sizes and seal points: the tier rule never merges a
    /// sealed segment with an unsealed one, a seal of the unsealed
    /// segments writes the encoding of one builder segment holding their
    /// documents — postings and facets — and an empty segment pushes
    /// nothing.
    #[test]
    fn a_seal_writes_the_encoding_of_the_unsealed_documents() {
        const SEED: u64 = 0x5EA1_0B0D;
        println!("seal seed {SEED:#x}");
        let docs: Vec<(String, String)> = (0..90)
            .map(|i| {
                (
                    format!("doc:{i}"),
                    format!("{} {i}", DOCS[i % DOCS.len()].1),
                )
            })
            .collect();
        let builder = |idx: &Index, docs: &[(String, String)]| {
            let mut seg = idx.segment();
            for (id, text) in docs {
                seg.add_document(id, &fields(id, text), facets_of(id))
                    .unwrap();
            }
            seg
        };
        let mut state = SEED;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below) as usize
        };
        for round in 0..12 {
            let mut idx = Index::clinical();
            let mut at = 0;
            while at < docs.len() {
                let n = (1 + next(9)).min(docs.len() - at);
                let sealed: Vec<Arc<FrozenSegment>> = idx.frozen[..idx.sealed].to_vec();
                idx.merge_segment(builder(&idx, &docs[at..at + n])).unwrap();
                at += n;
                let kept = sealed
                    .iter()
                    .zip(&idx.frozen)
                    .all(|(a, b)| Arc::ptr_eq(a, b));
                assert!(
                    kept && idx.sealed == sealed.len(),
                    "round {round} at {at}: the tier rule merged across the boundary"
                );
                let segments = idx.segment_count();
                idx.merge_segment(idx.segment()).unwrap();
                assert_eq!(idx.segment_count(), segments, "an empty segment pushed");

                if next(4) == 0 || at == docs.len() {
                    let from = idx.sealed_docs();
                    let unsealed = idx.merge_unsealed().unwrap().expect("unsealed docs");
                    assert_eq!(idx.segment_count(), idx.sealed + 1);
                    let want = builder(&idx, &docs[from..at]);
                    assert!(
                        unsealed.blob() == encoded(&want)
                            && unsealed.facets().encode() == want.facets.encode(),
                        "round {round}: the seal of docs {from}..{at} is not their encoding"
                    );
                    idx.seal();
                    assert_eq!(idx.sealed_docs(), at);
                    assert!(idx.merge_unsealed().unwrap().is_none());
                }
            }
            let mut whole = Index::clinical();
            whole.merge_segment(builder(&whole, &docs)).unwrap();
            assert!(blob_of(&idx) == blob_of(&whole), "round {round}");
            let facets = idx.merged(0).unwrap().facets().encode();
            assert!(facets == whole.merged(0).unwrap().facets().encode());
            // Each segment's runs, shifted by its base, are the whole's.
            let shifted: Vec<u32> = idx
                .facets()
                .flat_map(|(base, fx)| {
                    let run = fx.run(FacetField::Year, "odd").unwrap_or_default();
                    run.iter().map(move |doc| base + doc)
                })
                .collect();
            let odd: Vec<u32> = (0..docs.len() as u32).filter(|d| d % 2 == 1).collect();
            assert_eq!(shifted, odd, "round {round}");
        }
    }
}
