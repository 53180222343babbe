//! Frozen segments: all an [`Index`] keeps of its documents — the
//! codec's own bytes.
//!
//! A [`FrozenSegment`] holds the blob
//! [`encode_segment`](crate::codec::encode_segment) wrote of its
//! documents (or [`merge_postings`](crate::codec::merge_postings) wrote
//! of several segments' — the same bytes), exactly as a segment file's
//! postings region holds it (format 5), and beside it flat tables that
//! find what a read asks for in those bytes without a pass over them:
//! per field a sorted term table (one text arena, each term's end in it
//! and the offset of its entry in the blob), a hash index of the terms'
//! ordinals, the documents' lengths and fuzzy buckets of term ordinals;
//! per document the offset of its id in the blob, and the documents in
//! id order. Nothing is allocated per term. A term's document frequency
//! is its entry's posting count, read in place, and its postings are
//! decoded when a query opens it, into the query's [`Decoded`] scratch
//! arrays — the way Lucene serves a flushed segment. Every read of an
//! index is a read of its frozen segments.
//!
//! Every frozen segment comes from [`adopt`](crate::codec::adopt), which
//! runs the codec's checks on the bytes before it keeps them; what it
//! accepted, [`decode_entry`] reads without checking again. A write
//! adopts its segment's encoding, recovery a segment file's postings
//! region, and the tier rule and a seal the merge of frozen blobs.
//! Beside the blob a frozen segment keeps its documents' facet bitmaps,
//! decoded ([`FrozenSegment::with_facets`]).

use crate::codec::{decode_entry, Positions};
use crate::facets::{FacetCodecError, FacetIndex};
use crate::index::{scan_buckets, sweep, FieldIndex, FieldRef, Index, Segment};
use crate::postings::{Decoded, PostingList, Postings, Span};
use create_util::fxhash::{FxHashMap, FxHasher};
use create_util::varint;
use std::hash::Hasher;
use std::sync::Arc;

/// A frozen segment: the codec blob of its documents, and the tables
/// that find terms and ids in it (see the module docs).
pub struct FrozenSegment {
    /// Exactly the bytes `encode_segment` writes of these documents.
    blob: Box<[u8]>,
    /// Per document, the offset in `blob` of its id's length prefix.
    ids: Box<[u32]>,
    /// The documents in external-id (byte) order.
    by_id: Box<[u32]>,
    fields: FxHashMap<String, FrozenField>,
    /// The documents' facet bitmaps, over the same local ids.
    facets: FacetIndex,
}

/// One field of a [`FrozenSegment`].
pub(crate) struct FrozenField {
    boost: f64,
    positions: bool,
    doc_len: Box<[u32]>,
    total_len: u64,
    docs_with_field: usize,
    /// Every term's text, in dictionary order, back to back.
    text: Box<str>,
    /// Term `i` is `text[ends[i - 1]..ends[i]]` (from 0 for `i == 0`).
    ends: Box<[u32]>,
    /// Per term, the offset in the blob of its entry past its text: its
    /// posting count.
    entries: Box<[u32]>,
    /// The terms' hash index: open addressing with linear probing over a
    /// power of two of slots, more than 5/4 of the terms, each the
    /// ordinal of the term whose hash led there plus one, or 0 when
    /// empty. A lookup hashes the term once and compares it with a term
    /// or two of the table.
    slots: Box<[u32]>,
    /// [`bucket_of`](crate::index::bucket_of) a term → the ordinals of
    /// the field's terms in that bucket.
    buckets: FxHashMap<(u16, char), Box<[u32]>>,
}

impl FrozenField {
    /// A field configured as `config`, of the documents' lengths
    /// `doc_len` and the term table `adopt` read: the terms' `text`, each
    /// one's end in it and the offset of its entry, and their buckets.
    pub(crate) fn new(
        config: &FieldIndex,
        doc_len: Vec<u32>,
        text: String,
        ends: Vec<u32>,
        entries: Vec<u32>,
        buckets: FxHashMap<(u16, char), Vec<u32>>,
    ) -> FrozenField {
        let mut slots = vec![0u32; (ends.len() + ends.len() / 4 + 1).next_power_of_two().max(2)];
        let mut start = 0;
        for (ordinal, &end) in ends.iter().enumerate() {
            let mut at = slot(&text[start..end as usize], slots.len());
            while slots[at] != 0 {
                at = (at + 1) & (slots.len() - 1);
            }
            slots[at] = ordinal as u32 + 1;
            start = end as usize;
        }
        FrozenField {
            slots: slots.into_boxed_slice(),
            boost: config.boost,
            positions: config.positions,
            total_len: doc_len.iter().map(|&len| u64::from(len)).sum(),
            docs_with_field: doc_len.iter().filter(|&&len| len > 0).count(),
            doc_len: doc_len.into_boxed_slice(),
            text: text.into_boxed_str(),
            ends: ends.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
            buckets: buckets
                .into_iter()
                .map(|(bucket, ordinals)| (bucket, ordinals.into_boxed_slice()))
                .collect(),
        }
    }

    /// The text of term `ordinal`.
    fn term(&self, ordinal: usize) -> &str {
        let start = ordinal.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start as usize..self.ends[ordinal] as usize]
    }

    /// The ordinal of `term`, by the hash index.
    fn ordinal(&self, term: &str) -> Option<usize> {
        let mut at = slot(term, self.slots.len());
        loop {
            let ordinal = (self.slots[at] as usize).checked_sub(1)?;
            if self.term(ordinal) == term {
                return Some(ordinal);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// What a decode of the field's postings does with their positions,
    /// when the read needs them or not.
    fn stored(&self, needed: bool) -> Positions {
        match (self.positions, needed) {
            (false, _) => Positions::Absent,
            (true, false) => Positions::Skip,
            (true, true) => Positions::Keep,
        }
    }

    /// Bytes of the term table, its hash index and the buckets' ordinals.
    fn table_bytes(&self) -> usize {
        let ordinals: usize = self.buckets.values().map(|bucket| bucket.len()).sum();
        let words = self.ends.len() + self.entries.len() + self.slots.len() + ordinals;
        self.text.len() + 4 * words
    }
}

/// The slot of `term`'s hash among `slots`, a power of two: the hash's
/// top bits, which FxHash mixes best.
fn slot(term: &str, slots: usize) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write(term.as_bytes());
    (hasher.finish() >> (u64::BITS - slots.trailing_zeros())) as usize
}

impl FrozenSegment {
    /// The segment of a checked `blob`: the offset of each document's id
    /// and the fields `adopt` read, its documents without facet values.
    pub(crate) fn new(
        blob: Vec<u8>,
        ids: Vec<u32>,
        fields: FxHashMap<String, FrozenField>,
    ) -> FrozenSegment {
        let mut segment = FrozenSegment {
            facets: FacetIndex::blank(ids.len() as u32),
            blob: blob.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
            by_id: Box::default(),
            fields,
        };
        let mut by_id: Vec<u32> = (0..segment.ids.len() as u32).collect();
        by_id.sort_unstable_by(|&a, &b| segment.id(a).cmp(segment.id(b)));
        segment.by_id = by_id.into_boxed_slice();
        segment
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.ids.len()
    }

    /// External id of a local doc id.
    pub fn external_id(&self, doc: u32) -> Option<&str> {
        ((doc as usize) < self.ids.len())
            .then(|| std::str::from_utf8(self.id(doc)).expect("adopt checked every id"))
    }

    /// The bytes the segment keeps: a segment file's postings region.
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// The documents' facet bitmaps, over the segment's local ids; their
    /// [`FacetIndex::encode`] is a segment file's facet region.
    pub fn facets(&self) -> &FacetIndex {
        &self.facets
    }

    /// The segment with `facets` as its documents' facet bitmaps, which
    /// must cover exactly its documents.
    pub fn with_facets(mut self, facets: FacetIndex) -> Result<FrozenSegment, FacetCodecError> {
        let (faceted, indexed) = (facets.num_docs(), self.num_docs());
        if faceted as usize != indexed {
            let covered = format!("the facets cover {faceted} docs, the postings {indexed}");
            return Err(FacetCodecError(covered));
        }
        self.facets = facets;
        Ok(self)
    }

    /// A field's terms, in dictionary order.
    pub fn terms(&self, field: &str) -> impl Iterator<Item = &str> + '_ {
        self.fields
            .get(field)
            .into_iter()
            .flat_map(|fi| (0..fi.ends.len()).map(move |ordinal| fi.term(ordinal)))
    }

    /// One term's postings, decoded as a phrase opening the term decodes
    /// them: positions included.
    pub fn postings(&self, field: &str, term: &str) -> Option<PostingList> {
        let mut decoded = Decoded::default();
        let span = self.open(field, term, true, &mut decoded)?;
        Some(decoded.get(span).to_list())
    }

    /// The id bytes of document `doc`, which must be in range.
    fn id(&self, doc: u32) -> &[u8] {
        let mut at = self.ids[doc as usize] as usize;
        let len = varint::read_u64(&self.blob, &mut at).expect("adopt read every id") as usize;
        &self.blob[at..at + len]
    }

    /// A term's field, and the offset in the blob of its entry's posting
    /// count.
    fn entry(&self, field: &str, term: &str) -> Option<(&FrozenField, usize)> {
        let fi = self.fields.get(field)?;
        Some((fi, fi.entries[fi.ordinal(term)?] as usize))
    }

    /// The builder segment of posting lists the blob encodes, with
    /// `template`'s field configuration: every list decoded as a query
    /// decodes it, each id one `Arc<str>` its two tables share, and the
    /// facets — what [`decode_segment`](crate::codec::decode_segment)
    /// returns.
    pub(crate) fn thaw(&self, template: &Index) -> Segment {
        let mut segment = template.segment();
        segment.facets = self.facets.clone();
        for doc in 0..self.num_docs() as u32 {
            let id: Arc<str> = Arc::from(self.external_id(doc).expect("a doc of the segment"));
            segment.external_ids.push(Arc::clone(&id));
            segment.id_map.insert(id, doc);
        }
        let mut decoded = Decoded::default();
        for (name, frozen) in &self.fields {
            let fi = segment
                .fields
                .get_mut(name)
                .expect("adopted under this configuration");
            fi.doc_len = frozen.doc_len.to_vec();
            for (ordinal, &at) in frozen.entries.iter().enumerate() {
                decoded.clear();
                let span = decode_entry(&self.blob, at as usize, frozen.stored(true), &mut decoded);
                let list = decoded.get(span).to_list();
                fi.dict.insert(frozen.term(ordinal).into(), list);
            }
        }
        segment
    }
}

impl std::fmt::Debug for FrozenSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenSegment")
            .field("docs", &self.num_docs())
            .field("blob_bytes", &self.blob.len())
            .finish()
    }
}

// What a read asks of one segment of an index, over its local doc ids.
impl FrozenSegment {
    /// Local doc id of an external id.
    pub fn internal_id(&self, external: &str) -> Option<u32> {
        let at = self
            .by_id
            .binary_search_by(|&doc| self.id(doc).cmp(external.as_bytes()))
            .ok()?;
        Some(self.by_id[at])
    }

    /// A configured field.
    pub(crate) fn field(&self, name: &str) -> Option<FieldRef<'_>> {
        self.fields.get(name).map(|fi| FieldRef {
            doc_len: &fi.doc_len,
            total_len: fi.total_len,
            docs_with_field: fi.docs_with_field,
            boost: fi.boost,
            positions: fi.positions,
        })
    }

    /// Number of distinct terms in a field.
    pub fn vocabulary_size(&self, field: &str) -> usize {
        self.fields.get(field).map_or(0, |fi| fi.ends.len())
    }

    /// Document frequency of a term in a field (term must already be
    /// analyzed/normalized).
    pub fn doc_freq(&self, field: &str, term: &str) -> usize {
        self.entry(field, term).map_or(0, |(_, mut at)| {
            varint::read_u64(&self.blob, &mut at).expect("adopt read every posting count") as usize
        })
    }

    /// Opens a term's postings: decodes them onto the end of `decoded`
    /// — without positions unless `positions` asks for them (only a
    /// phrase reads them) — and returns where they lie there. `None`
    /// when the field or the term is absent.
    pub(crate) fn open(
        &self,
        field: &str,
        term: &str,
        positions: bool,
        decoded: &mut Decoded,
    ) -> Option<Span> {
        let (fi, at) = self.entry(field, term)?;
        Some(decode_entry(&self.blob, at, fi.stored(positions), decoded))
    }

    /// A term's postings without their positions, alone in `decoded`
    /// (cleared first).
    pub(crate) fn read<'a>(
        &self,
        field: &str,
        term: &str,
        decoded: &'a mut Decoded,
    ) -> Option<Postings<'a>> {
        decoded.clear();
        let span = self.open(field, term, false, decoded)?;
        Some(decoded.get(span))
    }

    /// Dictionary terms within `max_edits` of `term`, with their exact
    /// distances, sorted by `(distance, term)`: [`scan_buckets`] over
    /// the field's fuzzy buckets.
    pub(crate) fn fuzzy_candidates(
        &self,
        field: &str,
        term: &str,
        max_edits: usize,
    ) -> Vec<(&str, usize)> {
        let Some(fi) = self.fields.get(field) else {
            return Vec::new();
        };
        let buckets = fi.buckets.iter().map(move |(&bucket, ordinals)| {
            let terms = ordinals
                .iter()
                .map(move |&ordinal| fi.term(ordinal as usize));
            (bucket, terms)
        });
        scan_buckets(buckets, term, max_edits)
    }

    /// The same set by a [`sweep`] over every term of the field: the
    /// reference baseline `fuzzy_candidates` is checked against.
    pub(crate) fn fuzzy_sweep(
        &self,
        field: &str,
        term: &str,
        max_edits: usize,
    ) -> Vec<(&str, usize)> {
        sweep(self.terms(field), term, max_edits)
    }

    /// See [`Index::postings_bytes`].
    pub fn postings_bytes(&self) -> usize {
        let tables: usize = self.fields.values().map(FrozenField::table_bytes).sum();
        self.blob.len() + tables
    }

    /// The segment's own BM25+ idf of a term, floored at a small positive
    /// value — what [`CorpusStats`](crate::CorpusStats) evaluates on
    /// statistics summed over every segment and shard.
    pub(crate) fn idf(&self, field: &str, term: &str) -> f64 {
        let n = self.num_docs() as f64;
        let df = self.doc_freq(field, term) as f64;
        if df == 0.0 {
            return 0.0;
        }
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }
}
