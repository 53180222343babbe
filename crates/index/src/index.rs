//! The multi-field inverted index.
//!
//! An [`Index`] is an ordered list of frozen segments (Lucene's segment
//! list) and nothing else. Every document enters in a [`Segment`], a
//! builder: each field owns an analyzer and a term dictionary of
//! [`PostingList`]s, positional when the analyzer's tokens carry word
//! positions, doc ids and term frequencies only when they do not (the
//! n-gram field). [`Index::merge_segment`] encodes the builder and
//! freezes the encoding on the spot (see [`crate::segment`]), so no read
//! ever sees a builder. A frozen segment is a [`FrozenSegment`]: the
//! codec's encoding of its documents, decoded a term at a time as
//! queries open terms (see [`crate::frozen`]). Documents are addressed
//! internally by dense `u32` ids and externally by caller-supplied
//! string ids (`pmid:…`).

use crate::facets::{FacetField, FacetIndex};
use crate::frozen::FrozenSegment;
use crate::postings::PostingList;
use create_text::Analyzer;
use create_util::fxhash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// A field's configuration.
pub struct FieldConfig {
    /// Field name.
    pub name: String,
    /// Analyzer used at both index and query time.
    pub analyzer: Arc<Analyzer>,
    /// Score multiplier at query time.
    pub boost: f64,
}

/// Per-field data of a [`Segment`]: the field's configuration, and the
/// postings and document lengths the builder gathered.
pub(crate) struct FieldIndex {
    pub(crate) analyzer: Arc<Analyzer>,
    pub(crate) boost: f64,
    /// Whether the postings store token positions: the analyzer's
    /// [`Analyzer::word_positions`], read once when the field is built.
    /// Without them a posting is a doc id and a term frequency, which is
    /// all BM25 reads; a phrase needs them.
    pub(crate) positions: bool,
    /// term → postings sorted by doc id.
    pub(crate) dict: FxHashMap<Box<str>, PostingList>,
    /// token count per document (0 when the doc lacks the field).
    pub(crate) doc_len: Vec<u32>,
}

impl FieldIndex {
    pub(crate) fn empty(analyzer: Arc<Analyzer>, boost: f64) -> FieldIndex {
        FieldIndex {
            positions: analyzer.word_positions(),
            analyzer,
            boost,
            dict: FxHashMap::default(),
            doc_len: Vec::new(),
        }
    }

    /// Tokenizes `text` as document `doc` and appends its postings.
    /// `doc` must be the newest id (postings stay sorted by doc). A term
    /// is copied only the first time the segment sees it.
    pub(crate) fn index_text(&mut self, doc: u32, text: &str) {
        let (dict, positions) = (&mut self.dict, self.positions);
        let mut len = 0u32;
        // Tokenizer-assigned positions survive filtering, so a dropped
        // stopword still advances the position counter — phrase queries
        // then respect the original word distance (Lucene's
        // position-increment behaviour).
        self.analyzer.for_each_term(text, |term, position| {
            len += 1;
            let postings = match dict.get_mut(term) {
                Some(postings) => postings,
                None => dict.entry(term.into()).or_default(),
            };
            if positions {
                postings.push(doc, position as u32)
            } else {
                postings.push_freq(doc)
            }
        });
        self.doc_len[doc as usize] = len;
    }
}

/// A field of one frozen segment as reads see it.
#[derive(Clone, Copy)]
pub(crate) struct FieldRef<'a> {
    /// Token count per document (0 when the doc lacks the field).
    pub(crate) doc_len: &'a [u32],
    pub(crate) total_len: u64,
    /// Documents with at least one token in the field.
    pub(crate) docs_with_field: usize,
    pub(crate) boost: f64,
    /// Whether the postings store token positions.
    pub(crate) positions: bool,
}

impl FieldRef<'_> {
    /// The average token count of the documents that have the field.
    pub(crate) fn avg_len(&self) -> f64 {
        if self.docs_with_field == 0 {
            0.0
        } else {
            self.total_len as f64 / self.docs_with_field as f64
        }
    }
}

/// The fuzzy bucket of a term: its length in chars and its first char.
pub(crate) fn bucket_of(term: &str) -> (u16, char) {
    let len = term.chars().count().min(u16::MAX as usize) as u16;
    (len, term.chars().next().unwrap_or('\0'))
}

/// The terms within `max_edits` of `term`, with their exact distances,
/// sorted by `(distance, term)`, from a field's terms grouped by
/// [`bucket_of`].
///
/// Only lengths in `[len - max_edits, len + max_edits]` can be within the
/// bound, so most of the vocabulary is never touched. Within a bucket the
/// first character routes each candidate to the cheapest sufficient
/// check:
///
/// * first chars equal — the DP runs on the affix-stripped remainder;
/// * first chars differ and `max_edits == 1` — the single edit must
///   touch position 0, so the candidate must be exactly a leading
///   substitution, deletion, or insertion (three `O(len)` comparisons,
///   no DP at all);
/// * otherwise — the bounded DP.
///
/// The result set is provably identical to a [`sweep`] of the whole
/// dictionary with `levenshtein_bounded` (asserted by the equivalence
/// suite).
pub(crate) fn scan_buckets<'a, T>(
    buckets: impl Iterator<Item = ((u16, char), T)>,
    term: &str,
    max_edits: usize,
) -> Vec<(&'a str, usize)>
where
    T: Iterator<Item = &'a str>,
{
    use create_text::distance::levenshtein_bounded_slices;
    let q: Vec<char> = term.chars().collect();
    let lo = q.len().saturating_sub(max_edits);
    let hi = q.len() + max_edits;
    let mut t_chars: Vec<char> = Vec::new();
    let mut out: Vec<(&str, usize)> = Vec::new();
    for ((bucket_len, bucket_first), terms) in buckets {
        let bucket_len = bucket_len as usize;
        if bucket_len < lo || bucket_len > hi {
            continue;
        }
        let same_first = q.first() == Some(&bucket_first);
        for t in terms {
            t_chars.clear();
            t_chars.extend(t.chars());
            let dist = if q.is_empty() || same_first {
                levenshtein_bounded_slices(&q, &t_chars, max_edits)
            } else if max_edits == 1 {
                // Differing first chars under a budget of 1: the one
                // edit must produce the candidate's first char, so the
                // remainder is fixed by which edit it was.
                let sub = t_chars.len() == q.len() && t_chars[1..] == q[1..];
                let del = t_chars[..] == q[1..];
                let ins = t_chars.len() == q.len() + 1 && t_chars[1..] == q[..];
                (sub || del || ins).then_some(1)
            } else {
                levenshtein_bounded_slices(&q, &t_chars, max_edits)
            };
            if let Some(d) = dist {
                out.push((t, d));
            }
        }
    }
    out.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    out
}

/// The exhaustive fuzzy expansion: a bounded-Levenshtein sweep over
/// `terms`, sorted by `(distance, term)` — the reference baseline
/// [`scan_buckets`] is checked against.
pub(crate) fn sweep<'a>(
    terms: impl Iterator<Item = &'a str>,
    term: &str,
    max_edits: usize,
) -> Vec<(&'a str, usize)> {
    use create_text::distance::levenshtein_bounded;
    let mut out: Vec<(&str, usize)> = terms
        .filter_map(|t| levenshtein_bounded(term, t, max_edits).map(|d| (t, d)))
        .collect();
    out.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    out
}

/// One segment's documents as a builder holds them: per field a term
/// dictionary of posting lists over dense local doc ids, and the facet
/// bitmaps over the same ids. A worker builds a batch in one
/// ([`Index::segment`]), and [`crate::codec::decode_segment`] makes one
/// of a blob. Nothing queries a builder: [`Index::merge_segment`]
/// encodes its postings ([`crate::codec::encode_segment`]) and keeps
/// only the encoding, beside the facets.
pub struct Segment {
    pub(crate) fields: FxHashMap<String, FieldIndex>,
    /// Internal id → external id.
    pub(crate) external_ids: Vec<Arc<str>>,
    /// External id → internal id (shares the `Arc<str>` with
    /// `external_ids`; `Borrow<str>` keeps `&str` lookups working).
    pub(crate) id_map: FxHashMap<Arc<str>, u32>,
    /// Every document's facet values, at its postings' id.
    pub(crate) facets: FacetIndex,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("docs", &self.external_ids.len())
            .field("fields", &self.fields.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Segment {
    /// An empty segment with this one's field configuration (analyzer
    /// `Arc`s shared, not recompiled).
    pub(crate) fn empty_like(&self) -> Segment {
        Segment {
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
            facets: FacetIndex::new(),
        }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.external_ids.len()
    }

    /// External id of a local doc id.
    pub fn external_id(&self, doc: u32) -> Option<&str> {
        self.external_ids.get(doc as usize).map(|s| &**s)
    }

    /// Indexes a document: `(field, text)` pairs, and its facet values
    /// under the same local id (duplicates collapse). Unknown fields are
    /// an error; re-adding an external id the segment holds is an error.
    /// Returns the local id.
    pub fn add_document(
        &mut self,
        external_id: &str,
        field_texts: &[(&str, &str)],
        facets: impl IntoIterator<Item = (FacetField, String)>,
    ) -> Result<u32, IndexError> {
        if self.id_map.contains_key(external_id) {
            return Err(IndexError::DuplicateDocument(external_id.to_string()));
        }
        for (field, _) in field_texts {
            if !self.fields.contains_key(*field) {
                return Err(IndexError::UnknownField((*field).to_string()));
            }
        }
        let doc = self.external_ids.len() as u32;
        let shared: Arc<str> = Arc::from(external_id);
        self.external_ids.push(Arc::clone(&shared));
        self.id_map.insert(shared, doc);
        // Every field gets a length slot for this doc.
        for fi in self.fields.values_mut() {
            fi.doc_len.push(0);
        }
        for (field, text) in field_texts {
            let fi = self.fields.get_mut(*field).expect("checked above");
            fi.index_text(doc, text);
        }
        self.facets.add_doc(doc, facets);
        Ok(doc)
    }

    /// A term's posting list (analyzed term).
    pub fn postings(&self, field: &str, term: &str) -> Option<&PostingList> {
        self.fields.get(field).and_then(|f| f.dict.get(term))
    }
}

/// The inverted index: an ordered list of frozen segments, shared by
/// `Arc` and never written again. Doc ids are global — a segment's local
/// id plus the documents of the segments before it — and dense in ingest
/// order, so the list reads as one index: the same ids, statistics and
/// rankings as a single segment holding every document.
///
/// `Clone` copies the segment list, one pointer per segment: a write
/// after a clone adds a segment (and may merge the newest ones), never
/// copying one a snapshot shares.
#[derive(Clone)]
pub struct Index {
    /// Oldest first; none is empty.
    pub(crate) frozen: Vec<Arc<FrozenSegment>>,
    /// How many of the oldest frozen segments hold sealed documents —
    /// ones a segment file holds. The tier rule never merges across this
    /// boundary, so the unsealed documents stay the suffix a seal writes
    /// (see [`crate::segment`]). 0 in an index nothing seals.
    pub(crate) sealed: usize,
    /// The field configuration, as an empty segment: what
    /// [`Index::segment`] copies and the codec checks blobs against.
    pub(crate) config: Arc<Segment>,
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("docs", &self.num_docs())
            .field("segments", &self.segment_count())
            .field("sealed", &self.sealed)
            .field("fields", &self.config.fields.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Index {
    /// Creates an index with the given fields.
    pub fn new(fields: Vec<FieldConfig>) -> Index {
        let mut map = FxHashMap::default();
        for f in fields {
            map.insert(f.name.clone(), FieldIndex::empty(f.analyzer, f.boost));
        }
        assert!(!map.is_empty(), "index needs at least one field");
        Index {
            frozen: Vec::new(),
            sealed: 0,
            config: Arc::new(Segment {
                fields: map,
                external_ids: Vec::new(),
                id_map: FxHashMap::default(),
                facets: FacetIndex::new(),
            }),
        }
    }

    /// A convenient two-field clinical index: `body` (standard analyzer)
    /// and `body_ngram` (the paper's 3–25 n-gram analyzer, lower boost).
    pub fn clinical() -> Index {
        Index::new(vec![
            FieldConfig {
                name: "title".to_string(),
                analyzer: Arc::new(Analyzer::clinical_standard()),
                boost: 2.0,
            },
            FieldConfig {
                name: "body".to_string(),
                analyzer: Arc::new(Analyzer::clinical_standard()),
                boost: 1.0,
            },
            FieldConfig {
                name: "body_ngram".to_string(),
                analyzer: Arc::new(Analyzer::clinical_ngram()),
                boost: 0.25,
            },
        ])
    }

    /// Every segment with the global id of its first document, oldest
    /// first.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (u32, &FrozenSegment)> {
        let mut base = 0u32;
        self.frozen.iter().map(move |segment| {
            let at = base;
            base += segment.num_docs() as u32;
            (at, &**segment)
        })
    }

    /// The frozen segments, oldest first.
    pub fn frozen(&self) -> impl Iterator<Item = &FrozenSegment> {
        self.frozen.iter().map(|segment| &**segment)
    }

    /// Segments, every one holding at least one document. What `/stats`
    /// reports per shard.
    pub fn segment_count(&self) -> usize {
        self.frozen.len()
    }

    /// The segment holding global doc `doc`, with its base.
    fn locate(&self, doc: u32) -> Option<(u32, &FrozenSegment)> {
        self.segments()
            .find(|(base, segment)| doc < base + segment.num_docs() as u32)
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.frozen.iter().map(|s| s.num_docs()).sum()
    }

    /// External id of an internal doc id.
    pub fn external_id(&self, doc: u32) -> Option<&str> {
        let (base, segment) = self.locate(doc)?;
        segment.external_id(doc - base)
    }

    /// Internal id for an external id.
    pub fn internal_id(&self, external: &str) -> Option<u32> {
        self.segments()
            .find_map(|(base, segment)| Some(base + segment.internal_id(external)?))
    }

    /// Indexes one document: `(field, text)` pairs, without facet values,
    /// as a one-document [`Index::merge_segment`]. Unknown fields are an
    /// error; re-adding an existing external id is an error (the CREATe
    /// pipeline never re-indexes in place). Returns the internal id.
    pub fn add_document(
        &mut self,
        external_id: &str,
        field_texts: &[(&str, &str)],
    ) -> Result<u32, IndexError> {
        let mut segment = self.segment();
        segment.add_document(external_id, field_texts, [])?;
        let doc = self.num_docs() as u32;
        self.merge_segment(segment)?;
        Ok(doc)
    }

    /// Number of distinct terms in a field: a term several segments hold
    /// counts once, so the figure does not depend on how the documents
    /// arrived. Walks every segment's terms when there are several.
    pub fn vocabulary_size(&self, field: &str) -> usize {
        match &self.frozen[..] {
            [] => 0,
            [segment] => segment.vocabulary_size(field),
            segments => {
                let terms = segments.iter().flat_map(|s| s.terms(field));
                terms.collect::<FxHashSet<&str>>().len()
            }
        }
    }

    /// Document frequency of a term in a field (term must already be
    /// analyzed/normalized).
    pub fn doc_freq(&self, field: &str, term: &str) -> usize {
        self.frozen.iter().map(|s| s.doc_freq(field, term)).sum()
    }

    /// Bytes the postings hold in RAM, summed over the segments. A
    /// segment holds its encoded blob — the ids, document lengths,
    /// front-coded terms and postings a segment file's postings region
    /// holds — and its term tables: each term's text, its end in the text
    /// and its entry's offset in the blob (4 B each), its ordinal in a
    /// fuzzy bucket (4 B) and the slots of the terms' hash index (4 B
    /// each, more than 5/4 of a slot a term). A term two segments hold is
    /// counted in each, as each holds a copy of its text. This is what
    /// those bytes occupy, not an estimate; the id and length tables, the
    /// buckets' maps and the `Arc` headers come on top. Used by the E8
    /// index-size comparison, `/stats`' `memory.postings_bytes` and
    /// `create_resident_bytes{component="postings"}`, and the benchmark's
    /// `index.ram_postings_bytes_per_doc`.
    pub fn postings_bytes(&self) -> usize {
        self.frozen.iter().map(|s| s.postings_bytes()).sum()
    }

    /// Every segment's facet bitmaps with the global id of its first
    /// document, oldest first: a segment's run shifted by its base is
    /// the run's share of the index's ids.
    pub fn facets(&self) -> impl Iterator<Item = (u32, &FacetIndex)> {
        self.segments()
            .map(|(base, segment)| (base, segment.facets()))
    }

    /// Number of distinct `(field, value)` facet runs: a value several
    /// segments hold counts once.
    pub fn facet_values(&self) -> usize {
        let mut keys: Vec<_> = self.facets().flat_map(|(_, f)| f.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// A field's configuration, for query analysis.
    pub(crate) fn field(&self, name: &str) -> Option<&FieldIndex> {
        self.config.fields.get(name)
    }
}

/// Indexing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Field name not configured.
    UnknownField(String),
    /// External id already present.
    DuplicateDocument(String),
    /// Segments do not merge into one: a term would occur 2^32 or more
    /// times in a field. Carries the codec's reason.
    FrequencyOverflow(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::UnknownField(name) => write!(f, "unknown field {name:?}"),
            IndexError::DuplicateDocument(id) => write!(f, "duplicate document {id:?}"),
            IndexError::FrequencyOverflow(reason) => {
                write!(f, "segments do not merge: {reason}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_index() -> Index {
        Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }])
    }

    #[test]
    fn add_and_lookup() {
        let mut idx = body_index();
        let d0 = idx
            .add_document("pmid:1", &[("body", "Fever and cough persisted.")])
            .unwrap();
        assert_eq!(d0, 0);
        assert_eq!(idx.num_docs(), 1);
        assert_eq!(idx.external_id(0), Some("pmid:1"));
        assert_eq!(idx.internal_id("pmid:1"), Some(0));
        // "fever" is stemmed to "fever".
        assert_eq!(idx.doc_freq("body", "fever"), 1);
        // Stopword "and" never enters the dictionary.
        assert_eq!(idx.doc_freq("body", "and"), 0);
    }

    #[test]
    fn positions_are_recorded() {
        let mut seg = body_index().segment();
        seg.add_document("d", &[("body", "fever then fever again")], [])
            .unwrap();
        let postings: Vec<_> = seg.postings("body", "fever").unwrap().iter().collect();
        assert_eq!(postings, [(0, 2, &[0, 2][..])]);
    }

    #[test]
    fn stemming_unifies_inflections() {
        let mut idx = body_index();
        idx.add_document("a", &[("body", "admitted to hospital")])
            .unwrap();
        idx.add_document("b", &[("body", "admitting physician")])
            .unwrap();
        // Both stem to "admit".
        assert_eq!(idx.doc_freq("body", "admit"), 2);
    }

    #[test]
    fn duplicate_document_rejected() {
        let mut idx = body_index();
        idx.add_document("x", &[("body", "one")]).unwrap();
        assert_eq!(
            idx.add_document("x", &[("body", "two")]),
            Err(IndexError::DuplicateDocument("x".to_string()))
        );
    }

    #[test]
    fn unknown_field_rejected() {
        let mut idx = body_index();
        assert_eq!(
            idx.add_document("x", &[("nope", "text")]),
            Err(IndexError::UnknownField("nope".to_string()))
        );
    }

    #[test]
    fn clinical_index_has_ngram_field() {
        let mut idx = Index::clinical();
        idx.add_document(
            "d",
            &[
                ("title", "Amiodarone-induced toxicity"),
                ("body", "The patient received amiodarone."),
                ("body_ngram", "The patient received amiodarone."),
            ],
        )
        .unwrap();
        // Partial-string gram lookup hits.
        assert_eq!(idx.doc_freq("body_ngram", "amioda"), 1);
        assert_eq!(idx.doc_freq("body_ngram", "darone"), 1);
    }

    #[test]
    fn the_ngram_field_stores_frequencies_without_positions() {
        let mut idx = Index::clinical();
        let text = "amiodarone then amiodarone";
        idx.add_document("d", &[("body", text), ("body_ngram", text)])
            .unwrap();
        assert!(idx.config.fields["body"].positions && !idx.config.fields["body_ngram"].positions);
        let segment = idx.frozen().next().unwrap();
        let grams = segment.postings("body_ngram", "amio").unwrap();
        assert_eq!(grams.iter().collect::<Vec<_>>(), [(0, 2, &[][..])]);
        let words = segment.postings("body", "amiodaron").unwrap();
        assert_eq!(words.iter().collect::<Vec<_>>(), [(0, 2, &[0, 2][..])]);
        // The one segment's blob holds both fields' postings, positions
        // only for `body`'s two occurrences of its one term ("then" is a
        // stopword).
        assert_eq!(idx.vocabulary_size("body"), 1);
        assert!(idx.postings_bytes() > segment.blob().len());
    }

    #[test]
    fn postings_bytes_grows_with_content() {
        let mut idx = body_index();
        let before = idx.postings_bytes();
        idx.add_document("d", &[("body", "troponin elevation observed")])
            .unwrap();
        assert!(idx.postings_bytes() > before);
    }

    #[test]
    fn avg_len_ignores_docs_without_field() {
        let mut idx = Index::clinical();
        idx.add_document("a", &[("body", "one two three four")])
            .unwrap();
        idx.add_document("b", &[("title", "only a title")]).unwrap();
        // The tier rule merged the two: one segment of both.
        assert_eq!(idx.segment_count(), 1);
        let body = idx.frozen[0].field("body").unwrap();
        assert_eq!(body.doc_len[1], 0);
        assert!(body.avg_len() > 0.0);
        assert_eq!(body.avg_len(), f64::from(body.doc_len[0]));
    }

    #[test]
    fn lookups_span_the_segments() {
        let mut idx = body_index();
        for (id, text) in [("a", "fever"), ("b", "cough fever"), ("c", "rash")] {
            idx.add_document(id, &[("body", text)]).unwrap();
        }
        assert_eq!(idx.add_document("d", &[("body", "fever")]), Ok(3));
        // "a" and "b" merged on the second write, "c" and "d" on the
        // fourth, then the two pairs.
        assert_eq!((idx.num_docs(), idx.segment_count()), (4, 1));
        idx.add_document("e", &[("body", "fever")]).unwrap();
        assert_eq!(idx.segment_count(), 2);
        let ids: Vec<_> = (0..6).map(|doc| idx.external_id(doc)).collect();
        let want = [Some("a"), Some("b"), Some("c"), Some("d"), Some("e"), None];
        assert_eq!(ids, want);
        assert_eq!(idx.internal_id("c"), Some(2));
        assert_eq!(idx.internal_id("e"), Some(4));
        assert_eq!(idx.doc_freq("body", "fever"), 4);
        assert_eq!(
            idx.vocabulary_size("body"),
            3,
            "\"fever\" in both segments counts once"
        );
        assert_eq!(
            idx.add_document("b", &[("body", "again")]),
            Err(IndexError::DuplicateDocument("b".to_string())),
            "a frozen segment's id is taken"
        );
    }
}
