//! Scoring and top-k retrieval.
//!
//! BM25 with the Lucene-standard parameters (`k1 = 1.2`, `b = 0.75`) is the
//! default; TF-IDF is provided for the ranking ablation (E4 extension).
//!
//! [`Index::search`] executes via [`crate::daat`], a per-document score
//! array. [`Index::search_exhaustive`] is the original map-based walker,
//! kept as the reference baseline — the equivalence suite asserts the
//! two return bit-identical rankings. Both fold [`term_scores`], which
//! evaluates [`doc_score`], the single source of truth for the
//! per-(term, doc) expression, so their floats cannot drift apart.

use crate::daat::{Admit, Scratch};
use crate::frozen::FrozenSegment;
use crate::index::Index;
use crate::postings::Decoded;
use crate::query::Query;
use crate::stats::CorpusStats;
use std::collections::{BinaryHeap, HashMap};

/// Ranking function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scorer {
    /// Okapi BM25.
    Bm25 {
        /// Term-frequency saturation.
        k1: f64,
        /// Length normalization.
        b: f64,
    },
    /// Classic lnc-style TF-IDF.
    TfIdf,
}

impl Default for Scorer {
    fn default() -> Self {
        Scorer::Bm25 { k1: 1.2, b: 0.75 }
    }
}

/// One ranked hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDoc {
    /// Internal doc id.
    pub doc: u32,
    /// External id.
    pub external_id: String,
    /// Relevance score.
    pub score: f64,
}

/// The per-(term, document) score — the one expression both execution
/// paths evaluate (through [`term_scores`]), so rankings agree
/// bit-for-bit.
#[inline]
pub(crate) fn doc_score(
    scorer: Scorer,
    idf: f64,
    tf: f64,
    len: f64,
    avg_len: f64,
    boost: f64,
) -> f64 {
    let score = match scorer {
        Scorer::Bm25 { k1, b } => {
            idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len / avg_len))
        }
        Scorer::TfIdf => (1.0 + tf.ln()) * idf / len.max(1.0).sqrt(),
    };
    score * boost
}

/// Heap entry ordering hits by `(score, doc id descending)` so the max-heap
/// pops highest score first with doc-ascending tiebreak. `total_cmp` makes
/// the order total without assuming finiteness.
#[derive(PartialEq)]
pub(crate) struct Entry(pub(crate) f64, pub(crate) u32);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
    }
}

/// The exhaustive walker's top-k selection: keep positive scores, pop
/// the k best from a max-heap over [`Entry`].
pub(crate) fn top_k(
    segment: &FrozenSegment,
    scored: impl IntoIterator<Item = (u32, f64)>,
    k: usize,
) -> Vec<ScoredDoc> {
    let mut heap: BinaryHeap<Entry> = scored
        .into_iter()
        .filter(|(_, s)| *s > 0.0)
        .map(|(d, s)| Entry(s, d))
        .collect();
    let mut out = Vec::with_capacity(k.min(heap.len()));
    while out.len() < k {
        let Some(Entry(score, doc)) = heap.pop() else {
            break;
        };
        out.push(ScoredDoc {
            doc,
            external_id: segment
                .external_id(doc)
                .expect("scored doc exists")
                .to_string(),
            score,
        });
    }
    out
}

impl Index {
    /// Runs a query and returns the top-`k` hits, highest score first.
    /// Ties break on internal doc id for determinism.
    ///
    /// Scores into a per-document array (see [`crate::daat`]); rankings
    /// are bit-identical to [`Index::search_exhaustive`].
    pub fn search(&self, query: &Query, k: usize, scorer: Scorer) -> Vec<ScoredDoc> {
        self.search_with_stats(query, k, scorer, None)
    }

    /// Like [`Index::search`], but scoring with externally supplied
    /// corpus statistics (idf / avg_len) instead of this index's own.
    ///
    /// This is the shard-local leg of a scatter-gather search: every
    /// shard scores against the *merged*
    /// [`CorpusStats`] of all shards, so
    /// per-document scores are bit-identical to what one monolithic index
    /// holding the union of the shards would produce. With `stats: None`
    /// this is exactly [`Index::search`].
    pub fn search_with_stats(
        &self,
        query: &Query,
        k: usize,
        scorer: Scorer,
        stats: Option<&CorpusStats>,
    ) -> Vec<ScoredDoc> {
        let mut scratch = Scratch::default();
        self.gather(query, k, stats, None, |segment, stats, admit| {
            crate::daat::search_daat(segment, query, k, scorer, stats, &mut scratch, admit)
        })
    }

    /// Like [`Index::search_with_stats`], but restricted to the sorted
    /// `allowed` doc-id run (a facet bitmap intersection). Docs outside
    /// the run are skipped before scoring — this is the planner's filter
    /// pushdown. Because per-doc scores are independent, the result is
    /// bit-identical to exhaustively searching then discarding docs not
    /// in `allowed` (the naive post-filter order the equivalence tests
    /// compare against).
    pub fn search_filtered(
        &self,
        query: &Query,
        k: usize,
        scorer: Scorer,
        stats: Option<&CorpusStats>,
        allowed: &[u32],
    ) -> Vec<ScoredDoc> {
        let mut scratch = Scratch::default();
        self.gather(query, k, stats, Some(allowed), |segment, stats, admit| {
            crate::daat::search_daat(segment, query, k, scorer, stats, &mut scratch, admit)
        })
    }

    /// The original exhaustive executor: adds every clause's scores into
    /// a map, clause by clause, then heap-selects the top-k. Kept as the
    /// reference baseline the accumulator is verified against (the
    /// equivalence suite runs it).
    pub fn search_exhaustive(&self, query: &Query, k: usize, scorer: Scorer) -> Vec<ScoredDoc> {
        self.gather(query, k, None, None, |segment, stats, _| {
            let mut scores: HashMap<u32, f64> = HashMap::new();
            let mut decoded = Decoded::default();
            for clause in &query.clauses {
                let (field, term) = (&clause.field, &clause.term);
                for (doc, score) in term_scores(segment, field, term, scorer, stats, &mut decoded) {
                    *scores.entry(doc).or_insert(0.0) += score;
                }
            }
            top_k(segment, scores, k)
        })
    }

    /// Runs `search` on every segment holding documents — each scoring
    /// under statistics merged over the whole index (`stats`, or collected
    /// here), so a document scores what it would in one segment — and
    /// gathers the hits by `(score total_cmp desc, global doc asc)`: the
    /// order each segment's top-k is taken in, over global ids. The
    /// argument is the one [`crate::stats`] makes for shards: a
    /// document's terms live in its own segment, so the clause-order fold
    /// visits the same contributions in the same order. Segments run
    /// oldest first, each told the k-th score gathered so far (see
    /// [`Admit::floor`](crate::daat::Admit)). An index of one segment is
    /// searched as it is, under `stats` as given.
    fn gather(
        &self,
        query: &Query,
        k: usize,
        stats: Option<&CorpusStats>,
        allowed: Option<&[u32]>,
        mut search: impl FnMut(&FrozenSegment, Option<&CorpusStats>, Admit) -> Vec<ScoredDoc>,
    ) -> Vec<ScoredDoc> {
        let filled: Vec<(u32, &FrozenSegment)> = self
            .segments()
            .filter(|(_, segment)| segment.num_docs() > 0)
            .collect();
        match filled[..] {
            [] => return Vec::new(),
            [(_, segment)] => {
                let admit = Admit {
                    allowed,
                    floor: None,
                };
                return search(segment, stats, admit);
            }
            _ => {}
        }
        let collected;
        let stats = match stats {
            Some(stats) => stats,
            None => {
                collected = CorpusStats::collect([self], query);
                &collected
            }
        };
        let mut hits: Vec<ScoredDoc> = Vec::new();
        for (base, segment) in filled {
            let end = base + segment.num_docs() as u32;
            let local: Option<Vec<u32>> = allowed.map(|run| {
                let from = run.partition_point(|&doc| doc < base);
                let to = run.partition_point(|&doc| doc < end);
                run[from..to].iter().map(|&doc| doc - base).collect()
            });
            let admit = Admit {
                allowed: local.as_deref(),
                floor: k
                    .checked_sub(1)
                    .and_then(|last| hits.get(last))
                    .map(|hit| hit.score),
            };
            hits.extend(
                search(segment, Some(stats), admit)
                    .into_iter()
                    .map(|hit| ScoredDoc {
                        doc: base + hit.doc,
                        ..hit
                    }),
            );
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
            hits.truncate(k);
        }
        hits
    }
}

/// Every posting's score of a term in one segment, in doc order: its
/// postings decoded into `decoded` (cleared first) and each scored by
/// [`doc_score`], with optional cross-shard statistics overriding the
/// segment's own idf / avg_len (see [`crate::stats`]). Empty when the
/// field or the term is absent.
pub(crate) fn term_scores<'a>(
    segment: &'a FrozenSegment,
    field: &str,
    term: &str,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    decoded: &'a mut Decoded,
) -> impl Iterator<Item = (u32, f64)> + 'a {
    let opened = segment.field(field).and_then(|fi| {
        let postings = segment.read(field, term, decoded)?;
        let (idf, avg_len) = match global {
            Some(g) => (g.idf(field, term), g.avg_len(field)),
            None => (segment.idf(field, term), fi.avg_len()),
        };
        Some((fi, postings, idf, avg_len.max(1.0)))
    });
    opened
        .into_iter()
        .flat_map(move |(fi, postings, idf, avg_len)| {
            let mut start = 0;
            let postings = postings.docs().iter().zip(postings.ends());
            postings.map(move |(&doc, &end)| {
                let (tf, len) = (end - start, fi.doc_len[doc as usize]);
                start = end;
                let score = doc_score(scorer, idf, tf as f64, len as f64, avg_len, fi.boost);
                (doc, score)
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FieldConfig, Index};
    use create_text::Analyzer;
    use std::sync::Arc;

    fn index() -> Index {
        let mut idx = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        idx.add_document("d1", &[("body", "fever cough fever chest pain")])
            .unwrap();
        idx.add_document("d2", &[("body", "fever only briefly mentioned")])
            .unwrap();
        idx.add_document("d3", &[("body", "entirely unrelated cardiac procedure")])
            .unwrap();
        idx.add_document("d4", &[("body", "pain chest discomfort persistent")])
            .unwrap();
        idx
    }

    /// Runs through `search` and asserts the exhaustive baseline returns
    /// the bit-identical ranking before handing the hits back.
    fn checked_search(idx: &Index, q: &Query, k: usize, scorer: Scorer) -> Vec<ScoredDoc> {
        let daat = idx.search(q, k, scorer);
        let exhaustive = idx.search_exhaustive(q, k, scorer);
        assert_eq!(daat.len(), exhaustive.len(), "hit counts agree");
        for (a, b) in daat.iter().zip(&exhaustive) {
            assert_eq!(a.doc, b.doc, "doc order agrees");
            assert_eq!(a.external_id, b.external_id);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "score bits agree for {}",
                a.external_id
            );
        }
        daat
    }

    #[test]
    fn term_search_ranks_by_tf() {
        let idx = index();
        let hits = checked_search(&idx, &Query::term("body", "fever"), 10, Scorer::default());
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].external_id, "d1", "doc with tf=2 ranks first");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn missing_term_returns_empty() {
        let idx = index();
        assert!(
            checked_search(&idx, &Query::term("body", "zzz"), 10, Scorer::default()).is_empty()
        );
    }

    /// `k = 0` asks for nothing and gets nothing, from an index of
    /// several segments too (the floor is the k-th hit, and there is
    /// none).
    #[test]
    fn k_zero_returns_nothing_from_several_segments() {
        let mut idx = index();
        idx.add_document("d5", &[("body", "fever at night")])
            .unwrap();
        assert!(idx.segment_count() > 1);
        for q in [
            Query::term("body", "fever"),
            Query::query_string(&idx, "body", "chest pain"),
        ] {
            assert!(checked_search(&idx, &q, 0, Scorer::default()).is_empty());
            assert!(idx
                .search_filtered(&q, 0, Scorer::default(), None, &[0, 4])
                .is_empty());
        }
    }

    #[test]
    fn a_disjunction_unions() {
        let idx = index();
        let q = Query::term("body", "fever").or(Query::term("body", "cardiac"));
        let hits = checked_search(&idx, &q, 10, Scorer::default());
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn k_limits_results() {
        let idx = index();
        let q = Query::query_string(&idx, "body", "fever cough chest pain cardiac");
        let hits = checked_search(&idx, &q, 2, Scorer::default());
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn tfidf_scorer_works() {
        let idx = index();
        let hits = checked_search(&idx, &Query::term("body", "fever"), 10, Scorer::TfIdf);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].external_id, "d1");
    }

    #[test]
    fn determinism_on_ties() {
        let mut idx = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        idx.add_document("a", &[("body", "fever")]).unwrap();
        idx.add_document("b", &[("body", "fever")]).unwrap();
        let hits = checked_search(&idx, &Query::term("body", "fever"), 10, Scorer::default());
        assert_eq!(hits[0].external_id, "a", "ties break by doc id");
    }

    #[test]
    fn single_term_ties_beyond_k_keep_the_lowest_doc_ids() {
        let mut idx = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        for id in ["a", "b", "c", "d"] {
            idx.add_document(id, &[("body", "fever")]).unwrap();
        }
        // One list, every posting at the same score: the heap must still
        // drop the later docs on the tie-break.
        let q = Query::term("body", "fever");
        let hits = checked_search(&idx, &q, 2, Scorer::default());
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), [0, 1]);
        let filtered = idx.search_filtered(&q, 2, Scorer::default(), None, &[1, 3]);
        assert_eq!(filtered.iter().map(|h| h.doc).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn idf_prefers_rare_terms() {
        let idx = index();
        // "fever" is in two documents, "cardiac" in one.
        let q = Query::term("body", "fever").or(Query::term("body", "cardiac"));
        let hits = checked_search(&idx, &q, 10, Scorer::default());
        let d3 = hits.iter().find(|h| h.external_id == "d3").unwrap();
        let d2 = hits.iter().find(|h| h.external_id == "d2").unwrap();
        assert!(d3.score > d2.score, "rare term should outweigh common term");
    }

    #[test]
    fn k_zero_returns_empty() {
        let idx = index();
        let q = Query::query_string(&idx, "body", "fever chest");
        assert!(checked_search(&idx, &q, 0, Scorer::default()).is_empty());
    }

    /// An index built of batches of any sizes, so of several segments,
    /// ranks every query bit-identically to one segment — by the
    /// accumulator, exhaustively and with a filter run — for every `k`.
    #[test]
    fn a_segmented_index_ranks_like_one_segment() {
        let docs = [
            ("d1", "fever cough fever chest pain"),
            ("d2", "fever only briefly mentioned"),
            ("d3", "entirely unrelated cardiac procedure"),
            ("d4", "pain chest discomfort persistent"),
            ("d5", "chest pain with fever and cough"),
            ("d6", "cardiac fever"),
            ("d7", "cough"),
        ];
        let build = |batches: &[usize]| {
            let mut idx = Index::new(vec![FieldConfig {
                name: "body".to_string(),
                analyzer: Arc::new(Analyzer::clinical_standard()),
                boost: 1.0,
            }]);
            let mut at = 0;
            for &n in batches {
                let mut segment = idx.segment();
                for (id, text) in &docs[at..at + n] {
                    segment.add_document(id, &[("body", text)], []).unwrap();
                }
                idx.merge_segment(segment).unwrap();
                at += n;
            }
            assert_eq!(at, docs.len());
            idx
        };
        let whole = build(&[docs.len()]);
        let queries = [
            Query::term("body", "fever"),
            Query::query_string(&whole, "body", "chest pain"),
            Query::term("body", "chest").or(Query::query_string(&whole, "body", "fever chest")),
            Query::query_string(&whole, "body", "cough cardiac pain"),
        ];
        let bits = |hits: Vec<ScoredDoc>| -> Vec<(u32, String, u64)> {
            hits.into_iter()
                .map(|h| (h.doc, h.external_id, h.score.to_bits()))
                .collect()
        };
        assert_eq!(whole.segment_count(), 1);
        for cuts in [&[1usize; 7][..], &[4, 2, 1], &[6, 1], &[5, 2], &[3, 3, 1]] {
            let segmented = build(cuts);
            assert!(segmented.segment_count() > 1, "cuts {cuts:?}");
            for q in &queries {
                for k in [1, 2, 3, 10] {
                    let what = format!("{q:?} k={k} cuts {cuts:?}");
                    let want = bits(whole.search(q, k, Scorer::default()));
                    assert_eq!(
                        bits(segmented.search(q, k, Scorer::default())),
                        want,
                        "{what}"
                    );
                    assert_eq!(
                        bits(segmented.search_exhaustive(q, k, Scorer::default())),
                        want,
                        "{what}"
                    );
                    let allowed = [0, 2, 4, 5, 6];
                    assert_eq!(
                        bits(segmented.search_filtered(q, k, Scorer::TfIdf, None, &allowed)),
                        bits(whole.search_filtered(q, k, Scorer::TfIdf, None, &allowed)),
                        "{what} filtered"
                    );
                }
                let stats = CorpusStats::collect([&segmented], q);
                assert_eq!(
                    bits(segmented.search_with_stats(q, 10, Scorer::default(), Some(&stats))),
                    bits(whole.search(q, 10, Scorer::default())),
                    "{q:?} under collected stats, cuts {cuts:?}"
                );
            }
        }
    }
}
