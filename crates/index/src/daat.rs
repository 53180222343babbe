//! Query execution: a flat disjunction scored term at a time into one
//! per-document array.
//!
//! [`Index::search`](crate::Index::search) runs here, once per segment
//! of the index (see [`crate::segment`]). Every clause's postings add
//! their scores into a per-document array of the segment, list by list
//! in clause order, and the array is scanned once into a bounded top-k
//! heap (Lucene's `BooleanScorer`).
//!
//! **Equivalence invariant.** The accumulator returns rankings
//! bit-identical to
//! [`Index::search_exhaustive`](crate::Index::search_exhaustive): both
//! fold the same [`term_scores`] in clause order, a slot starting at
//! `0.0` and taking one `+=` per posting as the exhaustive walker's map
//! entry does, so the floating-point fold is the same sequence of
//! rounded additions. Top-k selection keeps the walker's order — score
//! descending, then doc id ascending — and drops a document only when it
//! ranks strictly below the k-th one, so no tie is lost.

use crate::frozen::FrozenSegment;
use crate::postings::Decoded;
use crate::query::Query;
use crate::score::{term_scores, Entry, ScoredDoc, Scorer};
use crate::stats::CorpusStats;
use create_obs::DaatStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-query scratch buffers, allocated once per `search` call
/// and shared by every segment it searches: the arrays a frozen
/// segment's lists are decoded into as the query opens its terms, and
/// the per-document score accumulator.
#[derive(Default)]
pub(crate) struct Scratch {
    decoded: Decoded,
    /// One score per document of the segment being searched, zeroed
    /// before each segment's lists are added in.
    acc: Vec<f64>,
}

/// Which of a segment's documents may enter its top k, beyond matching
/// the query.
#[derive(Clone, Copy)]
pub(crate) struct Admit<'a> {
    /// A sorted run of the segment's local doc ids (a facet bitmap
    /// intersection); `None` admits every document.
    pub(crate) allowed: Option<&'a [u32]>,
    /// The k-th score the segments before this one already gathered: a
    /// document of this segment scoring no higher cannot enter the
    /// index's top k, since it ties at best and loses on its higher
    /// global doc id, so it is refused as one below the heap's own k-th
    /// entry is.
    pub(crate) floor: Option<f64>,
}

/// Searches one segment. `global`, when present, supplies corpus
/// statistics merged across segments and shards (idf / avg_len) in
/// place of this segment's own — see [`crate::stats`]. Doc ids in
/// `admit.allowed` and in the hits are the segment's local ones.
/// `scratch` is the query's, reused by every segment it searches.
pub(crate) fn search_daat(
    index: &FrozenSegment,
    query: &Query,
    k: usize,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    scratch: &mut Scratch,
    admit: Admit,
) -> Vec<ScoredDoc> {
    if k == 0 {
        return Vec::new();
    }
    // Executor statistics, accumulated locally and flushed to the obs
    // registry in one call at the end (a no-op unless `create-obs` is
    // built with its `enabled` feature).
    let mut stats = DaatStats::default();
    accumulate(index, query, scorer, global, scratch, &mut stats);
    let hits = select_top_k(index, &scratch.acc, k, &mut stats, admit);
    create_obs::record_daat(stats);
    hits
}

/// Term-at-a-time union over the query's clauses: every posting's score
/// is added into its document's slot of `scratch.acc`, zeroed first and
/// sized to the segment, list by list in clause order — the exhaustive
/// walker's fold, in an array.
fn accumulate(
    index: &FrozenSegment,
    query: &Query,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
) {
    let Scratch { decoded, acc } = scratch;
    acc.clear();
    acc.resize(index.num_docs(), 0.0);
    for clause in &query.clauses {
        let (field, term) = (&clause.field, &clause.term);
        for (doc, score) in term_scores(index, field, term, scorer, global, decoded) {
            acc[doc as usize] += score;
            stats.postings_advanced += 1;
        }
    }
}

/// The top k of the accumulated scores, offered to a bounded heap in doc
/// order — only the slots of the (sorted) `admit.allowed` run when it is
/// set, which is the filter pushdown the cohort planner relies on. A
/// document enters only with a positive score above `admit.floor` that
/// beats the heap's k-th entry. Per-doc scores are independent sums, so
/// a filtered search ranks bit-identically to post-filtering an
/// unfiltered one.
fn select_top_k(
    index: &FrozenSegment,
    acc: &[f64],
    k: usize,
    stats: &mut DaatStats,
    admit: Admit,
) -> Vec<ScoredDoc> {
    // Sized by what can be returned, never by `k` alone: a caller's `k`
    // may be far beyond the index (a `/cohort` asking for every match).
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::with_capacity(k.min(acc.len()) + 1);
    let mut offer = |doc: u32, score: f64| {
        // `top_k`'s filter, NaN included: only positive scores rank.
        if score <= 0.0 || score.is_nan() {
            return;
        }
        let refused = admit.floor.is_some_and(|floor| score <= floor)
            || heap.len() == k && heap.peek().is_some_and(|min| Entry(score, doc) <= min.0);
        if refused {
            stats.candidates_pruned += 1;
            return;
        }
        heap.push(Reverse(Entry(score, doc)));
        if heap.len() > k {
            heap.pop();
            stats.heap_evictions += 1;
        }
    };
    match admit.allowed {
        Some(allowed) => {
            for &doc in allowed {
                if let Some(&score) = acc.get(doc as usize) {
                    offer(doc, score);
                }
            }
        }
        None => {
            for (doc, &score) in acc.iter().enumerate() {
                offer(doc as u32, score);
            }
        }
    }
    let mut entries: Vec<Entry> = heap.into_iter().map(|r| r.0).collect();
    entries.sort_by(|a, b| b.cmp(a));
    entries
        .into_iter()
        .map(|Entry(score, doc)| ScoredDoc {
            doc,
            external_id: index
                .external_id(doc)
                .expect("scored doc exists")
                .to_string(),
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FieldConfig, Index};
    use create_text::Analyzer;
    use std::sync::Arc;

    fn one_segment(docs: &[(&str, &str)]) -> Index {
        let mut idx = Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        let mut segment = idx.segment();
        for (id, text) in docs {
            segment.add_document(id, &[("body", text)], []).unwrap();
        }
        idx.merge_segment(segment).unwrap();
        idx
    }

    /// Two segments searched through one scratch: the accumulator is
    /// zeroed per segment, so segment 1's scores for its local doc 0 do
    /// not leak into segment 2's doc 0, which matches nothing.
    #[test]
    fn the_accumulator_starts_from_zero_in_every_segment() {
        let first = one_segment(&[("a0", "fever fever cough"), ("a1", "cough")]);
        let second = one_segment(&[("b0", "rash"), ("b1", "fever"), ("b2", "cough")]);
        let q = Query::term("body", "fever").or(Query::term("body", "cough"));
        let admit = Admit {
            allowed: None,
            floor: None,
        };
        let search = |idx: &Index, scratch: &mut Scratch| {
            let segment = idx.frozen().next().expect("one segment");
            search_daat(segment, &q, 10, Scorer::default(), None, scratch, admit)
        };
        let mut shared = Scratch::default();
        let ones = search(&first, &mut shared);
        assert_eq!(ones.len(), 2);
        let twos = search(&second, &mut shared);
        assert_eq!(twos, search(&second, &mut Scratch::default()));
        assert_eq!(twos, second.search_exhaustive(&q, 10, Scorer::default()));
        let ids: Vec<&str> = twos.iter().map(|h| h.external_id.as_str()).collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&"b0"), "b0 matches nothing: {ids:?}");
    }
}
