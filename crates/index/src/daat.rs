//! Document-at-a-time (DAAT) query execution, and a term-at-a-time
//! accumulator for flat disjunctions.
//!
//! [`Index::search`](crate::Index::search) runs here, once per segment
//! of the index (see [`crate::segment`]). The flat disjunctions the
//! query console actually sends (`query_string` over one or more
//! fields, fuzzy expansions, should-only bools) add every posting's
//! score into a per-document array of the segment, list by list, and
//! scan the array once into a bounded top-k heap (Lucene's
//! `BooleanScorer`). Everything else — `Bool::must`, `must_not` and
//! phrases — walks the already-sorted postings with per-term cursors
//! (galloping seeks) and intersects by merge instead of materializing
//! per-clause `HashMap`s.
//!
//! **Equivalence invariant.** Every path returns rankings bit-identical to
//! [`Index::search_exhaustive`](crate::Index::search_exhaustive):
//! per-document scores are accumulated in *clause order* (the order the
//! exhaustive walker visits clauses) through the same [`doc_score`], so
//! the floating-point fold is the same sequence of rounded additions.
//! The accumulator is the exhaustive walker's fold, in an array: a slot
//! starts at `0.0` and takes one `+=` per posting, in clause order, as
//! the walker's map entry does. Top-k selection keeps
//! the walker's order — score descending, then doc id ascending — and
//! drops a document only when it ranks strictly below the k-th one, so
//! no tie is lost.

use crate::frozen::FrozenSegment;
use crate::index::FieldRef;
use crate::postings::{Decoded, Postings, Span};
use crate::query::QueryNode;
use crate::score::{doc_score, term_scores, top_k, Entry, ScoredDoc, Scorer};
use crate::stats::CorpusStats;
use create_obs::DaatStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-query scratch buffers, allocated once per `search` call
/// and shared by every segment it searches and every node of the query
/// tree: the phrase matcher's, the arrays a frozen segment's lists are
/// decoded into as the query opens its terms, and a flat disjunction's
/// per-document score accumulator.
#[derive(Default)]
pub(crate) struct Scratch {
    starts: Vec<u32>,
    tmp: Vec<u32>,
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
    /// global doc id. The flat-disjunction path refuses such a document
    /// as it refuses one below its own heap's k-th entry; the general
    /// path ignores it.
    pub(crate) floor: Option<f64>,
}

/// DAAT entry point over one segment: a term-at-a-time accumulator for
/// flat disjunctions, merge-based evaluation for everything else.
/// `global`, when present, supplies corpus statistics merged across
/// segments and shards (idf / avg_len) in place of this segment's own —
/// see [`crate::stats`]. Doc ids in `admit.allowed` and in the hits are
/// the segment's local ones. `scratch` is the query's, reused by every
/// segment it searches.
pub(crate) fn search_daat(
    index: &FrozenSegment,
    query: &QueryNode,
    k: usize,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    scratch: &mut Scratch,
    admit: Admit,
) -> Vec<ScoredDoc> {
    // Executor statistics, accumulated locally and flushed to the obs
    // registry in one call at the end (a no-op without the `obs` feature).
    let mut stats = DaatStats::default();
    let mut specs = Vec::new();
    if flatten(index, query, &mut specs, &mut stats) {
        let hits = if k == 0 {
            Vec::new()
        } else {
            accumulate(index, &specs, scorer, global, scratch, &mut stats);
            select_top_k(index, &scratch.acc, k, &mut stats, admit)
        };
        create_obs::record_daat(stats);
        return hits;
    }
    let (mut scored, mut exclusions) = eval_node(index, query, scorer, scratch, &mut stats, global);
    exclusions.sort_unstable();
    exclusions.dedup();
    if let Some(allowed) = admit.allowed {
        scored.retain(|(d, _)| allowed.binary_search(d).is_ok());
    }
    let hits = top_k(
        index,
        scored
            .into_iter()
            .filter(|(d, _)| exclusions.binary_search(d).is_err()),
        k,
    );
    create_obs::record_daat(stats);
    hits
}

/// One scoring cursor over a term's postings.
struct TermCursor<'a> {
    postings: Postings<'a>,
    /// `postings.docs()`, the contiguous run the cursor walks and gallops.
    docs: &'a [u32],
    pos: usize,
    doc_len: &'a [u32],
    idf: f64,
    avg_len: f64,
    boost: f64,
    /// Fuzzy-expansion damping (`1 / (1 + distance)`), applied after the
    /// base score exactly as the exhaustive walker does.
    damp: Option<f64>,
    /// Postings this cursor moved past (advances + seek deltas), for the
    /// `daat_postings_advanced` counter.
    moves: u64,
}

/// A term a cursor will walk: where its postings lie, decoded into the
/// query's scratch, and how to score them. Every list a query walks at once is opened before any is read,
/// since decoding appends to the scratch.
struct Opened<'s> {
    span: Span,
    field: FieldRef<'s>,
    idf: f64,
    avg_len: f64,
    damp: Option<f64>,
}

impl<'s> Opened<'s> {
    /// `None` when the field or term is absent (the clause matches
    /// nothing, mirroring an empty `term_scores`). With `global` set,
    /// idf and avg_len come from the merged cross-shard statistics. The
    /// postings' positions are decoded only when `positions` asks.
    fn open(
        index: &'s FrozenSegment,
        field: &str,
        term: &str,
        positions: bool,
        damp: Option<f64>,
        global: Option<&CorpusStats>,
        decoded: &mut Decoded,
    ) -> Option<Self> {
        let fi = index.field(field)?;
        let span = index.open(field, term, positions, decoded)?;
        let (idf, avg_len) = match global {
            Some(g) => (g.idf(field, term), g.avg_len(field)),
            None => (index.idf(field, term), fi.avg_len()),
        };
        Some(Opened {
            span,
            field: fi,
            idf,
            avg_len: avg_len.max(1.0),
            damp,
        })
    }

    /// The cursor over the postings, read from `decoded` once every list
    /// is open.
    fn cursor<'a>(self, decoded: &'a Decoded) -> TermCursor<'a>
    where
        's: 'a,
    {
        let postings = decoded.get(self.span);
        TermCursor {
            postings,
            docs: postings.docs(),
            pos: 0,
            doc_len: self.field.doc_len,
            idf: self.idf,
            avg_len: self.avg_len,
            boost: self.field.boost,
            damp: self.damp,
            moves: 0,
        }
    }
}

impl<'a> TermCursor<'a> {
    #[inline]
    fn current(&self) -> Option<u32> {
        self.docs.get(self.pos).copied()
    }

    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
        self.moves += 1;
    }

    /// Positions the cursor at the first posting with `doc >= target`
    /// by galloping out of the current position, then binary-searching
    /// the bracketed window.
    fn seek(&mut self, target: u32) {
        let docs = self.docs;
        if self.pos >= docs.len() || docs[self.pos] >= target {
            return;
        }
        let start = self.pos;
        let mut step = 1;
        let mut lo = self.pos; // invariant: docs[lo] < target
        let mut hi = lo + step;
        while hi < docs.len() && docs[hi] < target {
            lo = hi;
            step *= 2;
            hi = lo + step;
        }
        let hi = hi.min(docs.len());
        self.pos = lo + docs[lo..hi].partition_point(|&d| d < target);
        self.moves += (self.pos - start) as u64;
    }

    /// Term positions in the current document.
    #[inline]
    fn positions(&self) -> &'a [u32] {
        self.postings.positions(self.pos)
    }

    /// The score of a posting of this term with frequency `tf` in `doc`
    /// — the same expression `term_scores` evaluates, so the bits match.
    #[inline]
    fn score(&self, scorer: Scorer, doc: u32, tf: u32) -> f64 {
        let s = doc_score(
            scorer,
            self.idf,
            tf as f64,
            self.doc_len[doc as usize] as f64,
            self.avg_len,
            self.boost,
        );
        match self.damp {
            Some(d) => s * d,
            None => s,
        }
    }

    /// This term's score contribution for the current document.
    #[inline]
    fn score_at(&self, scorer: Scorer) -> f64 {
        self.score(scorer, self.docs[self.pos], self.postings.tf(self.pos))
    }
}

/// A flattened scoring clause: one term cursor to open.
struct CursorSpec<'a> {
    field: &'a str,
    term: &'a str,
    damp: Option<f64>,
}

/// Flattens a pure disjunction (terms, fuzzy expansions, and nested
/// should-only bools) into cursor specs in clause order. Returns false —
/// leaving `out` unusable — when the tree has `must`/`must_not`/phrase
/// structure, which takes the general path instead.
fn flatten<'a>(
    index: &'a FrozenSegment,
    node: &'a QueryNode,
    out: &mut Vec<CursorSpec<'a>>,
    stats: &mut DaatStats,
) -> bool {
    match node {
        QueryNode::Term { field, term } => {
            out.push(CursorSpec {
                field,
                term,
                damp: None,
            });
            true
        }
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            for (expanded, dist) in expand(index, field, term, *max_edits, stats) {
                out.push(CursorSpec {
                    field,
                    term: expanded,
                    damp: Some(1.0 / (1.0 + dist as f64)),
                });
            }
            true
        }
        QueryNode::Bool {
            must,
            should,
            must_not,
        } if must.is_empty() && must_not.is_empty() => {
            should.iter().all(|sub| flatten(index, sub, out, stats))
        }
        _ => false,
    }
}

/// A fuzzy node's expansions in one segment, counted.
fn expand<'s>(
    index: &'s FrozenSegment,
    field: &str,
    term: &str,
    max_edits: usize,
    stats: &mut DaatStats,
) -> Vec<(&'s str, usize)> {
    let expansions = index.fuzzy_candidates(field, term, max_edits);
    stats.fuzzy_expansions += expansions.len() as u64;
    expansions
}

/// Term-at-a-time union over a flat disjunction's lists: every
/// posting's score is added into its document's slot of `scratch.acc`,
/// zeroed first and sized to the segment, list by list in clause order
/// — the exhaustive walker's fold, in an array.
fn accumulate(
    index: &FrozenSegment,
    specs: &[CursorSpec],
    scorer: Scorer,
    global: Option<&CorpusStats>,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
) {
    let Scratch { decoded, acc, .. } = scratch;
    acc.clear();
    acc.resize(index.num_docs(), 0.0);
    for s in specs {
        decoded.clear();
        let Some(opened) = Opened::open(index, s.field, s.term, false, s.damp, global, decoded)
        else {
            continue;
        };
        let cursor = opened.cursor(decoded);
        let mut start = 0;
        for (&doc, &end) in cursor.docs.iter().zip(cursor.postings.ends()) {
            acc[doc as usize] += cursor.score(scorer, doc, end - start);
            start = end;
        }
        stats.postings_advanced += cursor.docs.len() as u64;
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

/// Evaluates a node into `(sorted scored docs, exclusion docs)`. The
/// exclusion list propagates upward (the exhaustive walker shares one
/// exclusion set across the whole tree) except across `must` boundaries,
/// where it is applied locally — same semantics, merge-based execution.
fn eval_node(
    index: &FrozenSegment,
    node: &QueryNode,
    scorer: Scorer,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
) -> (Vec<(u32, f64)>, Vec<u32>) {
    match node {
        QueryNode::Term { field, term } => (
            term_scores(index, field, term, scorer, global, &mut scratch.decoded),
            Vec::new(),
        ),
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            let expansions = expand(index, field, term, *max_edits, stats);
            let decoded = &mut scratch.decoded;
            (
                eval_fuzzy(index, field, expansions, scorer, global, decoded),
                Vec::new(),
            )
        }
        QueryNode::Phrase { field, terms } => (
            eval_phrase(index, field, terms, scorer, scratch, stats, global),
            Vec::new(),
        ),
        QueryNode::Bool {
            must,
            should,
            must_not,
        } => {
            let mut exclusions = Vec::new();
            let mut parts: Vec<Vec<(u32, f64)>> = Vec::new();
            if !must.is_empty() {
                let mut clause_lists = Vec::with_capacity(must.len());
                for sub in must {
                    let (mut list, mut sub_excl) =
                        eval_node(index, sub, scorer, scratch, stats, global);
                    if !sub_excl.is_empty() {
                        sub_excl.sort_unstable();
                        sub_excl.dedup();
                        list.retain(|(d, _)| sub_excl.binary_search(d).is_err());
                    }
                    clause_lists.push(list);
                }
                parts.push(intersect_sum(clause_lists));
            }
            for sub in should {
                let (list, sub_excl) = eval_node(index, sub, scorer, scratch, stats, global);
                parts.push(list);
                exclusions.extend(sub_excl);
            }
            for sub in must_not {
                neg_docs(index, sub, scratch, stats, &mut exclusions);
            }
            (union_sum(parts), exclusions)
        }
    }
}

/// Documents matching a node under `must_not` (scores irrelevant).
fn neg_docs(
    index: &FrozenSegment,
    node: &QueryNode,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    out: &mut Vec<u32>,
) {
    match node {
        QueryNode::Term { field, term } => {
            if let Some(postings) = index.read(field, term, &mut scratch.decoded) {
                out.extend_from_slice(postings.docs());
            }
        }
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            for (expanded, _) in expand(index, field, term, *max_edits, stats) {
                if let Some(postings) = index.read(field, expanded, &mut scratch.decoded) {
                    out.extend_from_slice(postings.docs());
                }
            }
        }
        QueryNode::Phrase { field, terms } => {
            // Scores are discarded under must_not, so shard-local
            // statistics are fine here.
            out.extend(
                eval_phrase(index, field, terms, scorer_for_neg(), scratch, stats, None)
                    .into_iter()
                    .map(|(d, _)| d),
            );
        }
        QueryNode::Bool { must, should, .. } => {
            for sub in must.iter().chain(should) {
                neg_docs(index, sub, scratch, stats, out);
            }
        }
    }
}

/// Scorer used when only match/no-match matters (phrase exclusion).
fn scorer_for_neg() -> Scorer {
    Scorer::default()
}

/// Fuzzy node: damped union over the (sorted) expansion terms, summed per
/// doc in expansion order — the same fold the exhaustive walker performs.
fn eval_fuzzy(
    index: &FrozenSegment,
    field: &str,
    expansions: Vec<(&str, usize)>,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    decoded: &mut Decoded,
) -> Vec<(u32, f64)> {
    let lists: Vec<Vec<(u32, f64)>> = expansions
        .into_iter()
        .map(|(expanded, dist)| {
            let damp = 1.0 / (1.0 + dist as f64);
            term_scores(index, field, expanded, scorer, global, decoded)
                .into_iter()
                .map(|(doc, s)| (doc, s * damp))
                .collect()
        })
        .collect();
    union_sum(lists)
}

/// Phrase node: leapfrog intersection over the member-term cursors, with
/// adjacency checked by merge over the (sorted) position lists and the
/// member scores read straight off the cursors — one pass, no per-doc
/// `term_scores` rescan. A phrase of two or more terms over a field
/// without positions matches nothing, as in the exhaustive baseline.
fn eval_phrase(
    index: &FrozenSegment,
    field: &str,
    terms: &[String],
    scorer: Scorer,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
) -> Vec<(u32, f64)> {
    let Scratch {
        starts,
        tmp,
        decoded,
        ..
    } = scratch;
    if terms.is_empty() {
        return Vec::new();
    }
    if terms.len() == 1 {
        return term_scores(index, field, &terms[0], scorer, global, decoded);
    }
    if !index.field(field).is_some_and(|fi| fi.positions) {
        return Vec::new();
    }
    decoded.clear();
    let mut opened = Vec::with_capacity(terms.len());
    for t in terms {
        match Opened::open(index, field, t, true, None, global, decoded) {
            Some(o) => opened.push(o),
            None => return Vec::new(),
        }
    }
    let mut cursors: Vec<TermCursor> = opened.into_iter().map(|o| o.cursor(decoded)).collect();
    let mut out = Vec::new();
    'outer: while let Some(mut target) = cursors[0].current() {
        let mut aligned = false;
        while !aligned {
            aligned = true;
            for c in cursors.iter_mut() {
                c.seek(target);
                match c.current() {
                    None => break 'outer,
                    Some(d) if d > target => {
                        target = d;
                        aligned = false;
                    }
                    _ => {}
                }
            }
        }
        let matches = adjacency_matches(&cursors, starts, tmp);
        if matches > 0 {
            let mut score = 0.0;
            for c in &cursors {
                score += c.score_at(scorer);
            }
            out.push((target, score * (1.0 + 0.5 * matches as f64)));
        }
        for c in cursors.iter_mut() {
            c.advance();
        }
    }
    stats.postings_advanced += cursors.iter().map(|c| c.moves).sum::<u64>();
    out
}

/// Counts phrase occurrences in the aligned doc: start positions of the
/// first term that every later term follows at the right offset.
fn adjacency_matches(cursors: &[TermCursor], starts: &mut Vec<u32>, tmp: &mut Vec<u32>) -> usize {
    starts.clear();
    starts.extend_from_slice(cursors[0].positions());
    for (offset, c) in cursors[1..].iter().enumerate() {
        let shift = offset as u32 + 1;
        let positions = c.positions();
        tmp.clear();
        let (mut i, mut j) = (0, 0);
        while i < starts.len() && j < positions.len() {
            let want = starts[i] + shift;
            match positions[j].cmp(&want) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    tmp.push(starts[i]);
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => i += 1,
            }
        }
        std::mem::swap(starts, tmp);
        if starts.is_empty() {
            return 0;
        }
    }
    starts.len()
}

/// Intersection of sorted scored lists; each surviving doc's score is the
/// clause-order sum (first clause's score as the base, then each later
/// clause's contribution in order).
fn intersect_sum(mut lists: Vec<Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    if lists.is_empty() {
        return Vec::new();
    }
    if lists.len() == 1 {
        return lists.pop().expect("len checked");
    }
    let (first, rest) = lists.split_first().expect("len checked");
    let mut pos = vec![0usize; rest.len()];
    let mut out = Vec::new();
    'outer: for &(doc, base) in first {
        let mut total = base;
        for (i, list) in rest.iter().enumerate() {
            pos[i] += list[pos[i]..].partition_point(|&(d, _)| d < doc);
            match list.get(pos[i]) {
                Some(&(d, s)) if d == doc => total += s,
                Some(_) => continue 'outer,
                None => break 'outer,
            }
        }
        out.push((doc, total));
    }
    out
}

/// Union of sorted scored lists; each doc's score is the sum of its
/// per-list contributions, folded in list order from zero — identical to
/// the exhaustive walker's map accumulation.
fn union_sum(mut lists: Vec<Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    if lists.is_empty() {
        return Vec::new();
    }
    if lists.len() == 1 {
        return lists.pop().expect("len checked");
    }
    let mut pos = vec![0usize; lists.len()];
    let mut out = Vec::new();
    loop {
        let mut min_doc: Option<u32> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(d, _)) = list.get(pos[i]) {
                min_doc = Some(match min_doc {
                    Some(m) if m <= d => m,
                    _ => d,
                });
            }
        }
        let Some(doc) = min_doc else { break };
        let mut total = 0.0;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(d, s)) = list.get(pos[i]) {
                if d == doc {
                    total += s;
                    pos[i] += 1;
                }
            }
        }
        out.push((doc, total));
    }
    out
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
        let q = QueryNode::Bool {
            must: Vec::new(),
            should: vec![
                QueryNode::term("body", "fever"),
                QueryNode::term("body", "cough"),
            ],
            must_not: Vec::new(),
        };
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
