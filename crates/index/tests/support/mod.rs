//! What the frozen-segment suites share: a query of every kind the
//! executors know, and the check that two indexes rank each of them
//! bit-identically through every entry point.

use create_index::{Index, QueryNode, ScoredDoc, Scorer};

/// The analyzed terms of `text` in `field`, as a query string makes them.
pub fn analyzed(index: &Index, field: &str, text: &str) -> Vec<String> {
    match QueryNode::query_string(index, field, text) {
        QueryNode::Bool { should, .. } => should
            .into_iter()
            .filter_map(|node| match node {
                QueryNode::Term { term, .. } => Some(term),
                _ => None,
            })
            .collect(),
        other => panic!("a query string is a disjunction, not {other:?}"),
    }
}

/// `word` without its second character: one edit away, or two from a
/// word that differs from it elsewhere too.
fn typo(word: &str) -> String {
    word.chars()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, c)| c)
        .collect()
}

/// Queries over `words` (raw text, each analyzed by the index's own
/// analyzers) of every kind: terms of each field, `body` phrases of
/// neighbouring words, fuzzy terms at one and two edits, a flat
/// disjunction (the score-array path) and `must` / `should` / `must_not`
/// combinations (the merge path).
pub fn queries(index: &Index, words: &[&str]) -> Vec<QueryNode> {
    let body = |word: &str| analyzed(index, "body", word).into_iter().next();
    let terms: Vec<String> = words.iter().filter_map(|w| body(w)).collect();
    let mut out = Vec::new();
    for term in &terms {
        out.push(QueryNode::term("body", term));
        out.push(QueryNode::fuzzy("body", &typo(term), 1));
        out.push(QueryNode::fuzzy("body", &typo(&typo(term)), 2));
    }
    for word in words {
        for term in analyzed(index, "title", word) {
            out.push(QueryNode::term("title", &term));
        }
        // A word's first grams: short ones are common, long ones rare.
        for gram in analyzed(index, "body_ngram", word).into_iter().take(2) {
            out.push(QueryNode::term("body_ngram", &gram));
        }
    }
    for pair in terms.windows(2) {
        out.push(QueryNode::phrase("body", &[&pair[0], &pair[1]]));
    }
    out.push(QueryNode::query_string(index, "body", &words.join(" ")));
    for (i, term) in terms.iter().enumerate() {
        let next = &terms[(i + 1) % terms.len()];
        let other = &terms[(i + 2) % terms.len()];
        out.push(QueryNode::Bool {
            must: vec![QueryNode::term("body", term)],
            should: vec![
                QueryNode::term("body", next),
                QueryNode::fuzzy("body", &typo(other), 1),
            ],
            must_not: vec![QueryNode::term("body", other)],
        });
        out.push(QueryNode::Bool {
            must: vec![
                QueryNode::term("body", term),
                QueryNode::phrase("body", &[next, other]),
            ],
            should: Vec::new(),
            must_not: vec![QueryNode::fuzzy("body", &typo(next), 2)],
        });
        out.push(QueryNode::Bool {
            must: Vec::new(),
            should: vec![
                QueryNode::term("body", term),
                QueryNode::term("title", term),
            ],
            must_not: vec![QueryNode::phrase("body", &[other, term])],
        });
    }
    out
}

/// Each hit as `(doc, external id, score bits)`.
pub fn bits(hits: Vec<ScoredDoc>) -> Vec<(u32, String, u64)> {
    hits.into_iter()
        .map(|hit| (hit.doc, hit.external_id, hit.score.to_bits()))
        .collect()
}

/// Asserts that `got` ranks every query bit-identically to `want` — by
/// DAAT, exhaustively and restricted to the sorted doc-id run `allowed`,
/// at each `k` of `ks` — panicking with `label` and the query otherwise.
pub fn assert_same_rankings(
    label: &str,
    (got, want): (&Index, &Index),
    queries: &[QueryNode],
    allowed: &[u32],
    ks: &[usize],
) {
    for q in queries {
        for &k in ks {
            let what = format!("{label}: {q:?} k={k}");
            let scorer = Scorer::default();
            assert_eq!(
                bits(got.search(q, k, scorer)),
                bits(want.search(q, k, scorer)),
                "{what}"
            );
            assert_eq!(
                bits(got.search_exhaustive(q, k, scorer)),
                bits(want.search_exhaustive(q, k, scorer)),
                "{what} exhaustive"
            );
            assert_eq!(
                bits(got.search_filtered(q, k, Scorer::TfIdf, None, allowed)),
                bits(want.search_filtered(q, k, Scorer::TfIdf, None, allowed)),
                "{what} filtered"
            );
        }
    }
}
