//! What the frozen-segment suites share: queries of every shape the
//! product sends — one term, a query string, a disjunction across the
//! fields, a term repeated — and the check that two indexes rank each
//! of them bit-identically through every entry point.

use create_index::{Index, Query, ScoredDoc, Scorer};

/// The analyzed terms of `text` in `field`, as a query string makes them.
pub fn analyzed(index: &Index, field: &str, text: &str) -> Vec<String> {
    let query = Query::query_string(index, field, text);
    query
        .clauses
        .into_iter()
        .map(|clause| clause.term)
        .collect()
}

/// Flat disjunctions over `words` (raw text, each analyzed by the
/// index's own analyzers): terms of each field, the `body` query string
/// of every word, each word's query string over all three fields (what
/// the keyword leg sends), a `body` term or'ed with the next one and with
/// its `title` twin, and a term repeated around another.
pub fn queries(index: &Index, words: &[&str]) -> Vec<Query> {
    let body = |word: &str| analyzed(index, "body", word).into_iter().next();
    let terms: Vec<String> = words.iter().filter_map(|w| body(w)).collect();
    let mut out = Vec::new();
    for term in &terms {
        out.push(Query::term("body", term));
    }
    for word in words {
        for term in analyzed(index, "title", word) {
            out.push(Query::term("title", &term));
        }
        // A word's first grams: short ones are common, long ones rare.
        for gram in analyzed(index, "body_ngram", word).into_iter().take(2) {
            out.push(Query::term("body_ngram", &gram));
        }
        out.push(
            Query::query_string(index, "title", word)
                .or(Query::query_string(index, "body", word))
                .or(Query::query_string(index, "body_ngram", word)),
        );
    }
    out.push(Query::query_string(index, "body", &words.join(" ")));
    for (i, term) in terms.iter().enumerate() {
        let next = &terms[(i + 1) % terms.len()];
        out.push(Query::term("body", term).or(Query::term("body", next)));
        out.push(Query::term("body", term).or(Query::term("title", term)));
        out.push(
            Query::term("body", term)
                .or(Query::term("body", next))
                .or(Query::term("body", term)),
        );
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
    queries: &[Query],
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
