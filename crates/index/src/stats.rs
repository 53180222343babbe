//! Cross-shard corpus statistics for scatter-gather search.
//!
//! BM25 mixes per-document evidence (tf, field length) with *corpus*
//! evidence (document frequency, average field length, total document
//! count). When the corpus is partitioned into shards, a shard-local
//! search would score with shard-local idf/avg_len and drift from the
//! monolithic ranking. [`CorpusStats`] fixes that: the corpus-level
//! numbers *for the terms a query touches* are collected over every
//! shard in one pass (integer sums, so the order the shards and their
//! segments are visited in does not matter), and every shard then
//! scores with them via [`Index::search_with_stats`].
//!
//! **Bit-exactness.** The statistics are integers (`usize`/`u64`)
//! summed before a single cast to `f64`, and each term's idf and each
//! field's average length are evaluated once, with the exact
//! expressions `FrozenSegment::idf` and `FieldRef::avg_len` use. A
//! one-shard system therefore produces bit-identical scores whether it
//! scores through its own statistics or through collected ones, and an
//! N-shard system reproduces the N=1 fold exactly: a document's
//! matching terms live only in its own shard, so the clause-order score
//! fold visits the same contributions in the same order.
//!
//! The same argument makes an [`Index`]'s segments invisible: a segment
//! is a sub-shard under the index's collected statistics, and
//! [`Index::search`] scores each under them.

use crate::index::Index;
use crate::query::QueryNode;

/// Corpus-level statistics for one query over one or more indexes (the
/// shards of a corpus): each term's idf and each field's average
/// length, evaluated once from the integer sums. Field names and terms
/// are borrowed from the query and the indexes.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats<'a> {
    /// Each configured field the query names, sorted, with its average
    /// length.
    fields: Vec<(&'a str, f64)>,
    /// Each term of a configured field the query names or a fuzzy node
    /// expands to, sorted by `(field, term)`, with its idf.
    terms: Vec<((&'a str, &'a str), f64)>,
}

impl<'a> CorpusStats<'a> {
    /// Collects the corpus statistics of `query` over `indexes`, in one
    /// pass: the total document count, per-field length sums, and the
    /// document frequency of every term the query tree can touch
    /// (including fuzzy expansions — a term expanded by any segment is
    /// counted by every segment whose dictionary holds it, so the summed
    /// df is the exact global df). Each segment contributes as a shard
    /// would: its lengths once per field the query names, its df once
    /// per term — read off its dictionary entry, nothing decoded — into
    /// integer arrays aligned with the query's sorted terms. The terms
    /// the query names are resolved once; only fuzzy expansions differ
    /// from segment to segment.
    pub fn collect(
        indexes: impl IntoIterator<Item = &'a Index>,
        query: &'a QueryNode,
    ) -> CorpusStats<'a> {
        let (mut named, mut fuzzy) = (Vec::new(), Vec::new());
        names(query, &mut named, &mut fuzzy);
        named.sort_unstable();
        named.dedup();
        // Each field the query names, with its length sums and whether
        // any index configures it.
        let mut lengths: Vec<(&str, u64, usize, bool)> = Vec::new();
        for &(field, _) in &named {
            if lengths.last().is_none_or(|l| l.0 != field) {
                lengths.push((field, 0, 0, false));
            }
        }
        let mut df = vec![0; named.len()];
        let (mut num_docs, mut expanded, mut extra) = (0, Vec::new(), Vec::new());
        for index in indexes {
            num_docs += index.num_docs();
            for (field, .., configured) in &mut lengths {
                *configured |= index.field(field).is_some();
            }
            for (_, segment) in index.segments() {
                for (field, total_len, docs_with_field, _) in &mut lengths {
                    if let Some(fi) = segment.field(field) {
                        *total_len += fi.total_len;
                        *docs_with_field += fi.docs_with_field;
                    }
                }
                for (sum, &(field, term)) in df.iter_mut().zip(&named) {
                    *sum += segment.doc_freq(field, term);
                }
                expanded.clear();
                for &(field, term, max_edits) in &fuzzy {
                    let terms = segment.fuzzy_candidates(field, term, max_edits);
                    expanded.extend(terms.into_iter().map(|(t, _)| (field, t)));
                }
                expanded.sort_unstable();
                expanded.dedup();
                for &(field, term) in &expanded {
                    if named.binary_search(&(field, term)).is_err() {
                        extra.push(((field, term), segment.doc_freq(field, term)));
                    }
                }
            }
        }
        lengths.retain(|&(.., configured)| configured);
        let fields = lengths
            .into_iter()
            .map(|(field, total_len, docs_with_field, _)| {
                (field, avg_len(total_len, docs_with_field))
            })
            .collect::<Vec<_>>();
        let configured = |field: &str| fields.binary_search_by_key(&field, |f| f.0).is_ok();
        // One sum per term: expansions of different segments name the
        // same term, and no expansion is a named term.
        let mut sums: Vec<((&str, &str), usize)> = named.into_iter().zip(df).collect();
        sums.extend(extra);
        sums.sort_unstable_by_key(|&(key, _)| key);
        sums.dedup_by(|later, first| {
            let same = later.0 == first.0;
            if same {
                first.1 += later.1;
            }
            same
        });
        let terms = sums
            .into_iter()
            .filter(|&((field, term), _)| !term.is_empty() && configured(field))
            .map(|(key, df)| (key, idf(num_docs, df)))
            .collect();
        CorpusStats { fields, terms }
    }

    /// The BM25+ idf of `term` in `field` — the same expression as
    /// `FrozenSegment::idf`, evaluated on the summed integers; 0 for a
    /// term the statistics do not hold.
    pub(crate) fn idf(&self, field: &str, term: &str) -> f64 {
        self.terms
            .binary_search_by_key(&(field, term), |&(key, _)| key)
            .map_or(0.0, |at| self.terms[at].1)
    }

    /// The average length of `field` — the same expression as the
    /// per-field `avg_len`; 0 for a field the statistics do not hold.
    pub(crate) fn avg_len(&self, field: &str) -> f64 {
        self.fields
            .binary_search_by_key(&field, |&(field, _)| field)
            .map_or(0.0, |at| self.fields[at].1)
    }
}

/// The BM25+ idf of a term in `df` of `num_docs` documents.
fn idf(num_docs: usize, df: usize) -> f64 {
    let (n, df) = (num_docs as f64, df as f64);
    if df == 0.0 {
        return 0.0;
    }
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// The average token count of the documents that have a field.
fn avg_len(total_len: u64, docs_with_field: usize) -> f64 {
    if docs_with_field == 0 {
        0.0
    } else {
        total_len as f64 / docs_with_field as f64
    }
}

/// The `(field, term)` pairs `node` names — its terms and phrase members,
/// and `(field, "")` for the field of each fuzzy node, whose lengths
/// count even where nothing expands — and its fuzzy nodes, which expand
/// per segment.
fn names<'q>(
    node: &'q QueryNode,
    named: &mut Vec<(&'q str, &'q str)>,
    fuzzy: &mut Vec<(&'q str, &'q str, usize)>,
) {
    match node {
        QueryNode::Term { field, term } => named.push((field, term)),
        QueryNode::Phrase { field, terms } => {
            named.extend(terms.iter().map(|t| (field.as_str(), t.as_str())))
        }
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            named.push((field, ""));
            fuzzy.push((field, term, *max_edits));
        }
        QueryNode::Bool {
            must,
            should,
            must_not,
        } => {
            for sub in must.iter().chain(should).chain(must_not) {
                names(sub, named, fuzzy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FieldConfig, Index};
    use crate::score::Scorer;
    use create_text::Analyzer;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn body_index() -> Index {
        Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }])
    }

    const DOCS: [(&str, &str); 4] = [
        ("d0", "fever cough fever chest pain"),
        ("d1", "fever only briefly mentioned"),
        ("d2", "entirely unrelated cardiac procedure"),
        ("d3", "pain chest discomfort persistent"),
    ];

    fn queries() -> Vec<QueryNode> {
        vec![
            QueryNode::term("body", "fever"),
            QueryNode::phrase("body", &["chest", "pain"]),
            QueryNode::fuzzy("body", "fevr", 1),
            QueryNode::Bool {
                must: vec![QueryNode::term("body", "chest")],
                should: vec![QueryNode::term("body", "fever")],
                must_not: vec![QueryNode::term("body", "cardiac")],
            },
        ]
    }

    #[test]
    fn own_stats_reproduce_plain_search_bit_for_bit() {
        let mut idx = body_index();
        for (id, text) in DOCS {
            idx.add_document(id, &[("body", text)]).unwrap();
        }
        for q in queries() {
            let plain = idx.search(&q, 10, Scorer::default());
            let stats = CorpusStats::collect([&idx], &q);
            let with = idx.search_with_stats(&q, 10, Scorer::default(), Some(&stats));
            assert_eq!(plain.len(), with.len());
            for (a, b) in plain.iter().zip(&with) {
                assert_eq!(a.external_id, b.external_id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn shard_stats_reproduce_monolithic_scores() {
        let mut whole = body_index();
        let mut even = body_index();
        let mut odd = body_index();
        for (i, (id, text)) in DOCS.iter().enumerate() {
            whole.add_document(id, &[("body", text)]).unwrap();
            let shard = if i % 2 == 0 { &mut even } else { &mut odd };
            shard.add_document(id, &[("body", text)]).unwrap();
        }
        for q in queries() {
            let merged = CorpusStats::collect([&even, &odd], &q);
            let reference: HashMap<String, u64> = whole
                .search(&q, 10, Scorer::default())
                .into_iter()
                .map(|h| (h.external_id, h.score.to_bits()))
                .collect();
            let mut seen = 0;
            for shard in [&even, &odd] {
                for hit in shard.search_with_stats(&q, 10, Scorer::default(), Some(&merged)) {
                    let expected = reference
                        .get(&hit.external_id)
                        .expect("shard hit exists in monolithic ranking");
                    assert_eq!(hit.score.to_bits(), *expected, "{}", hit.external_id);
                    seen += 1;
                }
            }
            assert_eq!(seen, reference.len(), "shards cover the monolithic hits");
        }
    }
}
