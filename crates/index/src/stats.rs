//! Cross-shard corpus statistics for scatter-gather search.
//!
//! BM25 mixes per-document evidence (tf, field length) with *corpus*
//! evidence (document frequency, average field length, total document
//! count). When the corpus is partitioned into shards, a shard-local
//! search would score with shard-local idf/avg_len and drift from the
//! monolithic ranking. [`CorpusStats`] fixes that: each shard collects
//! the corpus-level numbers *for the terms a query touches*, the
//! searcher sums them across shards (integer sums, so the merge is
//! order-independent), and every shard then scores with the merged
//! stats via [`Index::search_with_stats`].
//!
//! **Bit-exactness.** The merged statistics are integers (`usize`/`u64`)
//! summed before a single cast to `f64`, and [`CorpusStats::idf`] /
//! [`CorpusStats::avg_len`] evaluate the exact expressions
//! `FrozenSegment::idf` and `FieldRef::avg_len` use. A one-shard system
//! therefore produces bit-identical scores whether it scores through
//! its own statistics or through a collected-and-merged `CorpusStats`,
//! and an N-shard system reproduces the N=1 fold exactly: a document's
//! matching terms live only in its own shard, so the clause-order score
//! fold visits the same contributions in the same order.
//!
//! The same argument makes an [`Index`]'s segments invisible: a segment
//! is a sub-shard under the index's merged statistics, and
//! [`Index::search`] scores each under them.

use crate::index::Index;
use crate::query::QueryNode;
use std::collections::HashMap;

/// Per-field corpus statistics: the raw integers behind `avg_len` and
/// per-term document frequencies.
#[derive(Debug, Clone, Default)]
struct FieldStats {
    total_len: u64,
    docs_with_field: usize,
    /// Document frequency per analyzed term (only terms the query can
    /// touch: query terms, phrase members, and fuzzy expansions).
    df: HashMap<String, usize>,
}

/// Corpus-level statistics for one query, mergeable across shards.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    num_docs: usize,
    fields: HashMap<String, FieldStats>,
}

impl CorpusStats {
    /// Collects this index's contribution to the corpus statistics for
    /// `query`: total document count, per-field length sums, and the
    /// document frequency of every term the query tree can touch
    /// (including fuzzy expansions — a term expanded by any segment is
    /// counted by every segment whose dictionary holds it, so the merged
    /// df is the exact global df). Each segment of the index contributes
    /// as a shard would: its lengths once per field the query names, its
    /// df once per term, summed — a frozen segment's read off its
    /// dictionary entry, nothing decoded. The terms the query names are
    /// resolved once; only fuzzy expansions differ from segment to
    /// segment.
    pub fn collect(index: &Index, query: &QueryNode) -> CorpusStats {
        let (mut named, mut fuzzy) = (Vec::new(), Vec::new());
        names(query, &mut named, &mut fuzzy);
        named.sort_unstable();
        named.dedup();
        // Each configured field the query names, with its length sums.
        let mut lengths: Vec<(&str, u64, usize)> = Vec::new();
        for &(field, _) in &named {
            if lengths.last().is_none_or(|l| l.0 != field) && index.field(field).is_some() {
                lengths.push((field, 0, 0));
            }
        }
        let mut df = vec![0; named.len()];
        let (mut expanded, mut extra) = (Vec::new(), HashMap::new());
        for (_, segment) in index.segments() {
            for (field, total_len, docs_with_field) in &mut lengths {
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
                    *extra.entry((field, term)).or_insert(0) += segment.doc_freq(field, term);
                }
            }
        }
        let mut stats = CorpusStats {
            num_docs: index.num_docs(),
            fields: HashMap::new(),
        };
        for (field, total_len, docs_with_field) in lengths {
            let fs = FieldStats {
                total_len,
                docs_with_field,
                df: HashMap::new(),
            };
            stats.fields.insert(field.to_string(), fs);
        }
        let terms = named.into_iter().zip(df).chain(extra);
        for ((field, term), df) in terms.filter(|((_, term), _)| !term.is_empty()) {
            if let Some(fs) = stats.fields.get_mut(field) {
                fs.df.insert(term.to_string(), df);
            }
        }
        stats
    }

    /// Folds another shard's contribution in. Integer sums only, so the
    /// result is independent of merge order.
    pub fn merge(&mut self, other: &CorpusStats) {
        self.num_docs += other.num_docs;
        for (field, fs) in &other.fields {
            let entry = self.fields.entry(field.clone()).or_default();
            entry.total_len += fs.total_len;
            entry.docs_with_field += fs.docs_with_field;
            for (term, df) in &fs.df {
                *entry.df.entry(term.clone()).or_insert(0) += df;
            }
        }
    }

    /// The BM25+ idf over the merged statistics — the same expression as
    /// `FrozenSegment::idf`, evaluated on globally-summed integers.
    pub(crate) fn idf(&self, field: &str, term: &str) -> f64 {
        let n = self.num_docs as f64;
        let df = self
            .fields
            .get(field)
            .and_then(|f| f.df.get(term))
            .copied()
            .unwrap_or(0) as f64;
        if df == 0.0 {
            return 0.0;
        }
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Average field length over the merged statistics — the same
    /// expression as the per-field `avg_len`.
    pub(crate) fn avg_len(&self, field: &str) -> f64 {
        let Some(fs) = self.fields.get(field) else {
            return 0.0;
        };
        if fs.docs_with_field == 0 {
            0.0
        } else {
            fs.total_len as f64 / fs.docs_with_field as f64
        }
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
            let stats = CorpusStats::collect(&idx, &q);
            let with = idx.search_with_stats(&q, 10, Scorer::default(), Some(&stats));
            assert_eq!(plain.len(), with.len());
            for (a, b) in plain.iter().zip(&with) {
                assert_eq!(a.external_id, b.external_id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn merged_shard_stats_reproduce_monolithic_scores() {
        let mut whole = body_index();
        let mut even = body_index();
        let mut odd = body_index();
        for (i, (id, text)) in DOCS.iter().enumerate() {
            whole.add_document(id, &[("body", text)]).unwrap();
            let shard = if i % 2 == 0 { &mut even } else { &mut odd };
            shard.add_document(id, &[("body", text)]).unwrap();
        }
        for q in queries() {
            let mut merged = CorpusStats::collect(&even, &q);
            merged.merge(&CorpusStats::collect(&odd, &q));
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
