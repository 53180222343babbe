//! Query model: term, phrase, fuzzy, and boolean composition.

use crate::index::Index;

/// A query tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryNode {
    /// Single analyzed term in a field.
    Term {
        /// Field name.
        field: String,
        /// Analyzed term text.
        term: String,
    },
    /// Exact phrase (consecutive positions) in a field. A field whose
    /// tokenizer does not produce word positions (the n-gram field)
    /// stores none, so there a phrase of two or more terms matches
    /// nothing; a one-term phrase is that term, on any field.
    Phrase {
        /// Field name.
        field: String,
        /// Analyzed terms, in order.
        terms: Vec<String>,
    },
    /// Term with edit-distance tolerance; expanded against the dictionary.
    Fuzzy {
        /// Field name.
        field: String,
        /// Analyzed term text.
        term: String,
        /// Maximum edit distance (1 or 2).
        max_edits: usize,
    },
    /// Boolean combination.
    Bool {
        /// All must match (AND).
        must: Vec<QueryNode>,
        /// At least one should match and contributes score (OR).
        should: Vec<QueryNode>,
        /// None may match.
        must_not: Vec<QueryNode>,
    },
}

impl QueryNode {
    /// Term convenience.
    pub fn term(field: &str, term: &str) -> QueryNode {
        QueryNode::Term {
            field: field.to_string(),
            term: term.to_string(),
        }
    }

    /// Phrase convenience.
    pub fn phrase(field: &str, terms: &[&str]) -> QueryNode {
        QueryNode::Phrase {
            field: field.to_string(),
            terms: terms.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Fuzzy convenience.
    pub fn fuzzy(field: &str, term: &str, max_edits: usize) -> QueryNode {
        QueryNode::Fuzzy {
            field: field.to_string(),
            term: term.to_string(),
            max_edits,
        }
    }

    /// Builds the default keyword query for raw user text against a field:
    /// the field's analyzer splits the text and the resulting terms are
    /// OR-combined — exactly what Solr's default handler does.
    pub fn query_string(index: &Index, field: &str, text: &str) -> QueryNode {
        let mut should = Vec::new();
        if let Some(f) = index.field(field) {
            f.analyzer
                .for_each_term(text, |term, _| should.push(QueryNode::term(field, term)));
        }
        QueryNode::Bool {
            must: Vec::new(),
            should,
            must_not: Vec::new(),
        }
    }

    /// Expands fuzzy nodes against the index dictionaries, returning the
    /// matching `(term, distance)` pairs sorted by `(distance, term)`:
    /// the union of every segment's expansions, each term once.
    ///
    /// Candidates are drawn from per-length dictionary buckets with a
    /// first-character fast path (see `FrozenSegment::fuzzy_candidates`)
    /// instead of sweeping the whole vocabulary; the result is identical
    /// to [`QueryNode::expand_fuzzy_sweep`]. Terms are borrowed from the
    /// index — expansion allocates nothing per matched term.
    pub fn expand_fuzzy<'a>(
        index: &'a Index,
        field: &str,
        term: &str,
        max_edits: usize,
    ) -> Vec<(&'a str, usize)> {
        union(
            index
                .segments()
                .map(|(_, segment)| segment.fuzzy_candidates(field, term, max_edits)),
        )
    }

    /// The exhaustive fuzzy expansion: a bounded-Levenshtein sweep over
    /// every term of the field, sorted by `(distance, term)`. Kept as the
    /// reference baseline for the equivalence suite; production queries
    /// use [`QueryNode::expand_fuzzy`].
    pub fn expand_fuzzy_sweep<'a>(
        index: &'a Index,
        field: &str,
        term: &str,
        max_edits: usize,
    ) -> Vec<(&'a str, usize)> {
        union(
            index
                .segments()
                .map(|(_, segment)| segment.fuzzy_sweep(field, term, max_edits)),
        )
    }
}

/// The sorted `(distance, term)` union of per-segment expansions, a term
/// two segments hold listed once.
fn union<'a>(expansions: impl Iterator<Item = Vec<(&'a str, usize)>>) -> Vec<(&'a str, usize)> {
    let mut out: Vec<(&str, usize)> = expansions.flatten().collect();
    out.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    out.dedup();
    out
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
        idx.add_document("a", &[("body", "fever and amiodarone toxicity")])
            .unwrap();
        idx.add_document("b", &[("body", "cough only")]).unwrap();
        idx
    }

    #[test]
    fn query_string_analyzes_and_ors() {
        let idx = index();
        let q = QueryNode::query_string(&idx, "body", "The Fevers");
        let QueryNode::Bool { should, .. } = q else {
            panic!()
        };
        // "the" is a stopword; "Fevers" normalizes to "fever".
        assert_eq!(should.len(), 1);
        assert_eq!(should[0], QueryNode::term("body", "fever"));
    }

    #[test]
    fn fuzzy_expansion_finds_neighbors() {
        let idx = index();
        let hits = QueryNode::expand_fuzzy(&idx, "body", "amiodaron", 1);
        assert!(hits.iter().any(|(t, d)| *t == "amiodaron" || *d <= 1));
        assert!(hits.iter().any(|(t, _)| t.starts_with("amiodaron")));
    }

    #[test]
    fn pruned_expansion_matches_exhaustive_sweep() {
        let idx = index();
        for term in ["amiodaron", "fevr", "cough", "zzz", "", "a", "toxicty"] {
            for max_edits in 0..=2 {
                assert_eq!(
                    QueryNode::expand_fuzzy(&idx, "body", term, max_edits),
                    QueryNode::expand_fuzzy_sweep(&idx, "body", term, max_edits),
                    "term {term:?} max_edits {max_edits}"
                );
            }
        }
    }

    #[test]
    fn fuzzy_expansion_respects_bound() {
        let idx = index();
        let hits = QueryNode::expand_fuzzy(&idx, "body", "zzzzzz", 1);
        assert!(hits.is_empty());
    }

    #[test]
    fn conveniences_build_expected_shapes() {
        assert_eq!(
            QueryNode::phrase("body", &["chest", "pain"]),
            QueryNode::Phrase {
                field: "body".into(),
                terms: vec!["chest".into(), "pain".into()]
            }
        );
        assert!(matches!(
            QueryNode::fuzzy("body", "x", 2),
            QueryNode::Fuzzy { max_edits: 2, .. }
        ));
    }
}
