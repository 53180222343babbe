//! The query model: a flat disjunction of analyzed terms.
//!
//! The paper's keyword leg is ElasticSearch's default handler (Solr's
//! too): the console's free text is analyzed, its terms are OR-combined
//! and the result is BM25-ranked. A [`Query`] is exactly that — a list
//! of `(field, term)` clauses. A document matches when it holds any of
//! them, and its score is the sum of its matching clauses' scores, added
//! in clause order; a clause listed twice adds twice.

use crate::index::Index;

/// One clause of a [`Query`]: an analyzed term in a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Field name.
    pub field: String,
    /// Analyzed term text.
    pub term: String,
}

/// A flat disjunction of term clauses, scored in clause order. The empty
/// disjunction matches nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// The clauses, in the order their scores are added.
    pub clauses: Vec<Clause>,
}

impl Query {
    /// The one-clause disjunction of an analyzed `term` in `field`.
    pub fn term(field: &str, term: &str) -> Query {
        Query {
            clauses: vec![Clause {
                field: field.to_string(),
                term: term.to_string(),
            }],
        }
    }

    /// Builds the default keyword query for raw user text against a field:
    /// the field's analyzer splits the text and the resulting terms are
    /// OR-combined — exactly what Solr's default handler does. A field the
    /// index does not configure gives the empty disjunction.
    pub fn query_string(index: &Index, field: &str, text: &str) -> Query {
        let mut clauses = Vec::new();
        if let Some(f) = index.field(field) {
            f.analyzer.for_each_term(text, |term, _| {
                clauses.push(Clause {
                    field: field.to_string(),
                    term: term.to_string(),
                })
            });
        }
        Query { clauses }
    }

    /// This disjunction's clauses followed by `other`'s: a query over
    /// several fields is the concatenation of each field's query string.
    pub fn or(mut self, other: Query) -> Query {
        self.clauses.extend(other.clauses);
        self
    }
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
        let q = Query::query_string(&idx, "body", "The Fevers");
        // "the" is a stopword; "Fevers" normalizes to "fever".
        assert_eq!(q, Query::term("body", "fever"));
    }

    #[test]
    fn or_concatenates_in_clause_order() {
        let idx = index();
        let q = Query::query_string(&idx, "body", "cough fever")
            .or(Query::query_string(&idx, "title", "fever"))
            .or(Query::term("body", "cough"));
        let terms: Vec<(&str, &str)> = q
            .clauses
            .iter()
            .map(|c| (c.field.as_str(), c.term.as_str()))
            .collect();
        // `title` is not configured: its query string is empty.
        assert_eq!(
            terms,
            [("body", "cough"), ("body", "fever"), ("body", "cough")]
        );
    }
}
