//! Schemaless document collections with Mongo-style filters.
//!
//! A collection stores JSON object documents keyed by a string `_id`
//! (auto-assigned when absent). Queries use the [`Filter`] combinator tree,
//! which mirrors the subset of MongoDB's query language that the CREATe
//! backend needs: field equality and comparisons over dot paths, substring
//! and membership tests, and boolean combinators.

use crate::json::{parse_json, Value};
use create_util::arc_slice_bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A query predicate over documents.
#[derive(Debug, Clone)]
pub enum Filter {
    /// Matches every document.
    All,
    /// Field at dot-path equals the given value (number equality is exact).
    Eq(String, Value),
    /// Field does not equal the value (missing fields match, as in Mongo).
    Ne(String, Value),
    /// Field is a number greater than the operand.
    Gt(String, f64),
    /// Field is a number greater than or equal to the operand.
    Gte(String, f64),
    /// Field is a number smaller than the operand.
    Lt(String, f64),
    /// Field is a number smaller than or equal to the operand.
    Lte(String, f64),
    /// Field value is one of the listed values (`$in`).
    In(String, Vec<Value>),
    /// Field is a string containing the operand as a substring
    /// (case-insensitive), or an array containing a matching string.
    Contains(String, String),
    /// Field exists (is present and non-null).
    Exists(String),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// Sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Field-equality convenience.
    pub fn eq(path: &str, value: impl Into<Value>) -> Filter {
        Filter::Eq(path.to_string(), value.into())
    }

    /// Case-insensitive substring convenience.
    pub fn contains(path: &str, needle: &str) -> Filter {
        Filter::Contains(path.to_string(), needle.to_string())
    }

    /// Evaluates the predicate against one document.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Filter::All => true,
            Filter::Eq(path, v) => doc.get_path(path) == Some(v),
            Filter::Ne(path, v) => doc.get_path(path) != Some(v),
            Filter::Gt(path, n) => num(doc, path).map(|x| x > *n).unwrap_or(false),
            Filter::Gte(path, n) => num(doc, path).map(|x| x >= *n).unwrap_or(false),
            Filter::Lt(path, n) => num(doc, path).map(|x| x < *n).unwrap_or(false),
            Filter::Lte(path, n) => num(doc, path).map(|x| x <= *n).unwrap_or(false),
            Filter::In(path, options) => doc
                .get_path(path)
                .map(|v| options.contains(v))
                .unwrap_or(false),
            Filter::Contains(path, needle) => match doc.get_path(path) {
                Some(Value::String(s)) => s.to_lowercase().contains(&needle.to_lowercase()),
                Some(Value::Array(items)) => items.iter().any(|item| {
                    item.as_str()
                        .map(|s| s.to_lowercase().contains(&needle.to_lowercase()))
                        .unwrap_or(false)
                }),
                _ => false,
            },
            Filter::Exists(path) => doc.get_path(path).map(|v| !v.is_null()).unwrap_or(false),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }
}

fn num(doc: &Value, path: &str) -> Option<f64> {
    doc.get_path(path).and_then(Value::as_f64)
}

/// An in-memory ordered collection of JSON documents.
///
/// Each document is held as its serialized JSON text and parsed on the
/// way out, so a stored report costs one allocation of its own size
/// instead of a tree of maps, strings and vectors. Every text comes out
/// of the serializer or has been through the parser on the way in —
/// [`Collection::insert`] serializes a [`Value`],
/// [`Collection::insert_serialized`] takes its caller's word for it —
/// so the accessors have no failure of their own to report. Ids and texts
/// sit behind `Arc`, so `Clone` shares them structurally: a copy of the
/// collection copies the id → text map's nodes, never a document, and an
/// insert into one copy leaves every other text shared.
#[derive(Debug, Default, Clone)]
pub struct Collection {
    docs: BTreeMap<Arc<str>, Arc<str>>,
    next_id: u64,
}

/// What the id → text map's nodes cost per entry: a 368-byte leaf holds
/// up to 11 entries and runs about two-thirds full, plus the inner
/// nodes above it.
const MAP_ENTRY_BYTES: usize = 56;

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Collection {
        Collection::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Inserts a document. Non-object values are rejected. If the document
    /// has no `_id` string field one is assigned (`doc<N>` with a
    /// zero-padded counter so insertion order and lexicographic order
    /// agree). Returns the id. Inserting an existing id replaces the
    /// document (upsert semantics).
    pub fn insert(&mut self, mut doc: Value) -> Result<String, CollectionError> {
        let map = doc.as_object_mut().ok_or(CollectionError::NotAnObject)?;
        let id = match map.get("_id").and_then(Value::as_str) {
            Some(id) => id.to_string(),
            None => {
                let id = format!("doc{:08}", self.next_id);
                self.next_id += 1;
                map.insert("_id".to_string(), Value::String(id.clone()));
                id
            }
        };
        self.insert_serialized(&id, &doc.to_json());
        Ok(id)
    }

    /// Inserts (or replaces) the document `id` given as its serialized
    /// text, stored as it is — neither parsed nor serialized again. The
    /// caller vouches that `text` has been through the parser or come
    /// out of the serializer (a [`Value::to_json`] result, a text from
    /// [`object_members`](crate::json::object_members)) and is an object
    /// whose `_id` is `id`; text that is not reads back as a missing
    /// document.
    pub fn insert_serialized(&mut self, id: &str, text: &str) {
        debug_assert!(
            parse_json(text).is_ok_and(|doc| doc.get("_id").and_then(Value::as_str) == Some(id)),
            "not a serialized document with _id {id:?}: {text}"
        );
        self.docs.insert(Arc::from(id), Arc::from(text));
    }

    /// Whether a document with this id is stored. Parses nothing.
    pub fn contains(&self, id: &str) -> bool {
        self.docs.contains_key(id)
    }

    /// Fetches a document by id.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.docs.get(id).and_then(|text| parse_json(text).ok())
    }

    /// A document's serialized text, as stored.
    pub fn get_json(&self, id: &str) -> Option<&Arc<str>> {
        self.docs.get(id)
    }

    /// Returns all matching documents in id order.
    pub fn find(&self, filter: &Filter) -> Vec<Value> {
        self.iter().filter(|d| filter.matches(d)).collect()
    }

    /// Returns the first matching document.
    pub fn find_one(&self, filter: &Filter) -> Option<Value> {
        self.iter().find(|d| filter.matches(d))
    }

    /// Counts matching documents ([`Filter::All`] without parsing any).
    pub fn count(&self, filter: &Filter) -> usize {
        match filter {
            Filter::All => self.len(),
            _ => self.iter().filter(|d| filter.matches(d)).count(),
        }
    }

    /// Iterates documents in id order, parsing each as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.docs.values().filter_map(|text| parse_json(text).ok())
    }

    /// Heap bytes the collection holds: every id and text with its `Arc`
    /// header, exactly, plus the map's nodes at [`MAP_ENTRY_BYTES`] an
    /// entry.
    pub fn heap_bytes(&self) -> usize {
        self.docs
            .iter()
            .map(|(id, text)| {
                arc_slice_bytes(id.len()) + arc_slice_bytes(text.len()) + MAP_ENTRY_BYTES
            })
            .sum()
    }
}

/// Errors from collection operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionError {
    /// Documents must be JSON objects.
    NotAnObject,
}

impl std::fmt::Display for CollectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectionError::NotAnObject => write!(f, "value must be a JSON object"),
        }
    }
}

impl std::error::Error for CollectionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn sample() -> Collection {
        let mut c = Collection::new();
        c.insert(obj([
            ("title", "takotsubo after bereavement".into()),
            ("category", "cardiovascular".into()),
            ("year", 2019i64.into()),
            ("tags", vec!["cardiomyopathy", "stress"].into()),
        ]))
        .unwrap();
        c.insert(obj([
            ("title", "COVID-19 with myocarditis".into()),
            ("category", "infectious".into()),
            ("year", 2020i64.into()),
            ("tags", vec!["covid", "myocarditis"].into()),
        ]))
        .unwrap();
        c.insert(obj([
            ("title", "AML presenting as fatigue".into()),
            ("category", "cancer".into()),
            ("year", 2021i64.into()),
        ]))
        .unwrap();
        c
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut c = Collection::new();
        let a = c.insert(Value::object()).unwrap();
        let b = c.insert(Value::object()).unwrap();
        assert!(a < b);
        assert!(c.get(&a).is_some());
    }

    #[test]
    fn insert_rejects_non_objects() {
        let mut c = Collection::new();
        assert_eq!(
            c.insert(Value::Number(1.0)).unwrap_err(),
            CollectionError::NotAnObject
        );
    }

    #[test]
    fn insert_respects_explicit_id_and_upserts() {
        let mut c = Collection::new();
        let id = c
            .insert(obj([("_id", "pmid:123".into()), ("v", 1i64.into())]))
            .unwrap();
        assert_eq!(id, "pmid:123");
        c.insert(obj([("_id", "pmid:123".into()), ("v", 2i64.into())]))
            .unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.get("pmid:123").unwrap().get("v").unwrap().as_i64(),
            Some(2)
        );
    }

    #[test]
    fn insert_serialized_stores_the_text_as_given() {
        let mut c = Collection::new();
        // Not the serializer's spelling (spaces, an escape it would not
        // write): kept byte for byte, parsed on the way out.
        let text = r#"{"_id": "a", "n": [1, 2, {}], "s": "x\u00e9"}"#;
        c.insert_serialized("a", text);
        assert_eq!(&**c.get_json("a").unwrap(), text);
        assert_eq!(c.get("a").unwrap(), parse_json(text).unwrap());
        assert!(c.contains("a") && !c.contains("b"));
        assert_eq!(c.count(&Filter::All), 1);
        // The same id again replaces the document.
        c.insert_serialized("a", r#"{"_id":"a"}"#);
        assert_eq!(c.find(&Filter::All), [obj([("_id", "a".into())])]);
    }

    #[test]
    fn find_eq_and_count() {
        let c = sample();
        assert_eq!(c.count(&Filter::eq("category", "cancer")), 1);
        assert_eq!(c.count(&Filter::All), 3);
        assert_eq!(c.find(&Filter::eq("category", "none")).len(), 0);
    }

    #[test]
    fn range_filters() {
        let c = sample();
        assert_eq!(c.count(&Filter::Gte("year".into(), 2020.0)), 2);
        assert_eq!(c.count(&Filter::Lt("year".into(), 2020.0)), 1);
        // Missing numeric field never matches ranges.
        assert_eq!(c.count(&Filter::Gt("missing".into(), 0.0)), 0);
    }

    #[test]
    fn contains_on_strings_and_arrays() {
        let c = sample();
        assert_eq!(c.count(&Filter::contains("title", "covid")), 1);
        assert_eq!(c.count(&Filter::contains("tags", "myocarditis")), 1);
        assert_eq!(c.count(&Filter::contains("tags", "MYOCARD")), 1);
    }

    #[test]
    fn in_and_exists() {
        let c = sample();
        let f = Filter::In(
            "category".into(),
            vec!["cancer".into(), "infectious".into()],
        );
        assert_eq!(c.count(&f), 2);
        assert_eq!(c.count(&Filter::Exists("tags".into())), 2);
    }

    #[test]
    fn boolean_combinators() {
        let c = sample();
        let f = Filter::And(vec![
            Filter::Gte("year".into(), 2019.0),
            Filter::Not(Box::new(Filter::eq("category", "cancer"))),
        ]);
        assert_eq!(c.count(&f), 2);
        let f = Filter::Or(vec![
            Filter::eq("category", "cancer"),
            Filter::eq("category", "infectious"),
        ]);
        assert_eq!(c.count(&f), 2);
    }

    #[test]
    fn ne_matches_missing_fields() {
        let c = sample();
        // Only two documents have tags; Ne on missing is true (Mongo-like).
        assert_eq!(c.count(&Filter::Ne("tags.0".into(), "covid".into())), 2);
    }
}
