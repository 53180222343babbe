//! The named-collection store.
//!
//! Plays MongoDB's role in the CREATe architecture (Fig. 3): the
//! id/filter layer the backend queries. The store is in-memory only;
//! durability belongs to `create-storage`, whose segments keep every
//! document as a stored field and refill this store at open. Like the
//! index and the graph it is a plain value: writes take `&mut self`, and
//! whoever owns the store decides who may write it.

use crate::collection::{Collection, CollectionError, Filter};
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A multi-collection document store.
///
/// Collections sit behind `Arc` and their names are `Arc<str>`, so a
/// clone is a point-in-time view that copies the name → pointer map and
/// nothing else. Writes go through [`Arc::make_mut`], copying a
/// collection's structure only while a clone still shares it.
#[derive(Debug, Clone)]
pub struct DocStore {
    collections: BTreeMap<Arc<str>, Arc<Collection>>,
}

impl DocStore {
    /// Creates an empty store.
    pub fn in_memory() -> DocStore {
        DocStore {
            collections: BTreeMap::new(),
        }
    }

    fn collection(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name).map(Arc::as_ref)
    }

    /// The collection to write, created on demand and copied first when
    /// a clone still shares it.
    fn collection_mut(&mut self, name: &str) -> &mut Collection {
        if !self.collections.contains_key(name) {
            self.collections.insert(Arc::from(name), Arc::default());
        }
        Arc::make_mut(self.collections.get_mut(name).expect("inserted above"))
    }

    /// Inserts a document, creating the collection on demand. Returns the
    /// assigned id.
    pub fn insert(&mut self, collection: &str, doc: Value) -> Result<String, CollectionError> {
        self.collection_mut(collection).insert(doc)
    }

    /// Inserts a document given as its serialized text (see
    /// [`Collection::insert_serialized`]), creating the collection on
    /// demand.
    pub fn insert_serialized(&mut self, collection: &str, id: &str, text: &str) {
        self.collection_mut(collection).insert_serialized(id, text);
    }

    /// Whether the collection stores a document with this id.
    pub fn contains(&self, collection: &str, id: &str) -> bool {
        self.collection(collection).is_some_and(|c| c.contains(id))
    }

    /// Fetches a document by id.
    pub fn get(&self, collection: &str, id: &str) -> Option<Value> {
        self.collection(collection)?.get(id)
    }

    /// A document's serialized text, as stored.
    pub fn get_json(&self, collection: &str, id: &str) -> Option<Arc<str>> {
        self.collection(collection)?.get_json(id).cloned()
    }

    /// Runs a filter query.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Value> {
        self.collection(collection)
            .map(|c| c.find(filter))
            .unwrap_or_default()
    }

    /// First match, if any.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<Value> {
        self.collection(collection)?.find_one(filter)
    }

    /// Counts matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.collection(collection).map_or(0, |c| c.count(filter))
    }

    /// Heap bytes the store's collections hold (see
    /// [`Collection::heap_bytes`]); collections shared with a clone are
    /// counted in each.
    pub fn heap_bytes(&self) -> usize {
        self.collections.values().map(|c| c.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn in_memory_crud() {
        let mut store = DocStore::in_memory();
        let id = store
            .insert("reports", obj([("title", "case".into())]))
            .unwrap();
        assert_eq!(store.count("reports", &Filter::All), 1);
        assert!(store.contains("reports", &id));
        assert_eq!(
            store
                .get("reports", &id)
                .unwrap()
                .get("title")
                .unwrap()
                .as_str(),
            Some("case")
        );
        assert_eq!(
            store.find_one("reports", &Filter::eq("title", "case")),
            store.get("reports", &id)
        );
        assert!(store
            .find("reports", &Filter::eq("title", "other"))
            .is_empty());
    }

    #[test]
    fn missing_collection_is_empty() {
        let store = DocStore::in_memory();
        assert_eq!(store.count("nope", &Filter::All), 0);
        assert!(store.find("nope", &Filter::All).is_empty());
        assert!(store.get_json("nope", "x").is_none());
    }

    #[test]
    fn a_clone_keeps_its_documents_and_shares_every_untouched_text() {
        let mut store = DocStore::in_memory();
        for n in 0..20i64 {
            store
                .insert(
                    "r",
                    obj([("_id", format!("d{n:02}").into()), ("n", n.into())]),
                )
                .unwrap();
        }
        let view = store.clone();
        store
            .insert("r", obj([("_id", "d00".into()), ("n", (-1i64).into())]))
            .unwrap();
        store.insert_serialized("r", "d20", r#"{"_id":"d20"}"#);
        store.insert("other", obj([("_id", "x".into())])).unwrap();

        assert_eq!(view.count("r", &Filter::All), 20);
        assert_eq!(store.count("r", &Filter::All), 21);
        assert!(!view.contains("r", "d20") && view.count("other", &Filter::All) == 0);
        assert_eq!(
            view.get("r", "d00").unwrap().get("n").unwrap().as_i64(),
            Some(0),
            "the clone keeps the document the original replaced"
        );
        for n in 1..20 {
            let id = format!("d{n:02}");
            let (old, new) = (view.get_json("r", &id), store.get_json("r", &id));
            assert!(Arc::ptr_eq(&old.unwrap(), &new.unwrap()), "{id} is shared");
        }
    }
}
