//! The named-collection store.
//!
//! Plays MongoDB's role in the CREATe architecture (Fig. 3): the
//! id/filter layer the backend queries. The store is in-memory only;
//! durability belongs to `create-storage`, whose segments keep every
//! document as a stored field and refill this store at open. Access is
//! guarded by a `std::sync` `RwLock` per store so the HTTP layer can
//! serve concurrent readers.

use crate::collection::{Collection, CollectionError, Filter, UpdateResult};
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Collections by name. Names are `Arc<str>` so cloning the map for a
/// snapshot bumps reference counts and allocates only the map's node.
type Collections = BTreeMap<Arc<str>, Arc<Collection>>;

/// A multi-collection document store.
///
/// Collections sit behind `Arc` so [`DocStore::snapshot`] can hand out a
/// point-in-time [`StoreSnapshot`] by cloning the name → pointer map;
/// writers mutate through [`Arc::make_mut`], copying a collection's
/// structure only when a live snapshot still shares it.
#[derive(Debug)]
pub struct DocStore {
    inner: RwLock<Collections>,
}

/// An immutable point-in-time view of every collection.
///
/// Reads need no lock: the snapshot owns `Arc` handles to the
/// collections as they were at [`DocStore::snapshot`] time. Documents
/// are parsed out of their stored text per call.
#[derive(Debug, Default, Clone)]
pub struct StoreSnapshot {
    collections: Collections,
}

impl StoreSnapshot {
    /// Lists collection names.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections
            .keys()
            .map(|name| name.to_string())
            .collect()
    }

    /// Fetches a document by id.
    pub fn get(&self, collection: &str, id: &str) -> Option<Value> {
        self.collections.get(collection)?.get(id)
    }

    /// Runs a filter query.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Value> {
        self.collections
            .get(collection)
            .map(|c| c.find(filter))
            .unwrap_or_default()
    }

    /// First match, if any.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<Value> {
        self.collections.get(collection)?.find_one(filter)
    }

    /// Counts matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.collections
            .get(collection)
            .map(|c| c.count(filter))
            .unwrap_or(0)
    }

    /// Heap bytes the snapshot's collections hold (see
    /// [`Collection::heap_bytes`]); collections shared with other
    /// snapshots are counted in each.
    pub fn heap_bytes(&self) -> usize {
        self.collections.values().map(|c| c.heap_bytes()).sum()
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Invalid document shape.
    Collection(CollectionError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Collection(e) => write!(f, "collection error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CollectionError> for StoreError {
    fn from(e: CollectionError) -> Self {
        StoreError::Collection(e)
    }
}

impl DocStore {
    /// Creates an empty store.
    pub fn in_memory() -> DocStore {
        DocStore {
            inner: RwLock::new(BTreeMap::new()),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Collections> {
        self.inner.read().expect("docstore lock poisoned")
    }

    /// Runs `write` on a collection, creating it on demand and copying
    /// its map first when a snapshot still shares it.
    fn with_collection<T>(&self, collection: &str, write: impl FnOnce(&mut Collection) -> T) -> T {
        let mut inner = self.inner.write().expect("docstore lock poisoned");
        if !inner.contains_key(collection) {
            inner.insert(Arc::from(collection), Arc::default());
        }
        let shared = inner.get_mut(collection).expect("inserted above");
        write(Arc::make_mut(shared))
    }

    /// Lists collection names.
    pub fn collection_names(&self) -> Vec<String> {
        self.read().keys().map(|name| name.to_string()).collect()
    }

    /// A point-in-time view of every collection (cheap: clones the
    /// name → `Arc` map, not the documents).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            collections: self.read().clone(),
        }
    }

    /// Inserts a document, creating the collection on demand. Returns the
    /// assigned id.
    pub fn insert(&self, collection: &str, doc: Value) -> Result<String, StoreError> {
        Ok(self.with_collection(collection, |c| c.insert(doc))?)
    }

    /// Inserts a document given as its serialized text (see
    /// [`Collection::insert_serialized`]), creating the collection on
    /// demand.
    pub fn insert_serialized(&self, collection: &str, id: &str, text: &str) {
        self.with_collection(collection, |c| c.insert_serialized(id, text));
    }

    /// Whether the collection stores a document with this id.
    pub fn contains(&self, collection: &str, id: &str) -> bool {
        self.read().get(collection).is_some_and(|c| c.contains(id))
    }

    /// Fetches a document by id.
    pub fn get(&self, collection: &str, id: &str) -> Option<Value> {
        self.read().get(collection)?.get(id)
    }

    /// A document's serialized text, as stored.
    pub fn get_json(&self, collection: &str, id: &str) -> Option<Arc<str>> {
        self.read().get(collection)?.get_json(id).cloned()
    }

    /// Runs a filter query.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Value> {
        self.snapshot().find(collection, filter)
    }

    /// First match, if any.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<Value> {
        self.snapshot().find_one(collection, filter)
    }

    /// Counts matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.snapshot().count(collection, filter)
    }

    /// Heap bytes the store's collections hold (see
    /// [`Collection::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.snapshot().heap_bytes()
    }

    /// Applies a shallow `$set`-style update.
    pub fn update(
        &self,
        collection: &str,
        filter: &Filter,
        set: &Value,
    ) -> Result<UpdateResult, StoreError> {
        let mut inner = self.inner.write().expect("docstore lock poisoned");
        match inner.get_mut(collection) {
            Some(c) => Ok(Arc::make_mut(c).update(filter, set)?),
            None => Ok(UpdateResult {
                matched: 0,
                modified: 0,
            }),
        }
    }

    /// Deletes matching documents; returns the count removed.
    pub fn delete(&self, collection: &str, filter: &Filter) -> usize {
        let mut inner = self.inner.write().expect("docstore lock poisoned");
        inner
            .get_mut(collection)
            .map(|c| Arc::make_mut(c).delete(filter))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn in_memory_crud() {
        let store = DocStore::in_memory();
        let id = store
            .insert("reports", obj([("title", "case".into())]))
            .unwrap();
        assert_eq!(store.count("reports", &Filter::All), 1);
        assert!(store.get("reports", &id).is_some());
        store
            .update("reports", &Filter::All, &obj([("seen", true.into())]))
            .unwrap();
        assert_eq!(
            store
                .get("reports", &id)
                .unwrap()
                .get("seen")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(store.delete("reports", &Filter::All), 1);
        assert_eq!(store.count("reports", &Filter::All), 0);
    }

    #[test]
    fn missing_collection_is_empty() {
        let store = DocStore::in_memory();
        assert_eq!(store.count("nope", &Filter::All), 0);
        assert!(store.find("nope", &Filter::All).is_empty());
        assert_eq!(store.delete("nope", &Filter::All), 0);
    }

    #[test]
    fn concurrent_readers() {
        use std::sync::Arc;
        let store = Arc::new(DocStore::in_memory());
        for i in 0..100 {
            store.insert("r", obj([("n", (i as i64).into())])).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut total = 0;
                for _ in 0..50 {
                    total += s.count("r", &Filter::Gte("n".into(), 50.0));
                }
                total
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 50 * 50);
        }
    }
}
