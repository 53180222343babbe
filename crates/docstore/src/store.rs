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
use std::sync::{Arc, RwLock};

/// A multi-collection document store.
///
/// Collections sit behind `Arc` so [`DocStore::snapshot`] can hand out a
/// point-in-time [`StoreSnapshot`] by cloning the name → pointer map;
/// writers mutate through [`Arc::make_mut`], copying a collection's
/// structure only when a live snapshot still shares it.
#[derive(Debug)]
pub struct DocStore {
    inner: RwLock<BTreeMap<String, Arc<Collection>>>,
}

/// An immutable point-in-time view of every collection.
///
/// Reads need no lock: the snapshot owns `Arc` handles to the
/// collections as they were at [`DocStore::snapshot`] time, so accessors
/// can return borrowed documents instead of cloning them out of a lock.
#[derive(Debug, Default, Clone)]
pub struct StoreSnapshot {
    collections: BTreeMap<String, Arc<Collection>>,
}

impl StoreSnapshot {
    /// Lists collection names.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.keys().cloned().collect()
    }

    /// Fetches a document by id.
    pub fn get(&self, collection: &str, id: &str) -> Option<&Value> {
        self.collections.get(collection)?.get(id)
    }

    /// Runs a filter query, borrowing matches from the snapshot.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<&Value> {
        self.collections
            .get(collection)
            .map(|c| c.find(filter))
            .unwrap_or_default()
    }

    /// First match, if any.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<&Value> {
        self.collections.get(collection)?.find_one(filter)
    }

    /// Counts matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.collections
            .get(collection)
            .map(|c| c.count(filter))
            .unwrap_or(0)
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

    /// Lists collection names.
    pub fn collection_names(&self) -> Vec<String> {
        self.inner.read().expect("docstore lock poisoned").keys().cloned().collect()
    }

    /// A point-in-time view of every collection (cheap: clones the
    /// name → `Arc` map, not the documents).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            collections: self.inner.read().expect("docstore lock poisoned").clone(),
        }
    }

    /// Inserts a document, creating the collection on demand. Returns the
    /// assigned id.
    pub fn insert(&self, collection: &str, doc: Value) -> Result<String, StoreError> {
        let mut inner = self.inner.write().expect("docstore lock poisoned");
        let c = Arc::make_mut(inner.entry(collection.to_string()).or_default());
        Ok(c.insert(doc)?)
    }

    /// Fetches a document by id (cloned out of the lock).
    pub fn get(&self, collection: &str, id: &str) -> Option<Value> {
        self.inner.read().expect("docstore lock poisoned").get(collection)?.get(id).cloned()
    }

    /// Runs a filter query, cloning matches out of the lock.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Value> {
        self.inner
            .read()
            .expect("docstore lock poisoned")
            .get(collection)
            .map(|c| c.find(filter).into_iter().cloned().collect())
            .unwrap_or_default()
    }

    /// First match, if any.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<Value> {
        self.inner.read().expect("docstore lock poisoned").get(collection)?.find_one(filter).cloned()
    }

    /// Counts matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.inner
            .read()
            .expect("docstore lock poisoned")
            .get(collection)
            .map(|c| c.count(filter))
            .unwrap_or(0)
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
