//! The one memo on the search path: a generation-stamped LRU from
//! `(query text, k, policy)` to the whole [`SearchAnswer`].
//!
//! An answer — the IE parse of the query, the merged hits, the rendered
//! `/search` body — is a pure function of the query text, `k`, the merge
//! policy and the system state, which only changes on a write (ingest,
//! graph mutation, tagger attachment). The cache exploits both halves:
//! entries are keyed by the first three, verbatim, and every entry is
//! stamped with the *index generation* current when it was computed; the
//! [`Create`](crate::Create) facade bumps the generation on every write
//! path. A lookup whose stamp no longer matches is treated as a miss and
//! evicted, so a cached answer can never outlive the state it was
//! computed from — no TTLs, no explicit flushes. A hit hands out one
//! more reference to the stored answer: nothing is parsed, planned or
//! copied.
//!
//! Eviction is least-recently-used via an intrusive doubly-linked list
//! threaded through a slab of entries: the list head is the most recently
//! touched entry and the tail is the eviction victim, so every cache
//! operation — lookup, touch, insert, evict — is O(1). Strict LRU is also
//! what makes a cyclic pass over more distinct queries than the capacity
//! never hit.

use crate::search::{MergePolicy, SearchAnswer};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: everything the answer depends on besides system state.
type CacheKey = (String, usize, MergePolicy);

/// Sentinel slab index for "no neighbour" / "empty list".
const NIL: usize = usize::MAX;

/// A slab slot: the cached answer plus its recency-list links. The key is
/// `Arc`-shared with the lookup map so it is stored once.
struct CacheEntry {
    key: Arc<CacheKey>,
    /// Index generation at compute time; a mismatch invalidates the entry.
    generation: u64,
    answer: Arc<SearchAnswer>,
    /// More recently used neighbour (`NIL` at the head).
    prev: usize,
    /// Less recently used neighbour (`NIL` at the tail).
    next: usize,
}

/// Counters and sizing for the REST stats surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution (including stale entries).
    pub misses: u64,
    /// Live entries.
    pub entries: usize,
    /// Current index generation (bumped on every ingest/graph write).
    pub generation: u64,
}

/// The LRU store. The facade wraps it in a `Mutex` for interior
/// mutability under `&self` search calls.
pub(crate) struct QueryCache {
    capacity: usize,
    hits: u64,
    misses: u64,
    /// key → slab slot.
    map: HashMap<Arc<CacheKey>, usize>,
    /// Entry storage; slots are recycled through `free`, never shrunk.
    slab: Vec<Option<CacheEntry>>,
    free: Vec<usize>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot — the eviction victim (`NIL` when empty).
    tail: usize,
    /// Registry mirrors of `hits`/`misses` (`/stats` keeps reading the
    /// plain fields, so its shape is unchanged). `None` when the obs
    /// feature is compiled out.
    obs_hits: Option<Arc<create_obs::Counter>>,
    obs_misses: Option<Arc<create_obs::Counter>>,
}

impl QueryCache {
    pub(crate) fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            hits: 0,
            misses: 0,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            obs_hits: create_obs::enabled()
                .then(|| create_obs::counter(create_obs::names::QUERY_CACHE_HITS_TOTAL)),
            obs_misses: create_obs::enabled()
                .then(|| create_obs::counter(create_obs::names::QUERY_CACHE_MISSES_TOTAL)),
        }
    }

    fn count_hit(&mut self) {
        self.hits += 1;
        if let Some(c) = &self.obs_hits {
            c.inc();
        }
    }

    fn count_miss(&mut self) {
        self.misses += 1;
        if let Some(c) = &self.obs_misses {
            c.inc();
        }
    }

    fn entry(&self, slot: usize) -> &CacheEntry {
        self.slab[slot].as_ref().expect("linked slot is live")
    }

    fn entry_mut(&mut self, slot: usize) -> &mut CacheEntry {
        self.slab[slot].as_mut().expect("linked slot is live")
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Attaches `slot` at the head (most recently used).
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(slot);
            e.prev = NIL;
            e.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.entry_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Removes `slot` entirely: list, map, and slab.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let entry = self.slab[slot].take().expect("removed slot was live");
        self.map.remove(&entry.key);
        self.free.push(slot);
    }

    /// Returns the cached answer for the key when present *and* computed
    /// at `generation`; stale entries are dropped and counted as misses.
    pub(crate) fn get(
        &mut self,
        query: &str,
        k: usize,
        policy: MergePolicy,
        generation: u64,
    ) -> Option<Arc<SearchAnswer>> {
        let key = (query.to_string(), k, policy);
        match self.map.get(&key).copied() {
            Some(slot) if self.entry(slot).generation == generation => {
                self.unlink(slot);
                self.push_front(slot);
                self.count_hit();
                Some(Arc::clone(&self.entry(slot).answer))
            }
            Some(slot) => {
                self.remove(slot);
                self.count_miss();
                None
            }
            None => {
                self.count_miss();
                None
            }
        }
    }

    /// Stores a computed answer stamped with the generation it was
    /// computed under, evicting the least-recently-used entry on overflow.
    pub(crate) fn insert(
        &mut self,
        query: &str,
        k: usize,
        policy: MergePolicy,
        generation: u64,
        answer: Arc<SearchAnswer>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = (query.to_string(), k, policy);
        if let Some(slot) = self.map.get(&key).copied() {
            // Refresh in place and move to the front.
            let e = self.entry_mut(slot);
            e.generation = generation;
            e.answer = answer;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache has a tail");
            self.remove(victim);
        }
        let key = Arc::new(key);
        let entry = CacheEntry {
            key: Arc::clone(&key),
            generation,
            answer,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(entry);
                slot
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    pub(crate) fn stats(&self, generation: u64) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::QueryIE;
    use crate::search::{SearchHit, SearchSource};

    /// An answer whose hits are the given report ids.
    fn answer(ids: &[&str]) -> Arc<SearchAnswer> {
        let hits = ids
            .iter()
            .map(|id| SearchHit {
                report_id: id.to_string(),
                score: 1.0,
                source: SearchSource::Keyword,
                pattern_matched: false,
            })
            .collect();
        Arc::new(SearchAnswer::new(QueryIE::default(), hits))
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let mut cache = QueryCache::new(4);
        assert!(cache.get("q", 5, MergePolicy::Neo4jFirst, 0).is_none());
        let stored = answer(&["a"]);
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 0, Arc::clone(&stored));
        let got = cache.get("q", 5, MergePolicy::Neo4jFirst, 0).unwrap();
        assert!(
            Arc::ptr_eq(&got, &stored),
            "a hit is the stored answer, not a copy"
        );
        assert_eq!(got.hits.len(), 1);
        assert_eq!(got.hits[0].report_id, "a");
        let stats = cache.stats(0);
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn generation_mismatch_is_a_miss_and_evicts() {
        let mut cache = QueryCache::new(4);
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 0, answer(&["a"]));
        assert!(cache.get("q", 5, MergePolicy::Neo4jFirst, 1).is_none());
        assert_eq!(cache.stats(1).entries, 0, "stale entry dropped");
    }

    #[test]
    fn key_includes_k_and_policy() {
        let mut cache = QueryCache::new(8);
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 0, answer(&["a"]));
        assert!(cache.get("q", 6, MergePolicy::Neo4jFirst, 0).is_none());
        assert!(cache.get("q", 5, MergePolicy::EsOnly, 0).is_none());
        assert!(cache.get("q", 5, MergePolicy::Neo4jFirst, 0).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = QueryCache::new(2);
        cache.insert("a", 5, MergePolicy::Neo4jFirst, 0, answer(&[]));
        cache.insert("b", 5, MergePolicy::Neo4jFirst, 0, answer(&[]));
        // Touch "a" so "b" becomes the eviction victim.
        assert!(cache.get("a", 5, MergePolicy::Neo4jFirst, 0).is_some());
        cache.insert("c", 5, MergePolicy::Neo4jFirst, 0, answer(&[]));
        assert!(cache.get("a", 5, MergePolicy::Neo4jFirst, 0).is_some());
        assert!(cache.get("b", 5, MergePolicy::Neo4jFirst, 0).is_none());
        assert!(cache.get("c", 5, MergePolicy::Neo4jFirst, 0).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache = QueryCache::new(0);
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 0, answer(&["a"]));
        assert!(cache.get("q", 5, MergePolicy::Neo4jFirst, 0).is_none());
    }

    #[test]
    fn reinsert_same_key_refreshes_in_place() {
        let mut cache = QueryCache::new(2);
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 0, answer(&["a"]));
        cache.insert("q", 5, MergePolicy::Neo4jFirst, 1, answer(&["b"]));
        assert_eq!(cache.stats(1).entries, 1, "refresh does not duplicate");
        let got = cache.get("q", 5, MergePolicy::Neo4jFirst, 1).unwrap();
        assert_eq!(got.hits[0].report_id, "b");
    }

    #[test]
    fn eviction_order_survives_slot_recycling() {
        // Fill, evict, refill repeatedly: the recycled slab slots must
        // keep strict LRU order across generations of entries.
        let mut cache = QueryCache::new(3);
        for round in 0u64..5 {
            for name in ["x", "y", "z"] {
                let q = format!("{name}{round}");
                cache.insert(&q, 1, MergePolicy::Neo4jFirst, 0, answer(&[]));
            }
            // Touch in reverse so "z{round}" is LRU, then overflow once.
            for name in ["y", "x"] {
                let q = format!("{name}{round}");
                assert!(cache.get(&q, 1, MergePolicy::Neo4jFirst, 0).is_some());
            }
            cache.insert("overflow", 1, MergePolicy::Neo4jFirst, 0, answer(&[]));
            let z = format!("z{round}");
            assert!(
                cache.get(&z, 1, MergePolicy::Neo4jFirst, 0).is_none(),
                "round {round}: LRU entry evicted"
            );
            assert_eq!(cache.stats(0).entries, 3);
        }
    }

    #[test]
    fn cyclic_pass_over_more_keys_than_capacity_never_hits() {
        // The facade's miss path: look up, compute, insert. One key more
        // than fits is enough for strict LRU to evict each entry just
        // before its turn comes round again.
        let mut cache = QueryCache::new(8);
        let queries: Vec<String> = (0..9).map(|i| format!("q{i}")).collect();
        for _pass in 0..4 {
            for q in &queries {
                assert!(
                    cache.get(q, 10, MergePolicy::Neo4jFirst, 0).is_none(),
                    "{q}"
                );
                cache.insert(q, 10, MergePolicy::Neo4jFirst, 0, answer(&[]));
            }
        }
        let stats = cache.stats(0);
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 36, 8));
    }
}
