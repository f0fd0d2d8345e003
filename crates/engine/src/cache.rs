//! A small least-recently-used cache for query results.
//!
//! The engine keys this cache by canonicalised query (sorted, deduplicated
//! seeds + budget + algorithm), so two textually different requests for the
//! same question hit the same entry. Capacity is small (hundreds), so the
//! eviction scan is a linear pass instead of an intrusive list — simpler,
//! allocation-light, and invisible next to a single query's cost.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Capacity `0`
    /// disables the cache outright — every lookup misses and inserts are
    /// dropped — for callers that must measure or serve the uncached path.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.0 = tick;
            &entry.1
        })
    }

    /// Looks up `key` **without** refreshing its recency — for tests and
    /// inspectors that must not perturb the eviction order they are
    /// checking.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|entry| &entry.1)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry if the
    /// cache is full and `key` is not already present. A capacity-0 cache
    /// drops the entry.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Drops every entry (used when the graph changes, which invalidates
    /// all cached answers).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Keeps only the entries whose key `keep` accepts (used when one
    /// backend's pool changes, which invalidates only its answers).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|key, _| keep(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_recency_and_overflow_evicts_the_oldest() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // refresh a
        assert_eq!(cache.peek(&"b"), Some(&2), "peek does not refresh");
        cache.insert("c", 3); // evicts b despite the peek
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.get(&"b"), Some(&2));
    }

    #[test]
    fn capacity_zero_disables_caching_and_clear_empties() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.capacity(), 0);
        cache.insert(1u32, ());
        cache.insert(2u32, ());
        assert_eq!(cache.get(&1u32), None, "capacity 0 never stores");
        assert!(cache.is_empty());

        let mut cache = LruCache::new(1);
        cache.insert(1u32, ());
        cache.insert(2u32, ());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
