//! A small LRU cache used by the WORM storage manager's magnetic-disk
//! block cache (§9.3).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Least-recently-used cache with O(log n) operations.
///
/// Recency is tracked with a monotonically increasing tick; a `BTreeMap`
/// from tick to key gives cheap eviction of the oldest entry.
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Zero capacity disables
    /// caching (every `get` misses).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, map: HashMap::new(), order: BTreeMap::new(), tick: 0, hits: 0, misses: 0 }
    }

    fn bump(&mut self, key: &K) {
        if let Some((_, tick)) = self.map.get_mut(key) {
            self.order.remove(tick);
            self.tick += 1;
            self.order.insert(self.tick, key.clone());
            *tick = self.tick;
        }
    }

    /// Fetch a value, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            self.hits += 1;
            self.bump(key);
            self.map.get(key).map(|(v, _)| v)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Check presence without touching recency or hit counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert (or replace) a value, evicting the least-recently used entry
    /// if over capacity. Returns the evicted pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some((_, old_tick)) = self.map.remove(&key) {
            self.order.remove(&old_tick);
        }
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (value, self.tick));
        if self.map.len() <= self.capacity {
            return None;
        }
        let (_, old_key) = self.order.pop_first()?;
        let (old_val, _) = self.map.remove(&old_key)?;
        Some((old_key, old_val))
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (v, tick) = self.map.remove(key)?;
        self.order.remove(&tick);
        Some(v)
    }

    /// Remove all entries whose key fails `retain`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let drop: Vec<K> = self.map.keys().filter(|k| !keep(k)).cloned().collect();
        for k in drop {
            self.remove(&k);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// All keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 is now most recent
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn replace_does_not_grow() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(1, "a2");
        c.insert(2, "b");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&"a2"));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1, "a"), None);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn hit_stats_count() {
        let mut c = LruCache::new(4);
        c.insert(1, ());
        c.get(&1);
        c.get(&2);
        c.get(&1);
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    fn retain_filters() {
        let mut c = LruCache::new(10);
        for i in 0..6 {
            c.insert(i, i * 10);
        }
        c.retain(|k| k % 2 == 0);
        assert_eq!(c.len(), 3);
        assert!(c.peek(&2).is_some());
        assert!(c.peek(&3).is_none());
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(1);
        c.insert(1, "a");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.insert(2, "b"), None, "no eviction needed after remove");
    }
}
