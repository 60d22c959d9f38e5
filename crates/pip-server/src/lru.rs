//! A small least-recently-used map for a session's prepared statements.
//!
//! Capacities are tens of entries, so the implementation favours
//! simplicity: a `HashMap` of values stamped with a logical clock, with
//! `O(capacity)` eviction of the stalest entry on overflow.

use std::collections::HashMap;
use std::hash::Hash;

/// Bounded LRU map.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A map holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity.min(64)),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch and mark as most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(v, stamp)| {
            *stamp = clock;
            &*v
        })
    }

    /// Insert (or replace), evicting the least-recently-used entry when
    /// over capacity. Returns the evicted key, if any.
    pub fn put(&mut self, key: K, value: V) -> Option<K> {
        self.clock += 1;
        self.entries.insert(key, (value, self.clock));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let stalest = self
            .entries
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())?;
        self.entries.remove(&stalest);
        Some(stalest)
    }

    /// Remove one entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.put("a", 1), None);
        assert_eq!(lru.put("b", 2), None);
        assert_eq!(lru.get(&"a"), Some(&1)); // refresh a → b is stalest
        assert_eq!(lru.put("c", 3), Some("b"));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn replace_does_not_grow() {
        let mut lru = Lru::new(2);
        lru.put("a", 1);
        lru.put("a", 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"a"), Some(&2));
    }
}
