//! A capacity-bounded map that evicts its oldest entry: the one bound
//! behind the daemon's shared verdict store and both ends' block-reference
//! tables.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map holding at most `capacity` entries. Inserting a new key into a
/// full map evicts the key inserted longest ago; lookups and overwrites
/// of a present key do not change its place.
#[derive(Debug, Clone)]
pub struct FifoMap<K, V> {
    capacity: usize,
    entries: HashMap<K, V>,
    /// The keys of `entries` in insertion order, oldest first.
    order: VecDeque<K>,
}

impl<K: Eq + Hash + Clone, V> FifoMap<K, V> {
    /// An empty map bounded at `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        FifoMap {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Stores `value` under `key`. Returns `true` when that evicted the
    /// oldest entry.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(v) = self.entries.get_mut(&key) {
            *v = value;
            return false;
        }
        let evicted = self.entries.len() >= self.capacity;
        if evicted {
            let oldest = self.order.pop_front().expect("a full map is not empty");
            self.entries.remove(&oldest);
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, value);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.entries.remove(key)?;
        self.order.retain(|k| k != key);
        Some(value)
    }

    /// How many entries the map holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::FifoMap;

    #[test]
    fn a_full_map_evicts_the_oldest_insertion() {
        let mut m = FifoMap::new(3);
        assert!(!m.insert(1, "a"));
        assert!(!m.insert(2, "b"));
        assert!(!m.insert(3, "c"));
        // Neither a lookup nor an overwrite makes 1 any younger.
        assert_eq!(m.get(&1), Some(&"a"));
        assert!(!m.insert(1, "a2"));
        assert!(m.insert(4, "d"));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 3);
        assert!(m.insert(5, "e"));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&3), Some(&"c"));
        // A removed key leaves the order too: 3 no longer comes up first.
        assert_eq!(m.remove(&3), Some("c"));
        assert_eq!(m.len(), 2);
        assert!(!m.insert(6, "f"));
        assert!(m.insert(7, "g"));
        assert_eq!(m.get(&4), None);
        assert_eq!(m.get(&5), Some(&"e"));
    }

    #[test]
    fn a_map_never_outgrows_its_capacity() {
        let mut m = FifoMap::new(8);
        let mut evictions = 0;
        for i in 0..1000u32 {
            if m.insert(i % 37, i) {
                evictions += 1;
            }
            if i % 11 == 0 {
                m.remove(&(i % 5));
            }
            assert!(m.len() <= 8);
            assert_eq!(m.order.len(), m.len());
        }
        assert!(evictions > 0);
        // A zero capacity still holds one entry.
        let mut one = FifoMap::new(0);
        assert!(!one.insert(1, ()));
        assert!(one.insert(2, ()));
        assert_eq!(one.len(), 1);
    }
}
