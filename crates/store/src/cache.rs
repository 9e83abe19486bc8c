//! A bounded, fully deterministic LRU chunk cache.
//!
//! Recency is tracked with a monotonically increasing logical tick (one per
//! access), not wall time, so eviction order is a pure function of the
//! access sequence — a requirement for bit-identical op logs. Two `BTreeMap`s
//! implement the classic LRU structure: `entries` maps keys to
//! `(tick, bytes)` and `order` maps ticks back to keys; the least recently
//! used entry is always `order`'s first key.

use crate::backend::ChunkKey;
use std::collections::BTreeMap;

/// Deterministic bounded LRU of chunk payloads.
#[derive(Debug)]
pub struct ChunkCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<ChunkKey, (u64, Vec<u8>)>,
    order: BTreeMap<u64, ChunkKey>,
    hits: u64,
    misses: u64,
    accesses: u64,
}

impl ChunkCache {
    /// Cache holding at most `capacity` chunks (0 disables caching).
    pub fn new(capacity: usize) -> ChunkCache {
        ChunkCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
            accesses: 0,
        }
    }

    /// Look up a chunk, refreshing its recency on hit. A single B-tree
    /// descent: the hit path updates the entry through the same `get_mut`
    /// borrow that found it (the recency maps are disjoint fields, so the
    /// borrows don't conflict).
    pub fn get(&mut self, key: ChunkKey) -> Option<&[u8]> {
        self.accesses += 1;
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        let Some(entry) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.tick += 1;
        let old_tick = entry.0;
        entry.0 = self.tick;
        self.order.remove(&old_tick);
        self.order.insert(self.tick, key);
        Some(&entry.1)
    }

    /// Insert (or refresh) a chunk, evicting the least recently used entry
    /// when over capacity.
    pub fn insert(&mut self, key: ChunkKey, data: &[u8]) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((old_tick, bytes)) = self.entries.get_mut(&key) {
            let old = *old_tick;
            *old_tick = tick;
            bytes.clear();
            bytes.extend_from_slice(data);
            self.order.remove(&old);
            self.order.insert(tick, key);
            return;
        }
        self.entries.insert(key, (tick, data.to_vec()));
        self.order.insert(tick, key);
        if self.entries.len() > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "over-capacity implies at least one entry, so the LRU order map is non-empty."
            )]
            let (&lru_tick, &lru_key) = self.order.iter().next().expect("non-empty over capacity");
            self.order.remove(&lru_tick);
            self.entries.remove(&lru_key);
        }
    }

    /// Drop a chunk (overwrite, delete, or failure invalidation).
    pub fn invalidate(&mut self, key: ChunkKey) {
        if let Some((tick, _)) = self.entries.remove(&key) {
            self.order.remove(&tick);
        }
    }

    /// Cached chunk count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total lookups since construction; always `hits + misses`.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hit rate in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ChunkCache::new(2);
        c.insert(1, b"a");
        c.insert(2, b"b");
        assert_eq!(c.get(1), Some(b"a".as_slice())); // 1 now most recent
        c.insert(3, b"c"); // evicts 2
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1), Some(b"a".as_slice()));
        assert_eq!(c.get(3), Some(b"c".as_slice()));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_refreshes_existing_entries() {
        let mut c = ChunkCache::new(2);
        c.insert(1, b"a");
        c.insert(2, b"b");
        c.insert(1, b"a2"); // refresh, not a new entry
        c.insert(3, b"c"); // evicts 2, not 1
        assert_eq!(c.get(1), Some(b"a2".as_slice()));
        assert!(c.get(2).is_none());
    }

    #[test]
    fn invalidate_and_stats() {
        let mut c = ChunkCache::new(4);
        c.insert(1, b"a");
        assert!(c.get(1).is_some());
        c.invalidate(1);
        assert!(c.get(1).is_none());
        assert_eq!(c.stats(), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ChunkCache::new(0);
        c.insert(1, b"a");
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.accesses(), 1); // disabled lookups still count
        assert_eq!(c.stats(), (0, 1));
    }

    #[test]
    fn stats_invariant_hits_plus_misses_equals_accesses() {
        // Drive a deterministic mixed workload and check the counter
        // invariant after every single operation — this is the regression
        // test for the old get()'s double-descent path, where a divergence
        // between the hit bookkeeping and the entry update could go unseen.
        let mut c = ChunkCache::new(3);
        for i in 0..500u64 {
            match i % 7 {
                0 | 1 => c.insert(i % 5, &[i as u8]),
                2 => c.invalidate(i % 4),
                _ => {
                    let _ = c.get(i % 6);
                }
            }
            let (hits, misses) = c.stats();
            assert_eq!(hits + misses, c.accesses(), "invariant broken after op {i}");
            assert!(c.len() <= 3);
        }
        let (hits, misses) = c.stats();
        assert!(
            hits > 0 && misses > 0,
            "workload should mix hits and misses"
        );
    }
}
