//! A sharded, content-addressed LRU cache for compile results.
//!
//! Keys are FNV-1a hashes of the request source text mixed with the
//! driver-options fingerprint ([`lc_driver::DriverOptions::fingerprint`]),
//! so two servers configured differently never share entries and a
//! config change invalidates the whole cache by construction.
//!
//! The map is split into shards, each behind its own mutex, so compile
//! workers and connection threads touching different shards never
//! contend. Within a shard, recency is a monotonic tick per entry;
//! eviction scans the (small, bounded) shard for the minimum tick — an
//! exact LRU without the linked-list bookkeeping, O(shard size) only on
//! insertion over capacity.
//!
//! Hit / miss / insertion / eviction counts are global atomics, exported
//! by `/metrics` and asserted on by the integration tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lc_driver::sync::lock_recovering;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_parts(&[bytes])
}

/// 64-bit FNV-1a over the concatenation of `parts`, without building it.
pub fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().flat_map(|part| part.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry<V> {
    value: Arc<V>,
    tick: u64,
}

struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    clock: u64,
}

/// The sharded LRU. Values are handed out as `Arc<V>` so a hit never
/// copies the cached payload.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
}

impl<V> ShardedLru<V> {
    /// A cache of ~`capacity` total entries spread over `shards` shards
    /// (each shard gets `ceil(capacity / shards)`, minimum 1). `shards`
    /// is rounded up to 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Look up `key`, refreshing its recency on a hit. Poisoned shards
    /// are recovered: no critical section below leaves a shard
    /// structurally broken mid-update, so a panicked worker must not
    /// disable the cache for everyone else.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let mut shard = lock_recovering(self.shard(key));
        shard.clock += 1;
        let now = shard.clock;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = now;
                let value = Arc::clone(&entry.value);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's least-recently
    /// used entry when the shard is at capacity.
    pub fn insert(&self, key: u64, value: V) {
        let mut shard = lock_recovering(self.shard(key));
        shard.clock += 1;
        let tick = shard.clock;
        let is_new = !shard.map.contains_key(&key);
        if is_new && shard.map.len() >= self.capacity_per_shard {
            if let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.tick) {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value: Arc::new(value),
                tick,
            },
        );
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if is_new {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_insert_counting() {
        let cache: ShardedLru<String> = ShardedLru::new(8, 2);
        assert!(cache.get(1).is_none());
        cache.insert(1, "one".to_string());
        assert_eq!(cache.get(1).as_deref(), Some(&"one".to_string()));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions, c.entries), (1, 1, 1, 1));
    }

    #[test]
    fn evicts_the_least_recently_used_entry_per_shard() {
        // One shard, capacity 2: inserting a third key evicts the LRU.
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(10, 10);
        cache.insert(20, 20);
        // Touch 10 so 20 becomes the LRU.
        assert!(cache.get(10).is_some());
        cache.insert(30, 30);
        assert!(cache.get(20).is_none(), "LRU entry should be gone");
        assert!(cache.get(10).is_some());
        assert!(cache.get(30).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(1, 100); // refresh, not a new entry
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(*cache.get(1).unwrap(), 100);
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedLru<u64> = ShardedLru::new(64, 8);
        for k in 0..64u64 {
            cache.insert(fnv1a(&k.to_le_bytes()), k);
        }
        assert_eq!(cache.counters().entries, 64);
        assert_eq!(cache.counters().evictions, 0);
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(populated >= 4, "FNV keys should hit most shards");
    }

    #[test]
    fn survives_a_panicked_lock_holder() {
        use std::sync::Arc;
        let cache: Arc<ShardedLru<u32>> = Arc::new(ShardedLru::new(8, 1));
        cache.insert(1, 11);
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.shards[0].lock().unwrap();
            panic!("worker died holding the shard");
        })
        .join();
        // The shard mutex is now poisoned; the cache must keep working.
        assert_eq!(cache.get(1).as_deref(), Some(&11));
        cache.insert(2, 22);
        assert_eq!(cache.get(2).as_deref(), Some(&22));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
