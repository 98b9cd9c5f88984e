//! RocksDB stand-in: a from-scratch mini LSM store (§7.1, Fig 8/10).
//!
//! The design class the comparison exercises: writes go to an in-memory
//! *memtable* (sorted map behind a lock); full memtables are frozen and
//! flushed to *sorted runs* on the storage device; reads consult memtable →
//! frozen memtables → runs newest-first, with bloom filters and a sparse
//! block index per run; background-less size-tiered compaction merges runs
//! when a level accumulates too many. Updates are read-copy-update (append a
//! new version) — the property that caps RocksDB's throughput on
//! update-intensive workloads in the paper. WAL and checksums are off,
//! matching the paper's RocksDB configuration.

use faster_storage::Device;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored value or a deletion marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Value(u64),
    Tombstone,
}

/// On-device sorted run layout: `count * (key u64 | tag u8 | value u64)`,
/// sorted by key, plus an in-memory sparse index and bloom filter.
struct SortedRun {
    base: u64,
    count: usize,
    /// Every `SPARSE_EVERY`-th key, for block binary search.
    sparse: Vec<(u64, usize)>,
    bloom: Bloom,
}

const ENTRY_SIZE: usize = 17;
const SPARSE_EVERY: usize = 64;

/// A tiny blocked bloom filter (k = 2 probes over a bit array).
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    fn with_items(n: usize) -> Self {
        // ~10 bits/key, power-of-two words.
        let words = ((n * 10 / 64).max(8)).next_power_of_two();
        Self { bits: vec![0; words], mask: (words as u64 * 64) - 1 }
    }

    fn add(&mut self, key: u64) {
        let h = faster_util::hash_u64(key);
        for probe in [h, h.rotate_left(21)] {
            let b = probe & self.mask;
            self.bits[(b / 64) as usize] |= 1 << (b % 64);
        }
    }

    fn may_contain(&self, key: u64) -> bool {
        let h = faster_util::hash_u64(key);
        [h, h.rotate_left(21)].iter().all(|p| {
            let b = p & self.mask;
            self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }
}

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct MiniLsmConfig {
    /// Memtable flush threshold in entries.
    pub memtable_entries: usize,
    /// Runs per level before compaction merges them.
    pub level_fanout: usize,
}

impl Default for MiniLsmConfig {
    fn default() -> Self {
        Self { memtable_entries: 64 * 1024, level_fanout: 4 }
    }
}

/// The mini LSM store.
pub struct MiniLsm {
    cfg: MiniLsmConfig,
    device: Arc<dyn Device>,
    memtable: RwLock<BTreeMap<u64, Slot>>,
    /// Frozen memtables not yet flushed (newest last).
    frozen: RwLock<Vec<Arc<BTreeMap<u64, Slot>>>>,
    /// Levels of sorted runs; `levels[0]` newest. Within a level, newest last.
    levels: RwLock<Vec<Vec<Arc<SortedRun>>>>,
    /// Bump allocator over the device address space.
    next_offset: AtomicU64,
    /// Serializes flush/compaction (single writer of structure).
    maintenance: Mutex<()>,
}

impl MiniLsm {
    pub fn new(cfg: MiniLsmConfig, device: Arc<dyn Device>) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            device,
            memtable: RwLock::new(BTreeMap::new()),
            frozen: RwLock::new(Vec::new()),
            levels: RwLock::new(vec![Vec::new()]),
            next_offset: AtomicU64::new(0),
            maintenance: Mutex::new(()),
        })
    }

    /// Blind write.
    pub fn put(&self, key: u64, value: u64) {
        self.write(key, Slot::Value(value));
    }

    /// Delete via tombstone.
    pub fn delete(&self, key: u64) {
        self.write(key, Slot::Tombstone);
    }

    /// Read-modify-write (read + write back; RocksDB's merge without the
    /// operator registry — the cost profile is the same: a read plus an
    /// append).
    pub fn rmw<U: FnOnce(u64) -> u64>(&self, key: u64, init: u64, update: U) {
        let cur = self.get(key);
        let new = match cur {
            Some(v) => update(v),
            None => init,
        };
        self.put(key, new);
    }

    fn write(&self, key: u64, slot: Slot) {
        let needs_flush = {
            let mut mt = self.memtable.write();
            mt.insert(key, slot);
            mt.len() >= self.cfg.memtable_entries
        };
        if needs_flush {
            self.flush_memtable();
        }
    }

    /// Point read.
    pub fn get(&self, key: u64) -> Option<u64> {
        if let Some(s) = self.memtable.read().get(&key) {
            return Self::resolve(*s);
        }
        for mt in self.frozen.read().iter().rev() {
            if let Some(s) = mt.get(&key) {
                return Self::resolve(*s);
            }
        }
        let levels = self.levels.read();
        for level in levels.iter() {
            for run in level.iter().rev() {
                if !run.bloom.may_contain(key) {
                    continue;
                }
                if let Some(s) = self.search_run(run, key) {
                    return Self::resolve(s);
                }
            }
        }
        None
    }

    fn resolve(s: Slot) -> Option<u64> {
        match s {
            Slot::Value(v) => Some(v),
            Slot::Tombstone => None,
        }
    }

    /// Freezes and flushes the active memtable as a new L0 run.
    fn flush_memtable(&self) {
        let _g = self.maintenance.lock();
        let frozen_mt = {
            let mut mt = self.memtable.write();
            if mt.len() < self.cfg.memtable_entries {
                return; // another thread flushed first
            }
            Arc::new(std::mem::take(&mut *mt))
        };
        self.frozen.write().push(frozen_mt.clone());
        let entries: Vec<(u64, Slot)> = frozen_mt.iter().map(|(&k, &v)| (k, v)).collect();
        let run = self.write_run(&entries);
        {
            let mut levels = self.levels.write();
            levels[0].push(Arc::new(run));
        }
        // The frozen memtable is durable now.
        self.frozen.write().retain(|m| !Arc::ptr_eq(m, &frozen_mt));
        self.maybe_compact();
    }

    /// Serializes a sorted entry list to the device; builds index + bloom.
    fn write_run(&self, entries: &[(u64, Slot)]) -> SortedRun {
        let mut buf = Vec::with_capacity(entries.len() * ENTRY_SIZE);
        let mut bloom = Bloom::with_items(entries.len());
        let mut sparse = Vec::new();
        for (i, &(k, s)) in entries.iter().enumerate() {
            if i % SPARSE_EVERY == 0 {
                sparse.push((k, i));
            }
            bloom.add(k);
            buf.extend_from_slice(&k.to_le_bytes());
            match s {
                Slot::Value(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                Slot::Tombstone => {
                    buf.push(0);
                    buf.extend_from_slice(&0u64.to_le_bytes());
                }
            }
        }
        let base = self.next_offset.fetch_add(buf.len() as u64 + 4096, Ordering::SeqCst);
        self.device.write_blocking(base, buf).expect("run write");
        SortedRun { base, count: entries.len(), sparse, bloom }
    }

    /// Binary search within a run: sparse index narrows to a block, then the
    /// block is read from the device and scanned.
    fn search_run(&self, run: &SortedRun, key: u64) -> Option<Slot> {
        let block = match run.sparse.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => run.sparse[i].1,
            Err(0) => return None, // below the run's smallest key
            Err(i) => run.sparse[i - 1].1,
        };
        let start = block;
        let end = (block + SPARSE_EVERY).min(run.count);
        let bytes = self.read_range(run.base + (start * ENTRY_SIZE) as u64, (end - start) * ENTRY_SIZE)?;
        for chunk in bytes.chunks_exact(ENTRY_SIZE) {
            let k = u64::from_le_bytes(chunk[0..8].try_into().expect("8"));
            if k == key {
                let v = u64::from_le_bytes(chunk[9..17].try_into().expect("8"));
                return Some(if chunk[8] == 1 { Slot::Value(v) } else { Slot::Tombstone });
            }
            if k > key {
                break;
            }
        }
        None
    }

    fn read_range(&self, offset: u64, len: usize) -> Option<Vec<u8>> {
        self.device.read_blocking(offset, len).ok()
    }

    /// Size-tiered compaction: when a level holds `fanout` runs, merge them
    /// into one run on the next level.
    fn maybe_compact(&self) {
        loop {
            let (level_idx, runs) = {
                let levels = self.levels.read();
                match levels.iter().position(|l| l.len() >= self.cfg.level_fanout) {
                    Some(i) => (i, levels[i].clone()),
                    None => return,
                }
            };
            // Merge newest-wins: iterate runs newest to oldest.
            let mut merged: BTreeMap<u64, Slot> = BTreeMap::new();
            for run in runs.iter().rev() {
                let bytes = self
                    .read_range(run.base, run.count * ENTRY_SIZE)
                    .expect("run readable during compaction");
                for chunk in bytes.chunks_exact(ENTRY_SIZE) {
                    let k = u64::from_le_bytes(chunk[0..8].try_into().expect("8"));
                    merged.entry(k).or_insert_with(|| {
                        let v = u64::from_le_bytes(chunk[9..17].try_into().expect("8"));
                        if chunk[8] == 1 {
                            Slot::Value(v)
                        } else {
                            Slot::Tombstone
                        }
                    });
                }
            }
            let entries: Vec<(u64, Slot)> = merged.into_iter().collect();
            let new_run = Arc::new(self.write_run(&entries));
            let mut levels = self.levels.write();
            levels[level_idx].retain(|r| !runs.iter().any(|o| Arc::ptr_eq(o, r)));
            if level_idx + 1 == levels.len() {
                levels.push(Vec::new());
            }
            levels[level_idx + 1].push(new_run);
        }
    }

    /// Runs currently on device (diagnostics).
    pub fn run_count(&self) -> usize {
        self.levels.read().iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_storage::MemDevice;

    fn small() -> Arc<MiniLsm> {
        MiniLsm::new(
            MiniLsmConfig { memtable_entries: 128, level_fanout: 3 },
            MemDevice::new(2),
        )
    }

    #[test]
    fn put_get_delete() {
        let db = small();
        assert_eq!(db.get(1), None);
        db.put(1, 10);
        assert_eq!(db.get(1), Some(10));
        db.put(1, 20);
        assert_eq!(db.get(1), Some(20));
        db.delete(1);
        assert_eq!(db.get(1), None);
    }

    #[test]
    fn survives_flush_to_runs() {
        let db = small();
        for k in 0..1000u64 {
            db.put(k, k * 2);
        }
        assert!(db.run_count() > 0, "memtable must have flushed");
        for k in 0..1000u64 {
            assert_eq!(db.get(k), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let db = small();
        for round in 0..5u64 {
            for k in 0..300u64 {
                db.put(k, k + round * 1000);
            }
        }
        for k in 0..300u64 {
            assert_eq!(db.get(k), Some(k + 4000), "key {k}");
        }
    }

    #[test]
    fn tombstones_survive_compaction() {
        let db = small();
        for k in 0..500u64 {
            db.put(k, k);
        }
        for k in 0..250u64 {
            db.delete(k);
        }
        for k in 500..1500u64 {
            db.put(k, k); // force flush + compaction churn
        }
        for k in 0..250u64 {
            assert_eq!(db.get(k), None, "deleted key {k}");
        }
        for k in 250..500u64 {
            assert_eq!(db.get(k), Some(k), "live key {k}");
        }
    }

    #[test]
    fn rmw_semantics() {
        let db = small();
        db.rmw(7, 5, |v| v + 1);
        assert_eq!(db.get(7), Some(5));
        db.rmw(7, 5, |v| v + 1);
        assert_eq!(db.get(7), Some(6));
    }

    #[test]
    fn concurrent_writers_disjoint_keys() {
        let db = small();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        db.put(t * 1_000_000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in (0..2_000u64).step_by(97) {
                assert_eq!(db.get(t * 1_000_000 + i), Some(i));
            }
        }
    }
}
