//! The §4 pure in-memory key-value store: the FASTER hash index paired with
//! a plain heap record allocator (the paper's jemalloc configuration).
//!
//! Records are individually heap-allocated; the index stores their physical
//! addresses (Fig 1, row "In-Memory": latch-free ✓, larger-than-memory ✗,
//! in-place updates ✓). Every value update is in place. Deletes splice a
//! record out of its hash chain with a CAS on the predecessor's header (or
//! the bucket entry for the first record) and defer the free through an
//! epoch-tagged free list: "A deleted record cannot be immediately returned
//! to the memory allocator because of concurrent updates at the same
//! location. … each thread maintains a thread-local free-list of (epoch,
//! address) pairs. When the epochs become safe, we can safely return them to
//! the allocator."
//!
//! The ABA hazard of CAS-on-physical-pointers is exactly what the epoch
//! deferral eliminates: a pointer a thread observed cannot be freed (and
//! thus cannot be reallocated) until that thread refreshes past the delete's
//! epoch.

use crate::functions::Functions;
use crate::hash_key;
use faster_epoch::{Epoch, EpochGuard};
use faster_index::{CreateOutcome, HashIndex, IndexConfig};
use faster_util::{Address, Pod};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TOMBSTONE_BIT: u64 = 1 << 48;
const ADDR_MASK: u64 = Address::MASK;

/// A heap record: header (prev pointer + tombstone bit), key, value.
#[repr(C)]
struct Node<K, V> {
    header: AtomicU64,
    key: K,
    value: std::cell::UnsafeCell<V>,
}

// Safety: concurrent value access is governed by the Functions contract
// (ValueCell discipline); header is atomic; key immutable after publish.
unsafe impl<K: Pod, V: Pod> Send for Node<K, V> {}
unsafe impl<K: Pod, V: Pod> Sync for Node<K, V> {}

impl<K: Pod, V: Pod> Node<K, V> {
    fn prev(&self) -> u64 {
        self.header.load(Ordering::SeqCst) & ADDR_MASK
    }
    fn is_tombstone(&self) -> bool {
        self.header.load(Ordering::SeqCst) & TOMBSTONE_BIT != 0
    }
}

fn addr_of<K, V>(n: *const Node<K, V>) -> Address {
    let a = n as u64;
    debug_assert!(a & !ADDR_MASK == 0, "heap pointers exceed 48 bits");
    Address::new(a)
}

/// The §4 in-memory store.
pub struct InMemKv<K: Pod, V: Pod, F: Functions<K, V>> {
    inner: Arc<InMemInner<K, V, F>>,
}

struct InMemInner<K: Pod, V: Pod, F: Functions<K, V>> {
    epoch: Epoch,
    index: HashIndex,
    functions: F,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K: Pod, V: Pod, F: Functions<K, V>> Clone for InMemKv<K, V, F> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> InMemKv<K, V, F> {
    pub fn new(index: IndexConfig, max_sessions: usize, functions: F) -> Self {
        let epoch = Epoch::new(max_sessions);
        Self {
            inner: Arc::new(InMemInner {
                index: HashIndex::new(index, epoch.clone()),
                epoch,
                functions,
                _marker: std::marker::PhantomData,
            }),
        }
    }

    /// Registers the calling thread.
    pub fn start_session(&self) -> InMemSession<K, V, F> {
        InMemSession {
            store: self.clone(),
            guard: Some(self.inner.epoch.acquire()),
            free_list: RefCell::new(Vec::new()),
            ops: std::cell::Cell::new(0),
        }
    }

    pub fn epoch(&self) -> &Epoch {
        &self.inner.epoch
    }
}

/// A thread's session on the in-memory store, owning the §4 thread-local
/// deferred free list.
pub struct InMemSession<K: Pod, V: Pod, F: Functions<K, V>> {
    store: InMemKv<K, V, F>,
    /// `Some` for the session's whole life; taken (released) first in Drop
    /// so that handing leftover deferred frees to epoch trigger actions
    /// cannot deadlock on this session's own un-refreshed epoch.
    guard: Option<EpochGuard>,
    /// (epoch, record) pairs awaiting safety before the free.
    free_list: RefCell<Vec<(u64, *mut Node<K, V>)>>,
    ops: std::cell::Cell<u32>,
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> InMemSession<K, V, F> {
    #[inline]
    fn guard(&self) -> &EpochGuard {
        self.guard.as_ref().expect("guard lives until drop")
    }

    fn maybe_refresh(&self) {
        let n = self.ops.get() + 1;
        self.ops.set(n);
        if n >= 256 {
            self.guard().refresh();
            self.ops.set(0);
            self.drain_free_list();
        }
    }

    /// Batch-amortized [`Self::maybe_refresh`]: counts a whole batch at once.
    #[inline]
    fn batch_tick(&self, n: usize) {
        let total = self.ops.get().saturating_add(n as u32);
        if total >= 256 {
            self.guard().refresh();
            self.ops.set(0);
            self.drain_free_list();
        } else {
            self.ops.set(total);
        }
    }

    /// Frees deferred records whose delete epoch is now safe.
    pub fn drain_free_list(&self) {
        let epoch = &self.store.inner.epoch;
        let mut list = self.free_list.borrow_mut();
        if list.is_empty() {
            return;
        }
        let safe = epoch.safe();
        list.retain(|&(e, ptr)| {
            if e <= safe {
                // Safety: spliced out at epoch e; every thread has moved
                // past e, so no one can still hold this pointer.
                drop(unsafe { Box::from_raw(ptr) });
                false
            } else {
                true
            }
        });
    }

    /// Records pending in the free list (diagnostics).
    pub fn deferred_frees(&self) -> usize {
        self.free_list.borrow().len()
    }

    fn node(&self, addr: Address) -> *mut Node<K, V> {
        addr.raw() as *mut Node<K, V>
    }

    /// Finds the first live record for `key`, returning (predecessor, node).
    /// Predecessor None means the bucket entry points at the node directly.
    fn find(&self, key: &K, head: Address) -> Option<*mut Node<K, V>> {
        let mut cur = head;
        while cur.is_valid() {
            let n = self.node(cur);
            // Safety: epoch-protected; nothing we can observe is freed.
            let node = unsafe { &*n };
            if !node.is_tombstone() && node.key == *key {
                return Some(n);
            }
            cur = Address::new(node.prev());
        }
        None
    }

    /// Point read.
    pub fn read(&self, key: &K, input: &F::Input) -> Option<F::Output> {
        let inner = &self.store.inner;
        let hash = hash_key(key);
        let slot = inner.index.find_tag(hash, Some(self.guard()))?;
        let found = self.find(key, slot.observed().address());
        let r = found.map(|n| {
            let node = unsafe { &*n };
            // Everything is mutable in the in-memory store: concurrent read.
            let cell = unsafe {
                &*(node.value.get() as *const crate::functions::ValueCell<V>)
            };
            inner.functions.concurrent_reader(key, input, cell)
        });
        self.maybe_refresh();
        r
    }

    /// Batched point reads: one result per key, in order. Runs the
    /// hash → bucket → record dependent-load chain as a software pipeline
    /// (hash all + prefetch buckets, probe all + prefetch the head records,
    /// then execute), overlapping the cache misses across the batch.
    /// Equivalent to calling [`Self::read`] per key.
    pub fn read_batch(&self, keys: &[K], input: &F::Input) -> Vec<Option<F::Output>> {
        let inner = &self.store.inner;
        let mut hashes = Vec::with_capacity(keys.len());
        for key in keys {
            let h = hash_key(key);
            inner.index.prefetch_bucket(h);
            hashes.push(h);
        }
        let mut heads = Vec::with_capacity(keys.len());
        for &hash in &hashes {
            let head = match inner.index.find_tag(hash, Some(self.guard())) {
                Some(slot) => slot.observed().address(),
                None => Address::INVALID,
            };
            if head.is_valid() {
                // The in-memory store's "address" is the heap pointer itself.
                faster_util::prefetch_read(self.node(head) as *const Node<K, V>);
            }
            heads.push(head);
        }
        let mut out = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let r = self.find(key, heads[i]).map(|n| {
                let node = unsafe { &*n };
                let cell = unsafe {
                    &*(node.value.get() as *const crate::functions::ValueCell<V>)
                };
                inner.functions.concurrent_reader(key, input, cell)
            });
            out.push(r);
        }
        self.batch_tick(keys.len());
        out
    }

    /// Batched blind upserts, equivalent to [`Self::upsert`] per pair.
    pub fn upsert_batch(&self, pairs: &[(K, V)]) {
        let inner = &self.store.inner;
        for (key, _) in pairs {
            inner.index.prefetch_bucket(hash_key(key));
        }
        for (key, value) in pairs {
            self.upsert_one(key, value);
        }
        self.batch_tick(pairs.len());
    }

    /// Batched RMWs, equivalent to [`Self::rmw`] per pair.
    pub fn rmw_batch(&self, ops: &[(K, F::Input)]) {
        let inner = &self.store.inner;
        for (key, _) in ops {
            inner.index.prefetch_bucket(hash_key(key));
        }
        for (key, input) in ops {
            self.rmw_one(key, input);
        }
        self.batch_tick(ops.len());
    }

    /// Blind upsert: in place if present, else splice a new record at the
    /// chain head.
    pub fn upsert(&self, key: &K, value: &V) {
        self.upsert_one(key, value);
        self.maybe_refresh();
    }

    fn upsert_one(&self, key: &K, value: &V) {
        let inner = &self.store.inner;
        let hash = hash_key(key);
        loop {
            match inner.index.find_or_create_tag(hash, Some(self.guard())) {
                CreateOutcome::Found(mut slot) => {
                    let head = slot.observed().address();
                    if let Some(n) = self.find(key, head) {
                        let node = unsafe { &*n };
                        let cell = unsafe {
                            &*(node.value.get() as *const crate::functions::ValueCell<V>)
                        };
                        inner.functions.concurrent_writer(key, value, cell);
                        break;
                    }
                    let node = self.alloc_node(key, head);
                    let f = &inner.functions;
                    f.single_writer(key, value, unsafe { &mut *(*node).value.get() });
                    if slot.cas_address(addr_of(node)).is_err() {
                        // Lost the race: free our unpublished node and retry.
                        drop(unsafe { Box::from_raw(node) });
                        continue;
                    }
                    break;
                }
                CreateOutcome::Created(created) => {
                    let node = self.alloc_node(key, Address::INVALID);
                    let f = &inner.functions;
                    f.single_writer(key, value, unsafe { &mut *(*node).value.get() });
                    created.finalize(addr_of(node));
                    break;
                }
            }
        }
    }

    /// RMW: in place if present (per the user's concurrency discipline, §4:
    /// "one could use fetch-and-add for counters"), else insert the initial
    /// value.
    pub fn rmw(&self, key: &K, input: &F::Input) {
        self.rmw_one(key, input);
        self.maybe_refresh();
    }

    fn rmw_one(&self, key: &K, input: &F::Input) {
        let inner = &self.store.inner;
        let hash = hash_key(key);
        loop {
            match inner.index.find_or_create_tag(hash, Some(self.guard())) {
                CreateOutcome::Found(mut slot) => {
                    let head = slot.observed().address();
                    if let Some(n) = self.find(key, head) {
                        let node = unsafe { &*n };
                        let cell = unsafe {
                            &*(node.value.get() as *const crate::functions::ValueCell<V>)
                        };
                        inner.functions.in_place_updater(key, input, cell);
                        break;
                    }
                    let node = self.alloc_node(key, head);
                    let f = &inner.functions;
                    f.initial_updater(key, input, unsafe { &mut *(*node).value.get() });
                    if slot.cas_address(addr_of(node)).is_err() {
                        drop(unsafe { Box::from_raw(node) });
                        continue;
                    }
                    break;
                }
                CreateOutcome::Created(created) => {
                    let node = self.alloc_node(key, Address::INVALID);
                    let f = &inner.functions;
                    f.initial_updater(key, input, unsafe { &mut *(*node).value.get() });
                    created.finalize(addr_of(node));
                    break;
                }
            }
        }
    }

    /// Delete by logically marking, then splicing out of the chain (§4).
    ///
    /// Phase 1 claims the victim by CASing the tombstone bit into its header
    /// (exactly one deleter wins). Phase 2 physically unlinks it with a CAS
    /// on the predecessor's header — or the bucket entry for a head record;
    /// for a singleton list the entry is "set to 0, making it available for
    /// future inserts". Because the mark and the prev pointer live in the
    /// *same* 64-bit word, an unlink through a concurrently-deleted
    /// (marked) predecessor fails its compare-and-swap and retries against
    /// the live chain — adjacent deletes cannot resurrect an unlinked node
    /// (the classic lock-free-list hazard). The record's memory is freed
    /// only once the delete's epoch is safe.
    pub fn delete(&self, key: &K) -> bool {
        let inner = &self.store.inner;
        let hash = hash_key(key);
        // ---- Phase 1: find and mark the victim.
        let victim: *mut Node<K, V> = 'mark: loop {
            let Some(slot) = inner.index.find_tag(hash, Some(self.guard())) else {
                self.maybe_refresh();
                return false;
            };
            let mut cur = slot.observed().address();
            while cur.is_valid() {
                let n = self.node(cur);
                let node = unsafe { &*n };
                let h = node.header.load(Ordering::SeqCst);
                if h & TOMBSTONE_BIT == 0 && node.key == *key {
                    if node
                        .header
                        .compare_exchange(h, h | TOMBSTONE_BIT, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break 'mark n; // we own the delete
                    }
                    continue 'mark; // header changed under us: re-examine
                }
                if node.key == *key {
                    // Already tombstoned: another deleter owns it.
                    self.maybe_refresh();
                    return false;
                }
                cur = Address::new(h & ADDR_MASK);
            }
            self.maybe_refresh();
            return false;
        };

        // ---- Phase 2: unlink the marked victim (we are its only owner).
        let victim_addr = addr_of(victim);
        let next = Address::new(unsafe { (*victim).prev() });
        'unlink: loop {
            let Some(mut slot) = inner.index.find_tag(hash, Some(self.guard())) else {
                break; // entry vanished entirely; victim unreachable
            };
            // Walk to the victim, tracking the predecessor.
            let mut pred: Option<*mut Node<K, V>> = None;
            let mut cur = slot.observed().address();
            while cur.is_valid() && cur != victim_addr {
                let node = unsafe { &*self.node(cur) };
                pred = Some(self.node(cur));
                cur = Address::new(node.prev());
            }
            if !cur.is_valid() {
                break; // already unreachable (entry replaced wholesale)
            }
            match pred {
                None => {
                    // Head record: repoint (or clear) the bucket entry.
                    let ok = if next.is_valid() {
                        slot.cas_address(next).is_ok()
                    } else {
                        slot.cas_delete().is_ok()
                    };
                    if ok {
                        break;
                    }
                }
                Some(p) => {
                    let pnode = unsafe { &*p };
                    let h = pnode.header.load(Ordering::SeqCst);
                    if h & TOMBSTONE_BIT != 0 {
                        // Predecessor is being deleted; wait for its owner
                        // to unlink it, then retry against the live chain.
                        std::hint::spin_loop();
                        continue 'unlink;
                    }
                    if h & ADDR_MASK != victim_addr.raw() {
                        continue 'unlink; // chain changed: re-walk
                    }
                    let new = (h & !ADDR_MASK) | next.raw();
                    if pnode
                        .header
                        .compare_exchange(h, new, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
        }

        // ---- Phase 3: defer the free to epoch safety.
        let e = inner.epoch.current();
        self.free_list.borrow_mut().push((e, victim));
        inner.epoch.bump(); // let the epoch advance past e
        self.maybe_refresh();
        true
    }

    fn alloc_node(&self, key: &K, prev: Address) -> *mut Node<K, V> {
        Box::into_raw(Box::new(Node {
            header: AtomicU64::new(prev.raw()),
            key: *key,
            // Safety: V is Pod; zeroed is a valid value and the caller
            // writes it before publishing.
            value: std::cell::UnsafeCell::new(unsafe { std::mem::zeroed() }),
        }))
    }
}

impl<K: Pod, V: Pod, F: Functions<K, V>> Drop for InMemSession<K, V, F> {
    fn drop(&mut self) {
        // Release our own epoch slot FIRST: otherwise queueing the leftover
        // frees below could fill the drain list and spin on an epoch that
        // our own (now idle) guard would block forever.
        drop(self.guard.take());
        let epoch = self.store.inner.epoch.clone();
        let list = std::mem::take(&mut *self.free_list.borrow_mut());
        for (e, ptr) in list {
            let p = ptr as usize;
            epoch.bump_with(move || {
                // Safety: runs once the delete epoch is globally safe (the
                // records were already unreachable when queued).
                drop(unsafe { Box::from_raw(p as *mut Node<K, V>) });
            });
            let _ = e;
        }
    }
}

// NOTE: records still reachable from the index when the store drops are
// intentionally leaked (the paper's store is process-lifetime; a full
// drop-walk would need exclusive access). Tests that care use explicit
// deletes.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::CountStore;
    use std::sync::Barrier;

    fn store() -> InMemKv<u64, u64, CountStore> {
        InMemKv::new(
            IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 },
            32,
            CountStore,
        )
    }

    #[test]
    fn basic_ops() {
        let kv = store();
        let s = kv.start_session();
        assert_eq!(s.read(&1, &0), None);
        s.upsert(&1, &10);
        assert_eq!(s.read(&1, &0), Some(10));
        s.rmw(&1, &5);
        assert_eq!(s.read(&1, &0), Some(15));
        assert!(s.delete(&1));
        assert!(!s.delete(&1));
        assert_eq!(s.read(&1, &0), None);
        s.upsert(&1, &99);
        assert_eq!(s.read(&1, &0), Some(99));
    }

    #[test]
    fn batch_matches_scalar() {
        let kv = store();
        let s = kv.start_session();
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|k| (k, k * 7)).collect();
        s.upsert_batch(&pairs);
        let keys: Vec<u64> = (0..310u64).collect();
        let batched = s.read_batch(&keys, &0);
        for (k, got) in keys.iter().zip(&batched) {
            assert_eq!(*got, s.read(k, &0), "key {k}");
        }
        let incs: Vec<(u64, u64)> = (0..300u64).map(|k| (k, 1)).collect();
        s.rmw_batch(&incs);
        for k in 0..300u64 {
            assert_eq!(s.read(&k, &0), Some(k * 7 + 1), "key {k}");
        }
    }

    #[test]
    fn collision_chains_work() {
        // Tiny index: heavy chaining.
        let kv: InMemKv<u64, u64, CountStore> = InMemKv::new(
            IndexConfig { k_bits: 1, tag_bits: 1, max_resize_chunks: 1 },
            8,
            CountStore,
        );
        let s = kv.start_session();
        for k in 0..200u64 {
            s.upsert(&k, &(k * 3));
        }
        for k in 0..200u64 {
            assert_eq!(s.read(&k, &0), Some(k * 3), "key {k}");
        }
        // Delete every other key; the rest must survive the splices.
        for k in (0..200u64).step_by(2) {
            assert!(s.delete(&k), "delete {k}");
        }
        for k in 0..200u64 {
            let want = if k % 2 == 0 { None } else { Some(k * 3) };
            assert_eq!(s.read(&k, &0), want, "key {k} after deletes");
        }
    }

    #[test]
    fn deferred_frees_drain_after_safety() {
        let kv = store();
        let s = kv.start_session();
        for k in 0..50u64 {
            s.upsert(&k, &k);
        }
        for k in 0..50u64 {
            s.delete(&k);
        }
        assert!(s.deferred_frees() > 0, "frees must be deferred, not immediate");
        // Refresh moves us past the delete epochs; drains free them.
        s.guard().refresh();
        s.drain_free_list();
        assert_eq!(s.deferred_frees(), 0);
    }

    #[test]
    fn concurrent_increments_exact() {
        let kv = store();
        let threads = 8u64;
        let per = 20_000u64;
        let keys = 64u64;
        let barrier = std::sync::Arc::new(Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let kv = kv.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let s = kv.start_session();
                    barrier.wait();
                    let mut rng = faster_util::XorShift64::new(t + 1);
                    for _ in 0..per {
                        s.rmw(&rng.next_below(keys), &1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = kv.start_session();
        let total: u64 = (0..keys).map(|k| s.read(&k, &0).unwrap_or(0)).sum();
        assert_eq!(total, threads * per);
    }

    #[test]
    fn concurrent_delete_insert_churn() {
        let kv = store();
        let threads = 6u64;
        let keys = 16u64;
        let barrier = std::sync::Arc::new(Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let kv = kv.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let s = kv.start_session();
                    barrier.wait();
                    let mut rng = faster_util::XorShift64::new(t * 3 + 1);
                    for _ in 0..10_000 {
                        let k = rng.next_below(keys);
                        match rng.next_below(3) {
                            0 => s.upsert(&k, &(t + 1)),
                            1 => {
                                s.delete(&k);
                            }
                            _ => {
                                if let Some(v) = s.read(&k, &0) {
                                    assert!(v <= threads, "torn value {v}");
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Converged state is readable and sane.
        let s = kv.start_session();
        for k in 0..keys {
            if let Some(v) = s.read(&k, &0) {
                assert!((1..=threads).contains(&v));
            }
        }
    }
}
