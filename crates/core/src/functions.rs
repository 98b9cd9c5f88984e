//! The compile-time user-functions interface (Appendix E).
//!
//! The paper's C# implementation uses dynamic code generation to inline
//! user-defined read/update logic into the store. Rust gets the same effect
//! statically: `FasterKv<K, V, F>` is generic over a [`Functions`]
//! implementation and monomorphization inlines the user logic into every
//! operation path.
//!
//! The trait mirrors the paper's function table exactly:
//!
//! | paper              | here                 | access guarantee          |
//! |--------------------|----------------------|---------------------------|
//! | `SingleReader`     | `single_reader`      | read-only, quiesced value |
//! | `ConcurrentReader` | `concurrent_reader`  | value may change under you|
//! | `SingleWriter`     | `single_writer`      | exclusive (`&mut V`)      |
//! | `ConcurrentWriter` | `concurrent_writer`  | shared ([`ValueCell`])    |
//! | `InitialUpdater`   | `initial_updater`    | exclusive                 |
//! | `InPlaceUpdater`   | `in_place_updater`   | shared ([`ValueCell`])    |
//! | `CopyUpdater`      | `copy_updater`       | old read-only, new excl.  |
//!
//! "the user is expected to handle concurrency (e.g., using an S-X lock)" —
//! concurrent callbacks receive a [`ValueCell`], from which the user picks a
//! discipline: an atomic view (`as_atomic_u64`), plain racy loads/stores for
//! partitioned keys, or their own locking around `as_mut`.
//!
//! The three updaters return the RMW's `Output`, and the store reports it as
//! the RMW's `Outcome::Value`: an RMW answers with the value it produced, so
//! a counter increment needs no second read (and no racing one). Only a CRDT
//! delta (§6.3), whose result is unknown until a read folds it onto the base,
//! reports `Outcome::Done`.
//!
//! Two counters ship here. [`CountStore`] is the paper's running example
//! (§2.5): fetch-and-add in place, and fuzzy-region or on-disk RMWs go
//! pending (Table 2). [`CountCrdt`] is the same counter declared mergeable
//! (§6.3): those RMWs append a delta instead and never wait.

use faster_util::Pod;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared mutation point over a record value living in the mutable region
/// of the log. See module docs for the concurrency contract.
#[repr(transparent)]
pub struct ValueCell<V>(UnsafeCell<V>);

// Safety: ValueCell is handed to user functions that define their own
// synchronization; the cell itself adds none (like C++'s value reference).
unsafe impl<V: Send> Send for ValueCell<V> {}
unsafe impl<V: Send> Sync for ValueCell<V> {}

impl<V: Pod> ValueCell<V> {
    /// Copies the value out. Under concurrent writers this is a racy read of
    /// a `Pod` value — every bit pattern is valid, but multi-word values may
    /// be torn; use [`ValueCell::as_atomic_u64`] or your own lock when
    /// tearing matters.
    #[inline]
    pub fn load(&self) -> V {
        // Safety: Pod => any bytes form a valid value.
        unsafe { std::ptr::read_volatile(self.0.get()) }
    }

    /// Overwrites the value (same tearing caveat as [`ValueCell::load`]).
    #[inline]
    pub fn store(&self, v: V) {
        // Safety: Pod; concurrent readers tolerate torn reads by contract.
        unsafe { std::ptr::write_volatile(self.0.get(), v) }
    }

    /// Views an 8-byte value as an atomic: the paper's "use fetch-and-add
    /// for counters" discipline.
    ///
    /// # Panics
    ///
    /// Panics if `V` is not exactly 8 bytes with 8-byte alignment.
    #[inline]
    pub fn as_atomic_u64(&self) -> &AtomicU64 {
        assert_eq!(std::mem::size_of::<V>(), 8, "atomic view requires 8-byte values");
        assert!(std::mem::align_of::<V>() <= 8);
        // Safety: size/alignment checked; AtomicU64 is layout-compatible.
        unsafe { &*(self.0.get() as *const AtomicU64) }
    }

    /// Raw exclusive access.
    ///
    /// # Safety
    ///
    /// Caller must guarantee no concurrent access (e.g. keys are partitioned
    /// across threads, or an external lock is held).
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability; safety contract above
    pub unsafe fn as_mut(&self) -> &mut V {
        &mut *self.0.get()
    }
}

/// User-defined store logic. See module docs; `Input`/`Output` match the
/// paper's five-type interface (`Key`, `Value`, `Input`, `Output`, and the
/// context, which Rust sessions carry implicitly per pending operation).
pub trait Functions<K: Pod, V: Pod>: Send + Sync + 'static {
    /// Update/read parameter (e.g. the increment of a per-key sum).
    type Input: Clone + Send + Sync + 'static;
    /// Read result.
    type Output: Send + 'static;

    // ---- reads ----

    /// Reads a quiesced value (safe-read-only region or a disk record).
    fn single_reader(&self, key: &K, input: &Self::Input, value: &V) -> Self::Output;

    /// Reads a value that concurrent writers may be updating in place.
    fn concurrent_reader(&self, key: &K, input: &Self::Input, value: &ValueCell<V>) -> Self::Output {
        let v = value.load();
        self.single_reader(key, input, &v)
    }

    // ---- upserts ----

    /// Writes `new` into an exclusive destination (fresh tail record).
    fn single_writer(&self, _key: &K, new: &V, dst: &mut V) {
        *dst = *new;
    }

    /// Writes `new` into a value other threads may be touching.
    fn concurrent_writer(&self, _key: &K, new: &V, dst: &ValueCell<V>) {
        dst.store(*new);
    }

    // ---- RMW ----

    /// Populates the value for a key that does not exist yet and returns
    /// the RMW's output.
    fn initial_updater(&self, key: &K, input: &Self::Input, value: &mut V) -> Self::Output;

    /// Updates a value in place (mutable region; may race with other
    /// updaters of the same record — pick a discipline on the cell) and
    /// returns the RMW's output.
    fn in_place_updater(&self, key: &K, input: &Self::Input, value: &ValueCell<V>)
        -> Self::Output;

    /// Produces the updated value at a new location from the old one (RCU)
    /// and returns the RMW's output.
    fn copy_updater(&self, key: &K, input: &Self::Input, old: &V, new: &mut V) -> Self::Output;

    // ---- CRDT (§6.3) ----

    /// Whether RMWs are mergeable (a CRDT): partial values can be computed
    /// independently and merged later.
    fn is_mergeable(&self) -> bool {
        false
    }

    /// The identity value partials start from (e.g. 0 for a sum). Required
    /// when [`Functions::is_mergeable`] returns true.
    fn identity(&self) -> V {
        unimplemented!("identity() required for mergeable functions")
    }

    /// Merges two partial values. Required for mergeable functions.
    fn merge(&self, _a: &V, _b: &V) -> V {
        unimplemented!("merge() required for mergeable functions")
    }
}

/// The paper's running example: a **count store** (§2.5). Keys map to `u64`
/// counters incremented by RMW inputs; in-place updates use fetch-and-add,
/// and every updater returns the counter's new value.
#[derive(Debug, Default, Clone)]
pub struct CountStore;

impl Functions<u64, u64> for CountStore {
    type Input = u64;
    type Output = u64;

    fn single_reader(&self, _key: &u64, _input: &u64, value: &u64) -> u64 {
        *value
    }

    fn concurrent_reader(&self, _key: &u64, _input: &u64, value: &ValueCell<u64>) -> u64 {
        value.as_atomic_u64().load(Ordering::Relaxed)
    }

    fn initial_updater(&self, _key: &u64, input: &u64, value: &mut u64) -> u64 {
        // "The initial value for the insert of a new key is set to 0" (§4),
        // then the increment applies.
        *value = *input;
        *value
    }

    fn in_place_updater(&self, _key: &u64, input: &u64, value: &ValueCell<u64>) -> u64 {
        // Latch-free increment: the paper's canonical fetch-and-add. Its
        // result is this increment's own, however many race it.
        value.as_atomic_u64().fetch_add(*input, Ordering::Relaxed).wrapping_add(*input)
    }

    fn copy_updater(&self, _key: &u64, input: &u64, old: &u64, new: &mut u64) -> u64 {
        *new = old.wrapping_add(*input);
        *new
    }
}

/// [`CountStore`] declared mergeable (§6.3): increments are partial sums
/// that merge by addition from 0, so a fuzzy-region or on-disk RMW appends
/// a delta record instead of going pending, and reports `Done`.
#[derive(Debug, Default, Clone)]
pub struct CountCrdt;

impl Functions<u64, u64> for CountCrdt {
    type Input = u64;
    type Output = u64;

    fn single_reader(&self, key: &u64, input: &u64, value: &u64) -> u64 {
        CountStore.single_reader(key, input, value)
    }

    fn concurrent_reader(&self, key: &u64, input: &u64, value: &ValueCell<u64>) -> u64 {
        CountStore.concurrent_reader(key, input, value)
    }

    fn initial_updater(&self, key: &u64, input: &u64, value: &mut u64) -> u64 {
        CountStore.initial_updater(key, input, value)
    }

    fn in_place_updater(&self, key: &u64, input: &u64, value: &ValueCell<u64>) -> u64 {
        CountStore.in_place_updater(key, input, value)
    }

    fn copy_updater(&self, key: &u64, input: &u64, old: &u64, new: &mut u64) -> u64 {
        CountStore.copy_updater(key, input, old, new)
    }

    fn is_mergeable(&self) -> bool {
        true
    }

    fn identity(&self) -> u64 {
        0
    }

    fn merge(&self, a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }
}

/// Blind-replace functions for plain KV usage (quickstart, YCSB upserts).
/// `V` is stored and returned as-is; RMW overwrites with the input.
#[derive(Debug, Default, Clone)]
pub struct BlindKv<V>(std::marker::PhantomData<V>);

impl<V: Pod> BlindKv<V> {
    pub fn new() -> Self {
        Self(std::marker::PhantomData)
    }
}

impl<K: Pod, V: Pod> Functions<K, V> for BlindKv<V> {
    type Input = V;
    type Output = V;

    fn single_reader(&self, _key: &K, _input: &V, value: &V) -> V {
        *value
    }

    fn initial_updater(&self, _key: &K, input: &V, value: &mut V) -> V {
        *value = *input;
        *input
    }

    fn in_place_updater(&self, _key: &K, input: &V, value: &ValueCell<V>) -> V {
        value.store(*input);
        *input
    }

    fn copy_updater(&self, _key: &K, input: &V, _old: &V, new: &mut V) -> V {
        *new = *input;
        *input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_cell_load_store() {
        let mut v = 5u64;
        let cell = unsafe { &*(&mut v as *mut u64 as *const ValueCell<u64>) };
        assert_eq!(cell.load(), 5);
        cell.store(9);
        assert_eq!(cell.load(), 9);
        cell.as_atomic_u64().fetch_add(1, Ordering::Relaxed);
        assert_eq!(cell.load(), 10);
    }

    #[test]
    #[should_panic(expected = "8-byte values")]
    fn atomic_view_rejects_wrong_size() {
        let mut v = [0u8; 16];
        let cell = unsafe { &*(v.as_mut_ptr() as *const ValueCell<[u8; 16]>) };
        let _ = cell.as_atomic_u64();
    }

    #[test]
    fn count_store_semantics() {
        let f = CountStore;
        let mut v = 0u64;
        assert_eq!(f.initial_updater(&1, &5, &mut v), 5);
        assert_eq!(v, 5);
        let cell = unsafe { &*(&mut v as *mut u64 as *const ValueCell<u64>) };
        assert_eq!(f.in_place_updater(&1, &3, cell), 8, "fetch_add's result plus the input");
        assert_eq!(cell.load(), 8);
        let mut n = 0u64;
        assert_eq!(f.copy_updater(&1, &2, &8, &mut n), 10);
        assert_eq!(n, 10);
        assert!(!f.is_mergeable());
        assert_eq!(f.single_reader(&1, &0, &10), 10);
    }

    #[test]
    fn count_crdt_is_the_count_store_made_mergeable() {
        let f = CountCrdt;
        let mut v = 0u64;
        assert_eq!(f.initial_updater(&1, &5, &mut v), 5);
        let cell = unsafe { &*(&mut v as *mut u64 as *const ValueCell<u64>) };
        assert_eq!(f.in_place_updater(&1, &3, cell), 8);
        let mut n = 0u64;
        assert_eq!(f.copy_updater(&1, &2, &8, &mut n), 10);
        assert!(f.is_mergeable());
        assert_eq!(f.merge(&4, &6), 10);
        assert_eq!(f.identity(), 0);
    }

    #[test]
    fn blind_kv_semantics() {
        let f: BlindKv<u64> = BlindKv::new();
        let mut v = 0u64;
        assert_eq!(Functions::<u64, u64>::initial_updater(&f, &1, &42, &mut v), 42);
        assert_eq!(v, 42);
        let mut dst = 0u64;
        Functions::<u64, u64>::single_writer(&f, &1, &7, &mut dst);
        assert_eq!(dst, 7);
        assert!(!Functions::<u64, u64>::is_mergeable(&f));
    }
}
