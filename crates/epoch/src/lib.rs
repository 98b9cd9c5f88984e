//! # faster-epoch
//!
//! The epoch-protection framework of FASTER (§2.3–§2.4), extended with
//! *trigger actions*: a generic building block for lazy synchronization over
//! arbitrary global changes.
//!
//! ## Model
//!
//! The system keeps a shared atomic counter `E` (the *current epoch*). Every
//! participating thread `T` holds a thread-local copy `E_T` in a shared epoch
//! table, one cache line per thread. An epoch `c` is **safe** when every
//! active thread has a strictly higher local value (`∀T: E_T > c`); once safe,
//! `c` stays safe forever. A global counter `E_s` tracks the maximal safe
//! epoch, and the invariant `E_s < E_T ≤ E` holds for all active threads.
//!
//! A thread interacts with the framework through four operations (§2.4):
//!
//! * [`Epoch::acquire`] — reserve an epoch-table entry and set `E_T = E`;
//! * [`EpochGuard::refresh`] — update `E_T = E`, recompute `E_s`, and run any
//!   drain-list actions that became safe;
//! * [`Epoch::bump_with`] — increment `E` from `c` to `c+1` and register an
//!   action to run once epoch `c` is safe;
//! * dropping the [`EpochGuard`] — release the entry (*Release*).
//!
//! The **drain list** is a small fixed array of `(epoch, action)` pairs. It is
//! scanned only when the safe epoch actually advances, and a compare-and-swap
//! on the epoch word of each slot guarantees each action runs *exactly once*
//! even under concurrent refreshes.
//!
//! ## Why this is enough for in-place updates
//!
//! A FASTER thread has guaranteed access to the memory behind any address it
//! read, as long as it does not refresh its epoch (§4). Everything that
//! invalidates memory — page eviction, record free, index chunk swap — is
//! deferred through a trigger action, which by construction runs only after
//! every thread has moved past the epoch in which the invalidation was
//! announced.
//!
//! ```
//! use faster_epoch::Epoch;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicBool, Ordering};
//!
//! let epoch = Epoch::new(8);
//! let guard = epoch.acquire();
//! let fired = Arc::new(AtomicBool::new(false));
//! let f = fired.clone();
//! epoch.bump_with(move || f.store(true, Ordering::SeqCst));
//! // Not yet safe: this thread still sits in the pre-bump epoch.
//! assert!(!fired.load(Ordering::SeqCst));
//! guard.refresh(); // moves us forward; prior epoch becomes safe; action runs
//! assert!(fired.load(Ordering::SeqCst));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod drain;
mod table;

pub use drain::DRAIN_LIST_SIZE;

use drain::DrainList;
use faster_metrics::EpochMetrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use table::EpochTable;

/// The shared epoch state: current epoch, safe epoch, epoch table, drain list.
///
/// Cheap to share (`Epoch` is a handle over an `Arc`d inner); one instance per
/// store. All methods are safe to call from any thread.
#[derive(Clone)]
pub struct Epoch {
    inner: Arc<Inner>,
}

struct Inner {
    /// Current epoch `E`. Starts at 1 so that 0 can mean "unprotected".
    current: faster_util::CacheAligned<AtomicU64>,
    /// Maximal safe epoch `E_s` (monotonic cache of `compute_safe`).
    safe: faster_util::CacheAligned<AtomicU64>,
    table: EpochTable,
    drain: DrainList,
    metrics: Arc<EpochMetrics>,
}

impl Epoch {
    /// Creates a framework instance supporting up to `max_threads` concurrent
    /// guards, with a private metrics group.
    pub fn new(max_threads: usize) -> Self {
        Self::with_metrics(max_threads, Arc::new(EpochMetrics::default()))
    }

    /// Like [`Epoch::new`], but events are recorded into the caller's shared
    /// metrics group (the store's registry).
    pub fn with_metrics(max_threads: usize, metrics: Arc<EpochMetrics>) -> Self {
        assert!(max_threads >= 1);
        Self {
            inner: Arc::new(Inner {
                current: faster_util::CacheAligned::new(AtomicU64::new(1)),
                safe: faster_util::CacheAligned::new(AtomicU64::new(0)),
                table: EpochTable::new(max_threads),
                drain: DrainList::new(),
                metrics,
            }),
        }
    }

    /// The metrics group this framework records into.
    pub fn metrics(&self) -> &Arc<EpochMetrics> {
        &self.inner.metrics
    }

    /// Current epoch `E`.
    #[inline]
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::SeqCst)
    }

    /// Last computed maximal safe epoch `E_s`.
    #[inline]
    pub fn safe(&self) -> u64 {
        self.inner.safe.load(Ordering::SeqCst)
    }

    /// Returns true if `epoch` is safe: every active thread has moved past it.
    ///
    /// Recomputes from the table (does not rely on the cached `E_s`).
    pub fn is_safe(&self, epoch: u64) -> bool {
        epoch <= self.compute_safe()
    }

    /// Number of threads currently holding a guard.
    pub fn active_threads(&self) -> usize {
        self.inner.table.active_count()
    }

    /// Reserves an epoch-table entry for the calling thread and protects it
    /// at the current epoch (§2.4 *Acquire*).
    ///
    /// # Panics
    ///
    /// Panics if more than `max_threads` guards are alive at once.
    pub fn acquire(&self) -> EpochGuard {
        let slot = self
            .inner
            .table
            .reserve(self.current())
            .expect("epoch table full: more concurrent threads than max_threads");
        EpochGuard { epoch: self.clone(), slot }
    }

    /// Increments the current epoch (§2.4 *BumpEpoch* without an action).
    ///
    /// Returns the *previous* epoch value `c`; callers may later test
    /// [`Epoch::is_safe`]`(c)`.
    pub fn bump(&self) -> u64 {
        self.inner.metrics.bumps.inc();
        self.inner.current.fetch_add(1, Ordering::SeqCst)
    }

    /// Increments the current epoch from `c` to `c + 1` and registers
    /// `action` to run exactly once, after epoch `c` becomes safe
    /// (§2.4 *BumpEpoch(Action)*).
    ///
    /// If the drain list is full, this call collaborates by draining ready
    /// actions until a slot frees up (matching the C++ implementation's
    /// spin-and-drain behaviour).
    pub fn bump_with<F>(&self, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.bump_with_inner(None, Box::new(action));
    }

    fn bump_with_inner(&self, caller_slot: Option<usize>, action: Box<dyn FnOnce() + Send>) {
        self.inner.metrics.bumps.inc();
        let prior = self.inner.current.fetch_add(1, Ordering::SeqCst);
        let mut boxed = action;
        loop {
            match self.inner.drain.try_push(prior, boxed) {
                Ok(()) => break,
                Err(returned) => {
                    boxed = returned;
                    // Help: advance our own entry (otherwise our stale epoch
                    // would keep every pending action unsafe — deadlock),
                    // then drain whatever became ready and retry.
                    if let Some(slot) = caller_slot {
                        let e = self.inner.current.load(Ordering::SeqCst);
                        self.inner.table.set(slot, e);
                    }
                    let safe = self.compute_safe();
                    self.update_safe_and_drain(safe);
                    std::hint::spin_loop();
                }
            }
        }
        // The action may already be safe (e.g. no other active threads).
        let safe = self.compute_safe();
        self.update_safe_and_drain(safe);
    }

    /// Recomputes the safe epoch from the table and runs any trigger actions
    /// that have become safe — without requiring the caller to hold a guard.
    ///
    /// Guarded threads get this for free from [`EpochGuard::refresh`]. A
    /// *guardless* waiter (e.g. a sessionless resize helper waiting for an
    /// epoch-gated phase flip) must still be able to drive pending actions:
    /// if every guard was dropped right after a `bump_with`, nobody is left
    /// to notice the epoch became safe, and the waiter would spin on a
    /// transition only it can trigger. Calling `drive()` in the wait loop
    /// closes that hole.
    pub fn drive(&self) {
        let safe = self.compute_safe();
        self.update_safe_and_drain(safe);
    }

    /// Number of registered-but-not-yet-run trigger actions.
    pub fn pending_actions(&self) -> usize {
        self.inner.drain.len()
    }

    /// Runs every remaining trigger action regardless of epoch safety.
    ///
    /// Only sound once no guard is alive (e.g. store shutdown).
    ///
    /// # Panics
    ///
    /// Panics if any guard is still active.
    pub fn drain_all(&self) {
        assert_eq!(self.active_threads(), 0, "drain_all with active guards");
        let ran = self.inner.drain.drain_up_to(u64::MAX);
        self.inner.metrics.drain_actions.add(ran as u64);
    }

    /// Scans the epoch table and returns the maximal safe epoch.
    fn compute_safe(&self) -> u64 {
        let e = self.inner.current.load(Ordering::SeqCst);
        // Epoch c is safe iff all active threads have E_T > c, so the maximal
        // safe epoch is min(E_T) - 1; if nobody is active, it is E - 1.
        let min = self.inner.table.min_active().unwrap_or(e);
        min - 1
    }

    /// Monotonically advances the cached `E_s` and triggers ready actions.
    fn update_safe_and_drain(&self, new_safe: u64) {
        self.inner.safe.fetch_max(new_safe, Ordering::SeqCst);
        if self.inner.drain.len() > 0 {
            let ran = self.inner.drain.drain_up_to(self.inner.safe.load(Ordering::SeqCst));
            if ran > 0 {
                self.inner.metrics.drain_actions.add(ran as u64);
            }
        }
    }
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch")
            .field("current", &self.current())
            .field("safe", &self.safe())
            .field("active_threads", &self.active_threads())
            .field("pending_actions", &self.pending_actions())
            .finish()
    }
}

/// A thread's registration with the epoch framework (§2.4 *Acquire*..*Release*).
///
/// While a guard is alive and not refreshed, the owning thread may freely
/// dereference any epoch-protected memory it discovered: nothing announced for
/// reclamation after the guard's protected epoch can be freed. Dropping the
/// guard releases the table entry.
pub struct EpochGuard {
    epoch: Epoch,
    slot: usize,
}

impl EpochGuard {
    /// Updates this thread's entry to the current epoch, recomputes the safe
    /// epoch, and runs any trigger actions that became safe (§2.4 *Refresh*).
    pub fn refresh(&self) {
        self.epoch.inner.metrics.refreshes.inc();
        let e = self.epoch.inner.current.load(Ordering::SeqCst);
        self.epoch.inner.table.set(self.slot, e);
        let safe = self.epoch.compute_safe();
        self.epoch.update_safe_and_drain(safe);
    }

    /// Bumps the epoch with a trigger action, like [`Epoch::bump_with`], but
    /// safe to call from a protected thread even when the drain list is full:
    /// the retry loop refreshes *this* guard's entry so the caller's own stale
    /// epoch cannot deadlock the drain.
    ///
    /// Note that refreshing mid-operation forfeits this thread's guaranteed
    /// access to previously read epoch-protected memory; call this only at
    /// operation boundaries (which is where FASTER bumps epochs).
    pub fn bump_with<F>(&self, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.epoch.bump_with_inner(Some(self.slot), Box::new(action));
    }

    /// The epoch this guard currently protects.
    pub fn protected_epoch(&self) -> u64 {
        self.epoch.inner.table.get(self.slot)
    }

    /// The framework this guard belongs to.
    pub fn epoch(&self) -> &Epoch {
        &self.epoch
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        self.epoch.inner.table.release(self.slot);
        // Our departure may have made epochs safe; propagate so that pending
        // actions are not stranded waiting for a thread that left.
        let safe = self.epoch.compute_safe();
        self.epoch.update_safe_and_drain(safe);
    }
}

impl std::fmt::Debug for EpochGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochGuard")
            .field("slot", &self.slot)
            .field("protected_epoch", &self.protected_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests;
