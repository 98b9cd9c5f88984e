//! # faster-index
//!
//! The FASTER hash index (§3): a concurrent, latch-free, scalable and
//! resizable hash-based index mapping `(offset, tag)` pairs to record
//! addresses supplied by a record allocator.
//!
//! ## Shape (Fig 2)
//!
//! The index is a cache-aligned array of `2^k` 64-byte buckets; each bucket
//! holds seven 8-byte entries plus an overflow-bucket pointer. An entry packs
//! a 15-bit *tag* (extra hash resolution), a *tentative* bit, and a 48-bit
//! address. All entry manipulation is done with 64-bit compare-and-swap —
//! there are no latches anywhere on the operation path.
//!
//! ## Invariant (§3.2)
//!
//! Each `(offset, tag)` has at most one non-tentative index entry. Lookups
//! and deletes are plain CAS operations; *inserts* preserve the invariant
//! with the latch-free **two-phase insert**: claim an empty slot with the
//! tentative bit set (invisible to readers), re-scan the bucket for a
//! duplicate tag, then either back off (duplicate found) or finalize. Fig 3b
//! shows why no interleaving of two such inserters can produce duplicate
//! visible tags.
//!
//! ## Resizing (Appendix B) and checkpointing (§3.3)
//!
//! [`HashIndex::grow`] / [`HashIndex::shrink`] double or halve the table
//! on-line, coordinated by the epoch framework and a chunked cooperative
//! migration — see the resize module. [`HashIndex::checkpoint`] takes a
//! fuzzy, lock-free snapshot of all entries; recovery makes it consistent by
//! replaying the log tail (handled in `faster-core`).

#![deny(clippy::undocumented_unsafe_blocks)]

mod bucket;
mod checkpoint;
mod entry;
mod resize;

pub use bucket::{BucketArray, HashBucket, OverflowPool, ENTRIES_PER_BUCKET};
pub use checkpoint::IndexCheckpoint;
pub use entry::{HashBucketEntry, MAX_TAG_BITS};
pub use resize::{ChunkPins, RecordAccess};

use faster_epoch::{Epoch, EpochGuard};
use faster_metrics::IndexMetrics;
use faster_util::{Address, KeyHash, XorShift64};
use parking_lot::{Mutex, RwLock};
use resize::ResizeRun;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for a [`HashIndex`].
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// Initial table size: `2^k_bits` buckets.
    pub k_bits: u8,
    /// Tag width in bits (0–15). §7.2.2 shows throughput degrades < 14 %
    /// even with a 1-bit tag; 15 is the paper default.
    pub tag_bits: u8,
    /// Upper bound on the number of migration chunks during resizing
    /// ("the smaller of the maximum concurrency and the number of hash
    /// buckets", Appendix B).
    pub max_resize_chunks: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { k_bits: 16, tag_bits: MAX_TAG_BITS, max_resize_chunks: 64 }
    }
}

/// Resize phase (Appendix B): stable / prepare-to-resize / resizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Stable,
    Prepare,
    Resizing,
}

/// Decoded `ResizeStatus`: the phase and the active table version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub phase: Phase,
    pub version: usize,
}

fn encode_status(s: Status) -> u64 {
    let p = match s.phase {
        Phase::Stable => 0u64,
        Phase::Prepare => 1,
        Phase::Resizing => 2,
    };
    p | ((s.version as u64) << 2)
}

fn decode_status(v: u64) -> Status {
    let phase = match v & 3 {
        0 => Phase::Stable,
        1 => Phase::Prepare,
        2 => Phase::Resizing,
        _ => unreachable!("invalid phase bits"),
    };
    Status { phase, version: ((v >> 2) & 1) as usize }
}

/// The FASTER hash index.
pub struct HashIndex {
    tag_bits: u8,
    max_resize_chunks: usize,
    epoch: Epoch,
    /// Packed [`Status`]: the single byte the paper calls `ResizeStatus`.
    /// Arc'd so the prepare->resizing epoch trigger can outlive borrows.
    status: Arc<AtomicU64>,
    /// The two logical table versions (Appendix B). Only `status.version`
    /// is active in the stable phase; both are live mid-resize.
    versions: [AtomicPtr<BucketArray>; 2],
    /// Retired tables; freed when the index drops. Operations may still hold
    /// `EntrySlot` references into a retired table for the remainder of
    /// their current operation, so retirement must not free.
    // Boxed so retired-table addresses survive Vec reallocation.
    #[allow(clippy::vec_box)]
    graveyard: Mutex<Vec<Box<BucketArray>>>,
    overflow: OverflowPool,
    /// State of the in-progress (or most recent) resize.
    run: RwLock<Option<Arc<ResizeRun>>>,
    metrics: Arc<IndexMetrics>,
}

/// One live index entry *as the probe observed it* (§3.2: a find returns the
/// entry it saw, and every later CAS is against that value). The slot has no
/// `load` and its CAS methods take no `expected`: they compare against
/// [`EntrySlot::observed`] by construction, so a caller cannot publish into
/// a slot that was deleted (`EMPTY → addr`, the Fig 3a duplicate tag) or
/// re-claimed by another tag (overwriting that tag's chain head) since the
/// probe. `observed` is always non-empty, non-tentative and carries `tag`.
///
/// While the slot is held during the *prepare-to-resize* phase it also pins
/// its migration chunk, so the resizer cannot pull the bucket out from under
/// the caller's CAS (Appendix B pin array).
pub struct EntrySlot<'a> {
    word: &'a AtomicU64,
    tag: u16,
    observed: HashBucketEntry,
    _pin: Option<resize::ChunkPin>,
}

impl<'a> EntrySlot<'a> {
    /// The entry this slot held when it was probed (or last successfully
    /// CASed / re-observed through this handle).
    #[inline]
    pub fn observed(&self) -> HashBucketEntry {
        self.observed
    }

    /// The tag this slot was located under.
    #[inline]
    pub fn tag(&self) -> u16 {
        self.tag
    }

    /// Refreshes `observed` from the word — the only way to do so — and only
    /// if the slot still holds a visible entry for this tag. `false` means
    /// the entry was deleted or the slot re-claimed: re-probe.
    #[inline]
    pub fn reobserve(&mut self) -> bool {
        let e = HashBucketEntry(self.word.load(Ordering::SeqCst));
        let same = !e.is_empty() && !e.is_tentative() && e.tag() == self.tag;
        if same {
            self.observed = e;
        }
        same
    }

    /// CAS the slot from `observed` to point at `addr` (tag preserved); on
    /// failure returns the entry found instead.
    #[inline]
    pub fn cas_address(&mut self, addr: Address) -> Result<(), HashBucketEntry> {
        let new = HashBucketEntry::new(addr, self.tag, false);
        self.cas(new)?;
        self.observed = new;
        Ok(())
    }

    /// Deletes the entry (CAS from `observed` to the empty slot), as in §3.2
    /// "Finding and Deleting an Entry". Consumes the handle: an emptied slot
    /// is no longer this tag's.
    #[inline]
    pub fn cas_delete(self) -> Result<(), HashBucketEntry> {
        self.cas(HashBucketEntry::EMPTY)
    }

    #[inline]
    fn cas(&self, new: HashBucketEntry) -> Result<(), HashBucketEntry> {
        self.word
            .compare_exchange(self.observed.0, new.0, Ordering::SeqCst, Ordering::SeqCst)
            .map(|_| ())
            .map_err(HashBucketEntry)
    }
}

/// A freshly claimed, still-tentative entry produced by the two-phase insert.
///
/// The entry is invisible to every other thread until [`CreatedEntry::finalize`]
/// stores the record address and clears the tentative bit. Dropping the guard
/// without finalizing releases the slot (used when record allocation fails).
pub struct CreatedEntry<'a> {
    slot: Option<EntrySlot<'a>>,
    index: &'a HashIndex,
    /// The table the tentative slot was claimed in, captured for finalize-time
    /// displacement detection (pointer identity is ABA-safe: retired tables go
    /// to the graveyard and are never freed while the index lives, so no later
    /// allocation can reuse this address).
    array: *const BucketArray,
    hash: KeyHash,
}

impl<'a> CreatedEntry<'a> {
    /// Publishes the entry with `addr` and returns the now-visible slot,
    /// whose `observed` is the entry just stored.
    ///
    /// Migration skips tentative entries (`collect_entries`), so a tentative
    /// claim that straddles a resize could be published into an
    /// already-retired table and silently lost. Claims made while *pinned*
    /// (prepare phase) or under an epoch guard cannot straddle — the pin
    /// blocks the freeze and the guard blocks the phase flip until the
    /// operation completes. A **guardless** claim in the stable phase has
    /// neither shield, so after publishing we re-check that our table is
    /// still the active one and, if not, re-publish through the current
    /// routing state (see `republish_displaced`).
    pub fn finalize(mut self, addr: Address) -> EntrySlot<'a> {
        let mut slot = self.slot.take().expect("finalize called once");
        debug_assert!(addr.is_valid());
        slot.observed = HashBucketEntry::new(addr, slot.tag, false);
        slot.word.store(slot.observed.0, Ordering::SeqCst);
        if slot._pin.is_some() || std::ptr::eq(self.index.active_array_ptr(), self.array) {
            // Safe: either no resize moved the table since the claim, or the
            // claim holds a chunk pin — then the chunk cannot freeze until
            // the slot (and with it the pin) is dropped, at which point the
            // now-visible entry is migrated like any other.
            return slot;
        }
        self.index.republish_displaced(self.hash, addr, slot)
    }
}

impl Drop for CreatedEntry<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // Abandon: release the tentative claim.
            slot.word.store(HashBucketEntry::EMPTY.0, Ordering::SeqCst);
        }
    }
}

/// Index occupancy snapshot (see [`HashIndex::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Primary buckets in the active table.
    pub buckets: usize,
    /// Visible entries.
    pub entries: usize,
    /// Mid-insert tentative entries.
    pub tentative_entries: usize,
    /// Allocated overflow buckets currently linked.
    pub overflow_buckets: usize,
    /// Longest bucket chain (primary + overflow).
    pub max_chain: usize,
}

/// Outcome of [`HashIndex::find_or_create_tag`].
pub enum CreateOutcome<'a> {
    /// An entry for this `(offset, tag)` already existed.
    Found(EntrySlot<'a>),
    /// A fresh tentative entry was claimed for the caller.
    Created(CreatedEntry<'a>),
}

impl HashIndex {
    /// Creates an index with `2^k_bits` buckets and a private metrics group.
    pub fn new(config: IndexConfig, epoch: Epoch) -> Self {
        Self::with_metrics(config, epoch, Arc::new(IndexMetrics::default()))
    }

    /// Like [`HashIndex::new`], but events are recorded into the caller's
    /// shared metrics group (the store's registry).
    pub fn with_metrics(config: IndexConfig, epoch: Epoch, metrics: Arc<IndexMetrics>) -> Self {
        assert!(config.tag_bits <= MAX_TAG_BITS);
        assert!(config.k_bits >= 1);
        assert!(config.max_resize_chunks >= 1);
        let initial = Box::into_raw(Box::new(BucketArray::new(config.k_bits)));
        Self {
            tag_bits: config.tag_bits,
            max_resize_chunks: config.max_resize_chunks,
            epoch,
            status: Arc::new(AtomicU64::new(encode_status(Status {
                phase: Phase::Stable,
                version: 0,
            }))),
            versions: [AtomicPtr::new(initial), AtomicPtr::new(std::ptr::null_mut())],
            graveyard: Mutex::new(Vec::new()),
            overflow: OverflowPool::new(),
            run: RwLock::new(None),
            metrics,
        }
    }

    /// The metrics group this index records into.
    pub fn metrics(&self) -> &Arc<IndexMetrics> {
        &self.metrics
    }

    /// Current resize status.
    #[inline]
    pub fn status(&self) -> Status {
        decode_status(self.status.load(Ordering::SeqCst))
    }

    /// Configured tag width.
    #[inline]
    pub fn tag_bits(&self) -> u8 {
        self.tag_bits
    }

    /// `k` of the active table (`2^k` buckets).
    pub fn k_bits(&self) -> u8 {
        self.active_array().k_bits()
    }

    /// The epoch framework this index coordinates with.
    pub fn epoch(&self) -> &Epoch {
        &self.epoch
    }

    /// Configured chunk-count cap for resizing.
    pub fn max_resize_chunks(&self) -> usize {
        self.max_resize_chunks
    }

    /// The table pointer for `version`, or `None` if the slot is empty. A
    /// `None` means the status the caller routed on went stale between its
    /// status and pointer loads — a resize completed in the gap and retired
    /// that version (resizers null the old slot when they retire it) — so
    /// the caller must reread the status and retry. A *non-null* pointer is
    /// always safe to dereference: tables are only ever retired to the
    /// graveyard (alive until Drop), never freed while the index lives.
    #[inline]
    fn try_array(&self, version: usize) -> Option<&BucketArray> {
        let p = self.versions[version].load(Ordering::SeqCst);
        if p.is_null() {
            return None;
        }
        // SAFETY: a non-null version pointer came from `Box::into_raw`, and
        // a retired table stays alive in the graveyard until the index drops.
        Some(unsafe { &*p })
    }

    /// The active table, revalidated: retries until a status/pointer pair
    /// agrees, so a concurrent resize can neither hand out a null slot nor
    /// the next run's still-unmigrated table.
    #[inline]
    pub(crate) fn active_array(&self) -> &BucketArray {
        loop {
            let s = self.status();
            if let Some(arr) = self.try_array(s.version) {
                if self.status() == s {
                    return arr;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Finds the non-tentative entry for `hash`'s `(offset, tag)`, if any
    /// (§3.2 "Finding and Deleting an Entry").
    ///
    /// `guard`: the calling thread's epoch guard, if it holds one. During a
    /// resize, waits inside the routing state machine refresh it so the
    /// caller's own stale epoch cannot stall the epoch-gated phase changes
    /// it is waiting on (cooperative progress, Appendix B).
    pub fn find_tag(&self, hash: KeyHash, guard: Option<&EpochGuard>) -> Option<EntrySlot<'_>> {
        loop {
            match self.route(hash, guard) {
                Route::Table { array, pin } => return self.find_in(array, hash, pin),
                Route::Retry => continue,
            }
        }
    }

    /// Issues a software prefetch for the primary bucket `hash` routes to in
    /// the active table. Stage one of the batched pipeline (DESIGN.md §3):
    /// the caller hashes a whole batch, prefetches every target bucket, and
    /// only then starts probing, so the independent bucket misses overlap.
    /// Purely a hint — a concurrent resize can swap tables between hint and
    /// probe, costing nothing but the wasted prefetch.
    #[inline]
    pub fn prefetch_bucket(&self, hash: KeyHash) {
        let arr = self.active_array();
        let bucket = arr.bucket(hash.bucket_index(arr.k_bits()));
        faster_util::prefetch_read(bucket as *const _);
    }

    /// Finds the entry for `(offset, tag)` or claims a fresh tentative one
    /// via the two-phase insert algorithm (§3.2, Fig 3b). See
    /// [`HashIndex::find_tag`] for the `guard` parameter.
    pub fn find_or_create_tag(
        &self,
        hash: KeyHash,
        guard: Option<&EpochGuard>,
    ) -> CreateOutcome<'_> {
        loop {
            match self.route(hash, guard) {
                Route::Table { array, pin } => return self.find_or_create_in(array, hash, pin),
                Route::Retry => continue,
            }
        }
    }

    /// Occupancy statistics of the active table (diagnostics; approximate
    /// under concurrency).
    pub fn stats(&self) -> IndexStats {
        let arr = self.active_array();
        let mut s = IndexStats { buckets: arr.len(), ..Default::default() };
        for i in 0..arr.len() {
            let mut chain_len = 0usize;
            let mut bucket = Some(arr.bucket(i));
            while let Some(b) = bucket {
                chain_len += 1;
                for j in 0..ENTRIES_PER_BUCKET {
                    let e = b.load_entry(j);
                    if !e.is_empty() {
                        if e.is_tentative() {
                            s.tentative_entries += 1;
                        } else {
                            s.entries += 1;
                        }
                    }
                }
                bucket = b.overflow();
            }
            s.overflow_buckets += chain_len - 1;
            s.max_chain = s.max_chain.max(chain_len);
        }
        s
    }

    /// Total non-tentative entries across all buckets (test/diagnostic aid;
    /// approximate under concurrency).
    pub fn count_entries(&self) -> usize {
        let arr = self.active_array();
        let mut n = 0;
        for i in 0..arr.len() {
            let mut bucket = Some(arr.bucket(i));
            while let Some(b) = bucket {
                for j in 0..ENTRIES_PER_BUCKET {
                    let e = b.load_entry(j);
                    if !e.is_empty() && !e.is_tentative() {
                        n += 1;
                    }
                }
                bucket = b.overflow();
            }
        }
        n
    }

    /// Routes an operation to the correct table version per the resize state
    /// machine, pinning its chunk in the prepare phase (Appendix B).
    fn route(&self, hash: KeyHash, guard: Option<&EpochGuard>) -> Route<'_> {
        let s = self.status();
        match s.phase {
            Phase::Stable => {
                // The status may go stale between its load and the pointer
                // load: a guardless caller (no epoch to gate the flips) can
                // observe a whole resize complete in the gap, leaving the
                // slot null — or, one run later, holding the *next* run's
                // still-unmigrated table. Revalidate the pair; the graveyard
                // keeps a stale-but-revalidated array dereferenceable.
                let Some(array) = self.try_array(s.version) else {
                    return Route::Retry;
                };
                if self.status() != s {
                    return Route::Retry;
                }
                Route::Table { array, pin: None }
            }
            Phase::Prepare => {
                // Version is still the old table; pin its chunk so migration
                // cannot freeze it mid-operation.
                let Some(array) = self.try_array(s.version) else {
                    return Route::Retry;
                };
                let run = self.run.read().clone();
                let Some(run) = run else {
                    // Run not yet published; transient - retry.
                    return Route::Retry;
                };
                if !resize::run_matches(&run, s) {
                    // Leftover run from a previous resize; the new one is
                    // not yet published.
                    return Route::Retry;
                }
                let chunk = run.chunk_of(hash.bucket_index(array.k_bits()));
                match run.try_pin(chunk) {
                    Some(pin) => Route::Table { array, pin: Some(pin) },
                    // Chunk frozen: resizing has begun; reread status.
                    None => Route::Retry,
                }
            }
            Phase::Resizing => {
                // Version already points at the new table; make sure the
                // source chunks feeding our bucket have been migrated,
                // cooperatively migrating if needed.
                let Some(new_array) = self.try_array(s.version) else {
                    return Route::Retry;
                };
                let run = self.run.read().clone();
                let Some(run) = run else { return Route::Retry };
                if !resize::run_matches(&run, s) {
                    return Route::Retry;
                }
                resize::ensure_migrated_for(self, &run, new_array, hash, guard);
                Route::Table { array: new_array, pin: None }
            }
        }
    }

    fn find_in<'a>(
        &'a self,
        array: &'a BucketArray,
        hash: KeyHash,
        pin: Option<resize::ChunkPin>,
    ) -> Option<EntrySlot<'a>> {
        let k = array.k_bits();
        let tag = hash.tag(k, self.tag_bits);
        let mut bucket = array.bucket(hash.bucket_index(k));
        let mut steps = 0u64;
        loop {
            for i in 0..ENTRIES_PER_BUCKET {
                let word = bucket.entry(i);
                let e = HashBucketEntry(word.load(Ordering::SeqCst));
                steps += 1;
                if !e.is_empty() && !e.is_tentative() && e.tag() == tag {
                    // Single shard lookup for the pair: this is the read
                    // hot path, where two separate adds measurably cost.
                    self.metrics.probes.add_two(1, &self.metrics.probe_steps, steps);
                    return Some(EntrySlot { word, tag, observed: e, _pin: pin });
                }
            }
            match bucket.overflow() {
                Some(next) => bucket = next,
                None => {
                    self.metrics.probes.add_two(1, &self.metrics.probe_steps, steps);
                    return None;
                }
            }
        }
    }

    fn find_or_create_in<'a>(
        &'a self,
        array: &'a BucketArray,
        hash: KeyHash,
        pin: Option<resize::ChunkPin>,
    ) -> CreateOutcome<'a> {
        let k = array.k_bits();
        let tag = hash.tag(k, self.tag_bits);
        let first = array.bucket(hash.bucket_index(k));
        let mut jitter = XorShift64::new(hash.0 | 1);
        // Shared pin across retries: moved into the eventual result.
        let mut pin = pin;
        self.metrics.probes.inc();
        'retry: loop {
            // ---- Phase 1: scan the chain for the tag, noting a free slot.
            let mut free_word: Option<&AtomicU64> = None;
            let mut bucket = first;
            let mut steps = 0u64;
            let last = loop {
                for i in 0..ENTRIES_PER_BUCKET {
                    let word = bucket.entry(i);
                    let e = HashBucketEntry(word.load(Ordering::SeqCst));
                    steps += 1;
                    if e.is_empty() {
                        if free_word.is_none() {
                            free_word = Some(word);
                        }
                        continue;
                    }
                    if e.tag() == tag {
                        if e.is_tentative() {
                            // Another thread mid-insert of this tag: back off
                            // and retry (§3.2).
                            self.metrics.probe_steps.add(steps);
                            self.metrics.tentative_restarts.inc();
                            backoff(&mut jitter);
                            continue 'retry;
                        }
                        self.metrics.probe_steps.add(steps);
                        return CreateOutcome::Found(EntrySlot { word, tag, observed: e, _pin: pin });
                    }
                }
                match bucket.overflow() {
                    Some(next) => bucket = next,
                    None => break bucket,
                }
            };

            self.metrics.probe_steps.add(steps);

            // ---- Phase 2: claim an empty slot tentatively.
            let Some(word) = free_word else {
                // Chain exhausted: extend it with an overflow bucket and retry
                // (the new bucket has seven empty slots).
                let fresh = self.overflow.alloc();
                self.metrics.overflow_allocs.inc();
                last.install_overflow(fresh);
                continue 'retry;
            };
            let tentative = HashBucketEntry::new(Address::INVALID, tag, true);
            if word
                .compare_exchange(0, tentative.0, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                self.metrics.tentative_restarts.inc();
                continue 'retry;
            }

            // ---- Phase 3: re-scan for a duplicate (possibly tentative) tag.
            let mut bucket = first;
            loop {
                for i in 0..ENTRIES_PER_BUCKET {
                    let other = bucket.entry(i);
                    if std::ptr::eq(other, word) {
                        continue;
                    }
                    let e = HashBucketEntry(other.load(Ordering::SeqCst));
                    if !e.is_empty() && e.tag() == tag {
                        // Duplicate: release our claim, back off, retry.
                        word.store(HashBucketEntry::EMPTY.0, Ordering::SeqCst);
                        self.metrics.tentative_restarts.inc();
                        backoff(&mut jitter);
                        continue 'retry;
                    }
                }
                match bucket.overflow() {
                    Some(next) => bucket = next,
                    None => break,
                }
            }

            // No duplicate: the claim stands. The caller finalizes with the
            // record address (clearing the tentative bit), or drops to abort.
            return CreateOutcome::Created(CreatedEntry {
                slot: Some(EntrySlot { word, tag, observed: tentative, _pin: pin.take() }),
                index: self,
                array,
                hash,
            });
        }
    }

    /// Grows the index to `2^(k+1)` buckets on-line (Appendix B).
    ///
    /// Pass the caller's epoch guard if it holds one, so the wait loop can
    /// keep refreshing (otherwise the phase trigger could never fire).
    /// Returns false if another resize was already in progress.
    pub fn grow(&self, access: Arc<dyn RecordAccess>, guard: Option<&EpochGuard>) -> bool {
        resize::resize(self, access, guard, true)
    }

    /// Shrinks the index to `2^(k-1)` buckets on-line (Appendix B).
    pub fn shrink(&self, access: Arc<dyn RecordAccess>, guard: Option<&EpochGuard>) -> bool {
        resize::resize(self, access, guard, false)
    }

    /// Takes a fuzzy checkpoint of the index (§3.3, §6.5): a lock-free scan
    /// of every entry, with no quiescing of concurrent operations.
    pub fn checkpoint(&self) -> IndexCheckpoint {
        checkpoint::capture(self)
    }

    /// Rebuilds an index from a checkpoint (single-threaded recovery path).
    pub fn restore(ckpt: &IndexCheckpoint, max_resize_chunks: usize, epoch: Epoch) -> Self {
        checkpoint::restore(ckpt, max_resize_chunks, epoch, Arc::new(IndexMetrics::default()))
    }

    /// [`HashIndex::restore`] recording into an existing metrics group.
    pub fn restore_with_metrics(
        ckpt: &IndexCheckpoint,
        max_resize_chunks: usize,
        epoch: Epoch,
        metrics: Arc<IndexMetrics>,
    ) -> Self {
        checkpoint::restore(ckpt, max_resize_chunks, epoch, metrics)
    }

    /// Raw pointer to the active table (comparison only — may be stale, or
    /// even null if a full resize retires the observed version mid-read;
    /// never dereference).
    #[inline]
    fn active_array_ptr(&self) -> *const BucketArray {
        self.versions[self.status().version].load(Ordering::SeqCst)
    }

    /// Slow path of [`CreatedEntry::finalize`]: the tentative claim was made
    /// guardless and unpinned in a table that a concurrent resize has since
    /// displaced, so the published entry may sit in a retired table (and may
    /// or may not have been copied by migration, depending on whether the
    /// migrator scanned the bucket before or after the publish). Make the
    /// publish stick in the *current* table:
    ///
    /// 1. Retract the entry from the displaced table. After this, a migrator
    ///    that has not yet scanned the bucket can never copy it — so step 2
    ///    cannot produce a duplicate.
    /// 2. Re-run the routed insert. `Found` means migration did copy our
    ///    entry (it carries our address); `Created` means it was skipped —
    ///    finalize again (recursively validating, in case yet another resize
    ///    lands).
    fn republish_displaced<'a>(
        &'a self,
        hash: KeyHash,
        addr: Address,
        displaced: EntrySlot<'a>,
    ) -> EntrySlot<'a> {
        debug_assert!(displaced._pin.is_none(), "pinned claims are never displaced");
        displaced.word.store(HashBucketEntry::EMPTY.0, Ordering::SeqCst);
        drop(displaced);
        loop {
            match self.find_or_create_tag(hash, None) {
                CreateOutcome::Found(mut slot) => {
                    if slot.observed().address() == addr {
                        return slot;
                    }
                    // Another guardless inserter of the same (offset, tag)
                    // raced the same displacement window and published first.
                    // Mirror record-layer upsert semantics (last writer wins):
                    // point the entry at our record. The loser's record stays
                    // allocated but unreachable as a chain head — acceptable
                    // for the supported guardless users (single-threaded
                    // recovery/restore paths), documented in DESIGN.md.
                    if slot.cas_address(addr).is_ok() {
                        return slot;
                    }
                }
                CreateOutcome::Created(created) => return created.finalize(addr),
            }
        }
    }

    pub(crate) fn retire_array(&self, ptr: *mut BucketArray) {
        if !ptr.is_null() {
            // Safety: the pointer came from Box::into_raw and is no longer an
            // active version; the graveyard keeps the allocation alive so any
            // straggling EntrySlot borrows stay valid until index drop.
            self.graveyard.lock().push(unsafe { Box::from_raw(ptr) });
        }
    }

    pub(crate) fn versions_ptr(&self, version: usize) -> &AtomicPtr<BucketArray> {
        &self.versions[version]
    }

    pub(crate) fn status_cell(&self) -> &AtomicU64 {
        &self.status
    }

    pub(crate) fn status_cell_arc(&self) -> Arc<AtomicU64> {
        self.status.clone()
    }

    pub(crate) fn run_cell(&self) -> &RwLock<Option<Arc<ResizeRun>>> {
        &self.run
    }

    pub(crate) fn overflow_pool(&self) -> &OverflowPool {
        &self.overflow
    }

    pub(crate) fn encode(s: Status) -> u64 {
        encode_status(s)
    }
}

enum Route<'a> {
    Table { array: &'a BucketArray, pin: Option<resize::ChunkPin> },
    Retry,
}

#[cold]
fn backoff(jitter: &mut XorShift64) {
    for _ in 0..(jitter.next_below(64) + 1) {
        std::hint::spin_loop();
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        for v in &self.versions {
            let p = v.swap(std::ptr::null_mut(), Ordering::SeqCst);
            if !p.is_null() {
                // Safety: exclusive access in Drop; pointer came from Box::into_raw.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        // graveyard and overflow pool free themselves.
    }
}

#[cfg(test)]
mod tests;
