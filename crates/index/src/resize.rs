//! On-line index resizing (Appendix B).
//!
//! Resizing doubles (grow) or halves (shrink) the bucket table while
//! concurrent latch-free operations continue. The protocol:
//!
//! 1. The initiator CASes `ResizeStatus` from *stable* to **prepare-to-resize**
//!    (same active version), allocates the new table, and publishes a
//!    [`ResizeRun`] describing the migration (chunk pins, done flags).
//! 2. It bumps the epoch with a trigger that atomically flips the status to
//!    **resizing** with the *new* version active. Because the trigger fires
//!    only once the pre-bump epoch is safe, every thread is guaranteed to have
//!    seen the prepare phase — and therefore to be pinning chunks — before any
//!    chunk is frozen.
//! 3. The old table is divided into `n` contiguous chunks, each with a pin
//!    word (see *Prioritized claims* below). In the prepare phase, operations
//!    pin the chunk they touch; a migrator freezes a chunk once its pin count
//!    drains to zero. Operations that are refused a pin re-read the status
//!    and switch to the resizing path.
//! 4. In the resizing phase, an operation first ensures the chunk(s) feeding
//!    its new bucket are migrated — migrating them itself if unclaimed
//!    (threads "co-operatively grab chunks"), backing off exponentially
//!    otherwise — then proceeds on the new table.
//! 5. When the migrated-chunk count reaches `n`, the finishing thread sets
//!    the status back to *stable* and normal operation resumes.
//!
//! ## Prioritized claims (the pin word)
//!
//! The paper freezes a chunk by CASing its pin count from `0` to −∞. Taken
//! literally that rule livelocks: the CAS only succeeds at an *instant* when
//! the count is exactly zero, and under continuous traffic prepare-phase
//! pinners re-pin faster than they drain, so the instant never comes — on a
//! single-core host the spinning migrator additionally starves the pinners
//! it is waiting on, and `grow` stalls indefinitely. We therefore give
//! migration **priority over new pins**. Each chunk's pin word packs three
//! fields into one `AtomicI64`:
//!
//! ```text
//!   bit 63 (sign)   FROZEN   — chunk claimed for exclusive migration (−∞)
//!   bit 62          INTENT   — a migrator has announced a pending freeze
//!   bits 0..62      count    — active prepare-phase pins
//! ```
//!
//! * `try_pin` increments the count **only if** the word is non-negative and
//!   `INTENT` is clear; otherwise the operation re-routes.
//! * A migrator first `fetch_or`s `INTENT` (refusing all future pins), then
//!   CASes `INTENT → FROZEN`, which can only succeed once the count is zero.
//!   `INTENT` is never cleared: each chunk freezes exactly once per run.
//!
//! **Progress argument.** Once `INTENT` is set on chunk `c`: (a) no new pin
//! on `c` can succeed, so the count is non-increasing; (b) every existing pin
//! is held only across one bounded index operation (pins never span waits on
//! other chunks — an operation holds at most one pin, and the only loop that
//! runs while pinned is the two-phase-insert duplicate backoff, which waits
//! on another *pinner* of the same bucket, never on migration — so there is
//! no cycle between pin-holders and the freeze); therefore the count drains
//! to zero in a bounded number of pinner steps and the first `INTENT → FROZEN`
//! CAS thereafter succeeds. All wait loops use exponential [`Backoff`]
//! (spin → yield → capped sleep), so on a single-core host waiters' CPU
//! share decays geometrically and the pinners/migrator being waited on get
//! scheduled — the drain bound above becomes a wall-clock bound. Guardless
//! waiters additionally call [`faster_epoch::Epoch::drive`] each iteration so
//! an epoch-gated phase flip can never strand them.
//!
//! Tentative two-phase inserts interact with freezing in one more way:
//! `collect_entries` skips tentative entries, so an insert whose tentative
//! claim straddles a freeze could be dropped. Guarded (and pinned) inserters
//! are safe — the `CreatedEntry` retains the chunk pin until finalize — and
//! guardless inserters are repaired by finalize-time validation in
//! `HashIndex` (see `CreatedEntry::finalize`).
//!
//! **Record migration** walks each index entry's record chain (via
//! [`RecordAccess`]), re-derives each record's new `(offset, tag)` from its
//! key hash, regroups and relinks the chains, and installs entries in the new
//! table.
//!
//! **What migration may touch:** only records in the log's *mutable region*
//! are regrouped and relinked. Anything at or below the read-only boundary —
//! sealed, flushed, or on disk — is treated as an opaque chain tail: a
//! rewrite there would race the flush (the disk copy would keep the old
//! pointer, losing the relink on eviction). A split therefore makes both
//! destination entries point at the same tail, and a merge joins two tails
//! through a caller-allocated *meta record*
//! ([`RecordAccess::try_alloc_merge_meta`]) — exactly the Appendix B
//! treatment, with the boundary drawn at mutability rather than memory
//! residency. Meta allocation happens *inside* the walk→relink window on
//! the log's refresh-free fast path: as long as the migrator's epoch entry
//! does not advance, pages sealed during the window — by its own
//! allocations or by concurrent appenders — cannot flush or evict, so the
//! classification stays valid until every relink is written. Allocation
//! backpressure aborts and restarts the window (see `migrate_pair_shrink`).

use crate::bucket::{BucketArray, ENTRIES_PER_BUCKET};
use crate::entry::HashBucketEntry;
use crate::{HashIndex, Phase, Status};
use faster_epoch::EpochGuard;
use faster_util::{Address, Backoff, CacheAligned, KeyHash};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How the resizer reads and relinks records owned by the record allocator.
///
/// The index stores only `(tag, address)`; splitting or merging buckets
/// requires re-hashing record keys, which only the allocator layer can do.
pub trait RecordAccess: Send + Sync {
    /// The key hash of the record at `addr`, or `None` if the record must
    /// not be walked into — not resident, **or resident but outside the
    /// log's mutable region** (sealed/flushed records may not be relinked;
    /// see the module docs, "what migration may touch").
    fn record_hash(&self, addr: Address) -> Option<KeyHash>;

    /// The previous-record pointer of the record at `addr`.
    /// Called only for addresses where `record_hash` returned `Some`.
    fn record_prev(&self, addr: Address) -> Address;

    /// Rewrites the previous-record pointer of the mutable record at
    /// `addr`. The resizer has exclusive structural access to the chain
    /// (its chunk is frozen), so this is a plain store on the header word.
    fn set_record_prev(&self, addr: Address, prev: Address);

    /// Attempts to allocate one *merge meta-record* (shrink only) on the
    /// record allocator's **refresh-free fast path**, returning `None` on
    /// allocation backpressure.
    ///
    /// The refresh-free contract is the point: a successful call must not
    /// advance the calling thread's epoch entry, because the resizer calls
    /// this inside the walk→relink window whose safety depends on that
    /// entry staying put (see `migrate_pair_shrink`). Sealing a log page on
    /// the way is fine — the seal's flush/evict triggers cannot fire past
    /// the pinned entry. On `None` the *caller* relieves the backpressure
    /// (refresh or drive, with backoff) and restarts its window; it must
    /// not be relieved here, since a refresh invalidates the caller's chain
    /// classification. (An implementation that instead blocked on a second
    /// guard would also self-deadlock: the caller's stale entry gates the
    /// very page-close trigger the spin waits on — observed in grow→shrink
    /// round trips with a full mutable region.)
    ///
    /// The meta is initialized pointing nowhere; the resizer aims it with
    /// [`RecordAccess::set_merge_meta`]. A meta abandoned un-aimed must be
    /// inert log garbage.
    fn try_alloc_merge_meta(&self, guard: Option<&EpochGuard>) -> Option<Address>;

    /// Points the merge meta-record at `meta` at the two chains `a` and `b`,
    /// so a single index entry can reach both prior linked lists. Called in
    /// the same refresh-free window that allocated `meta`, so the meta is
    /// necessarily still resident and not yet flushed.
    fn set_merge_meta(&self, meta: Address, a: Address, b: Address);
}

/// Sentinel pin value marking a frozen chunk (the paper's −∞).
const FROZEN: i64 = i64::MIN;
/// Claim-intent bit: a migrator has announced a pending freeze; `try_pin`
/// must refuse. Positive, so `word < 0` still means exactly "frozen".
const INTENT: i64 = 1 << 62;

/// The per-chunk pin/claim words implementing the prioritized-claim protocol
/// (see the module docs for the word layout and progress argument).
///
/// Public so the deterministic stress harness (`faster-stress`) can drive the
/// exact production protocol one step at a time and replay schedules against
/// it; everything else goes through [`ResizeRun`], which wraps pins in RAII
/// [`ChunkPin`] guards.
pub struct ChunkPins {
    pins: Vec<CacheAligned<AtomicI64>>,
}

impl ChunkPins {
    /// One zeroed pin word per chunk.
    pub fn new(n_chunks: usize) -> Self {
        Self { pins: (0..n_chunks).map(|_| CacheAligned::new(AtomicI64::new(0))).collect() }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// True if there are no chunks.
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }

    /// Prepare-phase pin: increments the chunk's pin count unless the chunk
    /// is frozen **or a freeze has been announced** (claim intent). Returns
    /// false in the latter cases; the operation must re-route.
    pub fn try_pin(&self, chunk: usize) -> bool {
        let cell = &self.pins[chunk].0;
        let mut v = cell.load(Ordering::SeqCst);
        loop {
            if v < 0 || v & INTENT != 0 {
                return false;
            }
            match cell.compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(cur) => v = cur,
            }
        }
    }

    /// Releases a pin obtained from [`ChunkPins::try_pin`].
    pub fn unpin(&self, chunk: usize) {
        let prev = self.pins[chunk].0.fetch_sub(1, Ordering::SeqCst);
        // A freeze can only succeed at pin count 0, so a live pin implies the
        // word was never frozen under us.
        debug_assert!(prev & !INTENT > 0, "unpin without a pin");
    }

    /// Announces claim intent on a chunk (idempotent): no `try_pin` succeeds
    /// afterwards, so the pin count can only drain. Intent is never cleared.
    pub fn announce_intent(&self, chunk: usize) {
        let cell = &self.pins[chunk].0;
        if cell.load(Ordering::SeqCst) >= 0 {
            // fetch_or on an already-FROZEN word would perturb the sentinel;
            // a frozen chunk needs no announcement. (A racing freeze between
            // the load and the fetch_or still leaves the word negative ⇒
            // still treated as frozen everywhere.)
            cell.fetch_or(INTENT, Ordering::SeqCst);
        }
    }

    /// Attempts to freeze the chunk for exclusive migration: announces
    /// intent, then CASes `INTENT → FROZEN`, which succeeds iff the pin
    /// count has drained to zero. At most one caller ever wins a chunk.
    pub fn try_freeze(&self, chunk: usize) -> bool {
        let cell = &self.pins[chunk].0;
        if cell.load(Ordering::SeqCst) < 0 {
            return false; // already frozen
        }
        self.announce_intent(chunk);
        cell.compare_exchange(INTENT, FROZEN, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }

    /// True once the chunk has been frozen for migration.
    pub fn is_frozen(&self, chunk: usize) -> bool {
        self.pins[chunk].0.load(Ordering::SeqCst) < 0
    }

    /// True once a migrator has announced (or completed) a freeze.
    pub fn has_intent(&self, chunk: usize) -> bool {
        let v = self.pins[chunk].0.load(Ordering::SeqCst);
        v < 0 || v & INTENT != 0
    }

    /// Current pin count (diagnostics; 0 for a frozen chunk).
    pub fn pin_count(&self, chunk: usize) -> i64 {
        let v = self.pins[chunk].0.load(Ordering::SeqCst);
        if v < 0 {
            0
        } else {
            v & !INTENT
        }
    }
}

impl Default for ChunkPins {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Shared state of one resize operation.
pub(crate) struct ResizeRun {
    pub grow: bool,
    pub old_version: usize,
    pub new_version: usize,
    #[allow(dead_code)]
    pub old_k: u8,
    pub new_k: u8,
    pub chunk_size: usize,
    pub n_chunks: usize,
    pins: ChunkPins,
    done: Vec<AtomicBool>,
    chunks_done: AtomicUsize,
    access: Arc<dyn RecordAccess>,
}

impl ResizeRun {
    fn new(
        grow: bool,
        old_version: usize,
        old_k: u8,
        max_chunks: usize,
        access: Arc<dyn RecordAccess>,
    ) -> Self {
        let old_len = 1usize << old_k;
        // For shrink, migration operates on *pairs* of old buckets, so a
        // chunk must contain at least two buckets and be pair-aligned.
        let cap = if grow { old_len } else { old_len / 2 };
        let n_chunks = max_chunks.next_power_of_two().min(cap.max(1));
        let chunk_size = old_len / n_chunks;
        Self {
            grow,
            old_version,
            new_version: 1 - old_version,
            old_k,
            new_k: if grow { old_k + 1 } else { old_k - 1 },
            chunk_size,
            n_chunks,
            pins: ChunkPins::new(n_chunks),
            done: (0..n_chunks).map(|_| AtomicBool::new(false)).collect(),
            chunks_done: AtomicUsize::new(0),
            access,
        }
    }

    /// The migration chunk containing old-table bucket `old_bucket`.
    #[inline]
    pub fn chunk_of(&self, old_bucket: usize) -> usize {
        old_bucket / self.chunk_size
    }

    /// Prepare-phase pin: increments the chunk's pin count unless the chunk
    /// is frozen or a migrator has announced claim intent. Returns `None` in
    /// the latter cases (the operation re-routes — migration has priority).
    pub fn try_pin(self: &Arc<Self>, chunk: usize) -> Option<ChunkPin> {
        if self.pins.try_pin(chunk) {
            Some(ChunkPin { run: self.clone(), chunk })
        } else {
            None
        }
    }

    /// Attempts to freeze an unmigrated chunk for exclusive migration:
    /// announces intent (refusing new pins from then on), then freezes once
    /// the existing pins drain.
    fn try_claim(&self, chunk: usize) -> bool {
        !self.done[chunk].load(Ordering::SeqCst) && self.pins.try_freeze(chunk)
    }

    fn is_done(&self, chunk: usize) -> bool {
        self.done[chunk].load(Ordering::SeqCst)
    }
}

/// An operation's pin on a migration chunk during the prepare phase.
/// Dropping it decrements the pin count, releasing the chunk to migrators.
pub(crate) struct ChunkPin {
    run: Arc<ResizeRun>,
    chunk: usize,
}

impl Drop for ChunkPin {
    fn drop(&mut self) {
        self.run.pins.unpin(self.chunk);
    }
}

/// Validates that `run` matches the current status (guards against reading a
/// previous resize's leftover run).
pub(crate) fn run_matches(run: &ResizeRun, s: Status) -> bool {
    match s.phase {
        Phase::Prepare => run.old_version == s.version,
        Phase::Resizing => run.new_version == s.version,
        Phase::Stable => false,
    }
}

/// Full resize driver (grow or shrink). Returns false if the index was not
/// in the stable phase (a resize is already running) or cannot shrink
/// further.
pub(crate) fn resize(
    index: &HashIndex,
    access: Arc<dyn RecordAccess>,
    guard: Option<&EpochGuard>,
    grow: bool,
) -> bool {
    let s = index.status();
    if s.phase != Phase::Stable {
        return false;
    }
    // Null only if another resize retired this version since `status`: its
    // run has claimed the flip this one would race for.
    let Some(old_arr) = index.try_array(s.version) else { return false };
    let old_k = old_arr.k_bits();
    if !grow && old_k <= 1 {
        return false;
    }

    // Step 1: claim the resize by entering prepare (same version active).
    let prepare = HashIndex::encode(Status { phase: Phase::Prepare, version: s.version });
    if index
        .status_cell()
        .compare_exchange(HashIndex::encode(s), prepare, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return false;
    }

    // A resizer without a session must still drive the epoch: the phase
    // flips below are bump_with triggers, and triggers only fire when some
    // guard refreshes (or another bump lands). If every session exits after
    // the bump, no thread would ever drain the trigger and the wait loops
    // below would spin forever. A temporary guard of our own closes that
    // hole — its refresh() both advances past the bump and drains.
    let own_guard = if guard.is_none() { Some(index.epoch().acquire()) } else { None };
    let guard = guard.or(own_guard.as_ref());

    // Step 2: allocate the new table and publish the run.
    let run = Arc::new(ResizeRun::new(grow, s.version, old_k, index.max_resize_chunks(), access));
    let new_arr = Box::into_raw(Box::new(BucketArray::new(run.new_k)));
    index.versions_ptr(run.new_version).store(new_arr, Ordering::SeqCst);
    *index.run_cell().write() = Some(run.clone());

    // Step 3: trigger the prepare -> resizing flip once the epoch is safe.
    let status_cell = index.status_cell_arc();
    let resizing = HashIndex::encode(Status { phase: Phase::Resizing, version: run.new_version });
    index.epoch().bump_with(move || status_cell.store(resizing, Ordering::SeqCst));

    // Step 4: wait for the flip (refreshing our own guard so the trigger can
    // fire), then participate in migration. The *whole* migration can come
    // and go between two observations of the status — operation threads see
    // the flip first, cooperatively migrate every chunk, and flip back to
    // stable while this thread sleeps in its backoff — so completion of the
    // run, not the Resizing phase, is the exit condition; waiting on the
    // phase alone misses the window and spins forever.
    let mut backoff = Backoff::new();
    loop {
        let s = index.status();
        if s.phase == Phase::Resizing && s.version == run.new_version {
            participate(index, &run, guard);
            break;
        }
        if run.chunks_done.load(Ordering::SeqCst) == run.n_chunks {
            break;
        }
        wait_step(index, guard, &mut backoff);
    }

    // Step 5: wait for stability, then retire the old table.
    backoff.reset();
    while index.status().phase != Phase::Stable {
        wait_step(index, guard, &mut backoff);
    }
    let old_ptr = index.versions_ptr(run.old_version).swap(std::ptr::null_mut(), Ordering::SeqCst);
    index.retire_array(old_ptr);
    true
}

/// One iteration of a wait loop: keep the epoch moving (guarded waiters
/// refresh their entry; guardless waiters drive the drain list directly so an
/// epoch-gated transition cannot strand them), then back off exponentially so
/// the wait does not starve the thread being waited on.
fn wait_step(index: &HashIndex, guard: Option<&EpochGuard>, backoff: &mut Backoff) {
    index.metrics().resize_backoffs.inc();
    match guard {
        Some(g) => g.refresh(),
        None => index.epoch().drive(),
    }
    backoff.snooze();
}

/// Claims and migrates chunks until all are done.
fn participate(index: &HashIndex, run: &Arc<ResizeRun>, guard: Option<&EpochGuard>) {
    let mut backoff = Backoff::new();
    loop {
        let mut all_done = true;
        let mut progressed = false;
        for c in 0..run.n_chunks {
            if run.is_done(c) {
                continue;
            }
            all_done = false;
            if run.try_claim(c) {
                index.metrics().resize_chunk_claims.inc();
                migrate_chunk(index, run, c, guard);
                finish_chunk(index, run, c);
                progressed = true;
            }
        }
        if all_done || run.chunks_done.load(Ordering::SeqCst) == run.n_chunks {
            return;
        }
        if progressed {
            backoff.reset();
        }
        // Waiting must not stall the epoch (see wait_step), and it must not
        // hot-spin: the remaining chunks are either pinned by prepare-phase
        // stragglers (which our announced intent will drain — but only if
        // they get CPU time) or being migrated by another thread.
        wait_step(index, guard, &mut backoff);
    }
}

/// Operation-path hook: make sure the source chunks feeding `hash`'s new
/// bucket are migrated, cooperatively migrating unclaimed ones.
pub(crate) fn ensure_migrated_for(
    index: &HashIndex,
    run: &Arc<ResizeRun>,
    _new_array: &BucketArray,
    hash: KeyHash,
    guard: Option<&EpochGuard>,
) {
    let nb = hash.bucket_index(run.new_k);
    // Source old buckets feeding new bucket `nb`.
    let (src_a, src_b) = if run.grow { (nb >> 1, nb >> 1) } else { (nb * 2, nb * 2 + 1) };
    // For shrink, both sources share a chunk (chunks are pair-aligned).
    debug_assert!(run.grow || run.chunk_of(src_a) == run.chunk_of(src_b));
    let chunk = run.chunk_of(src_a);
    let mut backoff = Backoff::new();
    loop {
        if run.is_done(chunk) {
            return;
        }
        if run.try_claim(chunk) {
            index.metrics().resize_chunk_claims.inc();
            migrate_chunk(index, run, chunk, guard);
            finish_chunk(index, run, chunk);
            return;
        }
        // Claim failed: either pinned by prepare-phase stragglers (try_claim
        // announced intent, so the pins can only drain) or being migrated by
        // someone else. Help on another chunk, then re-check.
        let mut helped = false;
        for c in 0..run.n_chunks {
            if c != chunk && run.try_claim(c) {
                index.metrics().resize_chunk_claims.inc();
                migrate_chunk(index, run, c, guard);
                finish_chunk(index, run, c);
                helped = true;
                break;
            }
        }
        if helped {
            backoff.reset();
        }
        // Keep our own epoch fresh: pinned stragglers may be blocked inside
        // allocation backpressure whose flush/evict triggers require *this*
        // thread to advance past the epoch bump (deadlock otherwise). And
        // back off: hot-spinning here is exactly what starved single-core
        // hosts before the prioritized-claim protocol.
        wait_step(index, guard, &mut backoff);
    }
}

fn finish_chunk(index: &HashIndex, run: &Arc<ResizeRun>, chunk: usize) {
    run.done[chunk].store(true, Ordering::SeqCst);
    let done = run.chunks_done.fetch_add(1, Ordering::SeqCst) + 1;
    if done == run.n_chunks {
        // Last chunk: return to stable on the new version.
        let stable = HashIndex::encode(Status { phase: Phase::Stable, version: run.new_version });
        index.status_cell().store(stable, Ordering::SeqCst);
    }
}

/// Migrates every old bucket in `chunk` into the new table. `guard` is the
/// migrator's epoch guard, threaded through to [`RecordAccess`] calls that
/// may allocate (see [`RecordAccess::try_alloc_merge_meta`]).
fn migrate_chunk(index: &HashIndex, run: &Arc<ResizeRun>, chunk: usize, guard: Option<&EpochGuard>) {
    // SAFETY: the run stored its new table before publishing itself, and the
    // old one is nulled only once the phase is stable again, after every
    // chunk, this one included, has finished; retired tables are never freed
    // while the index lives.
    let old_arr = unsafe { &*index.versions_ptr(run.old_version).load(Ordering::SeqCst) };
    // SAFETY: as above.
    let new_arr = unsafe { &*index.versions_ptr(run.new_version).load(Ordering::SeqCst) };
    let start = chunk * run.chunk_size;
    let end = start + run.chunk_size;
    if run.grow {
        for ob in start..end {
            migrate_bucket_grow(index, run, old_arr, new_arr, ob);
        }
    } else {
        let mut ob = start;
        while ob < end {
            migrate_pair_shrink(index, run, old_arr, new_arr, ob, guard);
            ob += 2;
        }
    }
}

/// Collects `(tag, address)` pairs from an old bucket's chain.
fn collect_entries(arr: &BucketArray, bucket_idx: usize) -> Vec<(u16, Address)> {
    let mut out = Vec::new();
    let mut bucket = Some(arr.bucket(bucket_idx));
    while let Some(b) = bucket {
        for i in 0..ENTRIES_PER_BUCKET {
            let e = b.load_entry(i);
            if !e.is_empty() && !e.is_tentative() && e.address().is_valid() {
                out.push((e.tag(), e.address()));
            }
        }
        bucket = b.overflow();
    }
    out
}

/// Walks the relinkable prefix of a record chain. Returns the records the
/// access layer reports as walkable (newest first, with their hashes) and
/// the first opaque address — the chain tail: sealed, flushed, or on disk;
/// `INVALID` if the chain ends within the walkable prefix.
fn walk_chain(access: &dyn RecordAccess, head: Address) -> (Vec<(Address, KeyHash)>, Address) {
    let mut mem = Vec::new();
    let mut cur = head;
    while cur.is_valid() {
        match access.record_hash(cur) {
            Some(h) => {
                mem.push((cur, h));
                cur = access.record_prev(cur);
            }
            None => break,
        }
    }
    (mem, cur)
}

/// Installs `(tag, addr)` into new-table bucket `bucket_idx`. The migrator
/// owns the destination bucket exclusively (operations wait for the chunk),
/// but CAS is used for defense in depth.
fn insert_entry(index: &HashIndex, arr: &BucketArray, bucket_idx: usize, tag: u16, addr: Address) {
    let mut bucket = arr.bucket(bucket_idx);
    let e = HashBucketEntry::new(addr, tag, false);
    loop {
        for i in 0..ENTRIES_PER_BUCKET {
            let word = bucket.entry(i);
            if word.load(Ordering::SeqCst) == 0
                && word.compare_exchange(0, e.0, Ordering::SeqCst, Ordering::SeqCst).is_ok()
            {
                return;
            }
        }
        match bucket.overflow() {
            Some(next) => bucket = next,
            None => {
                let fresh = index.overflow_pool().alloc();
                bucket = bucket.install_overflow(fresh);
            }
        }
    }
}

/// Splits one old bucket into its two child buckets (grow).
fn migrate_bucket_grow(
    index: &HashIndex,
    run: &Arc<ResizeRun>,
    old_arr: &BucketArray,
    new_arr: &BucketArray,
    ob: usize,
) {
    let tag_bits = index.tag_bits();
    let mask: u16 = if tag_bits == 0 { 0 } else { (1u16 << tag_bits) - 1 };
    for (tag, head) in collect_entries(old_arr, ob) {
        let (mem, disk_tail) = walk_chain(run.access.as_ref(), head);

        // Group resident records by exact new (bucket, tag), preserving
        // newest-first order within each group.
        let mut groups: Vec<((usize, u16), Vec<Address>)> = Vec::new();
        for &(addr, h) in &mem {
            let key = (h.bucket_index(run.new_k), h.tag(run.new_k, tag_bits));
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(addr),
                None => groups.push((key, vec![addr])),
            }
        }

        // Candidate destinations that must reach the disk tail even without
        // resident records ("both new hash entries point to the same disk
        // record").
        let candidates: Vec<(usize, u16)> = if tag_bits == 0 {
            vec![(ob * 2, 0), (ob * 2 + 1, 0)]
        } else {
            let db = ob * 2 + ((tag >> (tag_bits - 1)) & 1) as usize;
            let t0 = (tag << 1) & mask;
            vec![(db, t0), (db, t0 | 1)]
        };

        // Relink and install each resident group.
        for ((db, nt), list) in &groups {
            for w in list.windows(2) {
                run.access.set_record_prev(w[0], w[1]);
            }
            run.access.set_record_prev(*list.last().expect("nonempty group"), disk_tail);
            insert_entry(index, new_arr, *db, *nt, list[0]);
        }

        // Candidates not covered by a resident group still need an entry if
        // there is a disk tail.
        if disk_tail.is_valid() {
            for cand in candidates {
                if !groups.iter().any(|(k, _)| *k == cand) {
                    insert_entry(index, new_arr, cand.0, cand.1, disk_tail);
                }
            }
        }
    }
}

/// Merges one pair of old buckets into their parent bucket (shrink).
///
/// Each destination is migrated inside one **refresh-free window**: walk the
/// source chains (classifying records against the live mutable boundary),
/// allocate any needed merge metas on the allocator's no-refresh fast path,
/// aim them, and relink. Nothing in the window advances this thread's epoch
/// entry, so pages sealed meanwhile — by the window's own allocations or by
/// concurrent appenders — cannot flush or evict until the window closes:
/// every record classified walkable stays resident, and its rewritten
/// pointer lands before any flush can capture the page. When the fast path
/// reports backpressure the window is abandoned — relieving backpressure
/// refreshes the epoch, which invalidates the classification — and the
/// destination is re-walked from scratch; metas allocated in an abandoned
/// window are inert log garbage (never aimed, never published).
///
/// (An earlier design pre-allocated every meta up front and re-checked
/// mutability in a fixpoint loop. Under saturated concurrent appends the
/// mutable region is smaller than the set of metas that must stay inside
/// it, so that fixpoint never converges — observed as a livelock in
/// `shrink_during_concurrent_traffic`.)
fn migrate_pair_shrink(
    index: &HashIndex,
    run: &Arc<ResizeRun>,
    old_arr: &BucketArray,
    new_arr: &BucketArray,
    ob_even: usize,
    guard: Option<&EpochGuard>,
) {
    let tag_bits = index.tag_bits();
    let nb = ob_even / 2;
    // Phase 1: group source entries by destination tag. The new tag is fully
    // determined by (beta, old tag) — the records in one entry all share hash
    // bits [0, k+tag_bits) — so the destination set is independent of record
    // residency and stable across the allocations below.
    let mut dests: Vec<(u16, Vec<Address>)> = Vec::new();
    for beta in 0..2usize {
        for (tag, head) in collect_entries(old_arr, ob_even + beta) {
            let nt: u16 = if tag_bits == 0 {
                0
            } else {
                ((beta as u16) << (tag_bits - 1)) | (tag >> 1)
            };
            match dests.iter_mut().find(|(t, _)| *t == nt) {
                Some((_, heads)) => heads.push(head),
                None => dests.push((nt, vec![head])),
            }
        }
    }

    // Phase 2: migrate each destination inside its own refresh-free window
    // (walk → fast-path meta allocation → aim → relink), restarting the
    // window whenever allocation backpressure forces an epoch refresh.
    let mut backoff = Backoff::new();
    for (nt, heads) in dests {
        'window: loop {
            // Classify: walk every source chain feeding this destination.
            let mut chain: Vec<Address> = Vec::new();
            let mut tails: Vec<Address> = Vec::new();
            for &head in &heads {
                let (mem, tail) = walk_chain(run.access.as_ref(), head);
                chain.extend(mem.iter().map(|&(a, _)| a));
                if tail.is_valid() {
                    tails.push(tail);
                }
            }
            // Merge tails: one stays as-is; more are folded through metas,
            // each aimed immediately after its refresh-free allocation.
            let mut tail = Address::INVALID;
            if let Some((&first, rest)) = tails.split_first() {
                tail = first;
                for &d in rest {
                    let Some(meta) = run.access.try_alloc_merge_meta(guard) else {
                        // Log backpressure. Relieving it refreshes the epoch
                        // (letting sealed pages flush), which invalidates
                        // this window's classification — start over. Metas
                        // already folded into `tail` are abandoned garbage.
                        wait_step(index, guard, &mut backoff);
                        continue 'window;
                    };
                    run.access.set_merge_meta(meta, tail, d);
                    tail = meta;
                }
            }
            if chain.is_empty() {
                if tail.is_valid() {
                    insert_entry(index, new_arr, nb, nt, tail);
                }
            } else {
                for w in chain.windows(2) {
                    run.access.set_record_prev(w[0], w[1]);
                }
                run.access.set_record_prev(*chain.last().expect("nonempty"), tail);
                insert_entry(index, new_arr, nb, nt, chain[0]);
            }
            backoff.reset();
            break;
        }
    }
}
