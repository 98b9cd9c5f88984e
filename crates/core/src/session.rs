//! Sessions and the four store operations (Algorithms 2–4, §2.5, §6.3).
//!
//! A [`Session`] is one thread's registration with the store: it wraps an
//! epoch guard (acquired on creation, released on drop), refreshes the epoch
//! every `refresh_interval` operations, and owns the pending queue for
//! operations that returned `PENDING` — disk reads (§5.3) and fuzzy-region
//! RMWs (§6.3). Call [`Session::complete_pending`] periodically to drive
//! continuations, exactly as the paper's thread lifecycle prescribes.
//!
//! ## Completion-driven I/O
//!
//! Pending disk reads are continuation-driven over the device's
//! submission/completion ring: each op that misses memory parks its context
//! in a continuation table keyed by a fresh id, and queues a ring-routed
//! SQE carrying that id. The one batch call, [`Session::execute_batch`],
//! hands the SQEs it queued to the device in one batched handoff before it
//! returns, so its cold reads are in flight while the caller does other
//! work (§5.3). [`Session::complete_pending`] drives the
//! rest of the cycle — submit what scalar ops and continuations queued,
//! reap CQEs straight off the session's [`CompletionRing`] (one atomic
//! swap, no thread hop, no lock), and resume each continuation by id. A
//! single session can therefore keep hundreds of disk reads in flight:
//! issue a batch of reads, then call `complete_pending` to overlap all of
//! their I/O.

use crate::functions::Functions;
use crate::record::{
    RecordHeader, RecordRef, RecordView, DELTA_BIT, INVALID_BIT, TOMBSTONE_BIT,
};
use crate::read_cache::{is_rc, rc_tag, rc_untag};
use crate::health::{HealthReason, StoreError};
use crate::{hash_key, FasterKv};
use faster_epoch::EpochGuard;
use faster_hlog::{ReadSpan, Region};
use faster_index::CreateOutcome;
use faster_metrics::{SessionHub, SessionRecorder, Timer};
use faster_storage::{CompletionRing, Cqe, Sqe};
use faster_util::{Address, KeyHash, Pod};
use faster_wal::{Lsn, Wal};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Successful completion of a store operation (the unified operation API).
///
/// Every public operation returns [`OpResult`] = `Result<Outcome, OpError>`:
/// a read that finds the key and an applied RMW yield `Value`, an applied
/// upsert, delete or CRDT delta yields `Done`, and everything else — absent
/// key, asynchronous continuation, read-only degradation, exhausted I/O — is
/// a typed [`OpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<O> {
    /// A read found the key, or an RMW applied: the user functions produced
    /// this output (an RMW's is its updater's).
    Value(O),
    /// An upsert, a delete or a CRDT delta RMW (§6.3) was applied.
    Done,
}

impl<O> Outcome<O> {
    /// The output, if this outcome carries one.
    #[inline]
    pub fn value(self) -> Option<O> {
        match self {
            Outcome::Value(o) => Some(o),
            Outcome::Done => None,
        }
    }
}

/// Why an operation did not (or has not yet) produced an [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// The key does not exist (reads; a delete of an absent key is `Done`).
    NotFound,
    /// The operation went asynchronous (disk read, fuzzy-region RMW); the id
    /// is echoed by the [`Completion`] that [`Session::complete_pending`]
    /// eventually returns for it.
    Pending(u64),
    /// The store has degraded to read-only (DESIGN.md §12) and refuses new
    /// mutations; the reason names the fault. Reads are never refused.
    ReadOnly(HealthReason),
    /// The operation's I/O failed ([`faster_storage::IoError`]) and
    /// exhausted its bounded retry budget. The store was **not** mutated and
    /// the key was **not** declared absent — the caller may re-issue the
    /// operation once the device recovers. (A GC-truncated record, by
    /// contrast, genuinely means "key absent" and completes as
    /// `Err(NotFound)` / `Ok(Done)`.) Surfaced only through completions.
    Io(faster_storage::IoError),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NotFound => write!(f, "key not found"),
            OpError::Pending(id) => write!(f, "operation pending (id {id})"),
            OpError::ReadOnly(r) => write!(f, "store is read-only: {r}"),
            OpError::Io(e) => write!(f, "I/O failed: {e}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<StoreError> for OpError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::ReadOnly(r) => OpError::ReadOnly(r),
        }
    }
}

/// Result of every store operation. See [`Outcome`] and [`OpError`].
pub type OpResult<O> = Result<Outcome<O>, OpError>;

/// A formerly pending operation completed by [`Session::complete_pending`]:
/// the id the operation originally returned via `OpError::Pending`, plus its
/// final [`OpResult`] (`Ok(Value)` / `Err(NotFound)` for reads, `Ok(Value)`
/// for RMWs, `Err(Io)` when the I/O retry budget ran out).
#[derive(Debug)]
pub struct Completion<O> {
    pub id: u64,
    pub result: OpResult<O>,
}

/// Bounded retry budget for transiently failed I/O (device errors, not
/// GC truncation). Retries pace themselves with [`faster_util::Backoff`];
/// past the budget the op completes as `Err(OpError::Io)`.
const MAX_IO_RETRIES: u32 = 8;

/// One operation of a heterogeneous batch ([`Session::execute_batch`]).
#[derive(Debug, Clone)]
pub enum BatchOp<K, V, I> {
    Read { key: K, input: I },
    Upsert { key: K, value: V },
    Rmw { key: K, input: I },
    Delete { key: K },
}

impl<K, V, I> BatchOp<K, V, I> {
    #[inline]
    fn key(&self) -> &K {
        match self {
            BatchOp::Read { key, .. }
            | BatchOp::Upsert { key, .. }
            | BatchOp::Rmw { key, .. }
            | BatchOp::Delete { key } => key,
        }
    }
}

/// What a record handed to [`Session::publish`] is: the kind fixes its
/// header bits, the write-identity bucket it counts into, the records it
/// leaves dead, and its WAL redo record.
#[derive(Clone, Copy)]
pub(crate) enum WriteKind {
    /// First live version under its entry (fresh key, or a key re-created
    /// over a tombstone or an exhausted chain).
    Append,
    /// Supersedes an older version of the key (read-copy-update).
    Rcu,
    /// CRDT partial value (§6.3).
    Delta,
    /// Deletion marker (§5.3).
    Tombstone,
    /// Compaction rolling a live base or delta record to the tail
    /// (Appendix C): not a mutation — no write counter, no WAL record.
    Roll { delta: bool },
}

/// A walk down one key's record chain (Algorithm 2): the record to visit
/// next, the second chains of the merge records passed so far (Appendix B),
/// and the CRDT partials folded so far (§6.3). Every operation, pending
/// continuation, version history and compaction liveness walk with it.
pub(crate) struct Walk<V> {
    addr: Address,
    /// The chain head the walk started from: what [`Session::reprobe`]
    /// compares the index entry against.
    head: Address,
    fallbacks: Vec<Address>,
    acc: Option<V>,
}

/// What one record means to a walk for one key.
pub(crate) enum Step {
    /// Another key's record, an invalid one, or a merge record (whose
    /// second chain the walk has parked as a fallback).
    Skip,
    Tombstone,
    /// A CRDT partial (§6.3).
    Delta,
    Base,
}

impl<V: Pod> Walk<V> {
    pub(crate) fn new(head: Address) -> Self {
        Self { addr: head, head, fallbacks: Vec::new(), acc: None }
    }

    /// The record at `addr` could not be read. Unless truncation cut it —
    /// it lies below `begin` now, where [`Session::advance`] re-probes —
    /// this chain ends here.
    fn unreadable(&mut self, begin: Address) {
        if self.addr >= begin {
            self.addr = Address::INVALID;
        }
    }

    /// Classifies `rec` (the record at `addr`) for `key` and moves the walk
    /// to its `prev`; a merge record also parks its second chain.
    #[inline]
    pub(crate) fn step<K: Pod + Eq>(&mut self, rec: &RecordRef<K, V>, key: &K) -> Step {
        let h = rec.header();
        self.addr = h.prev();
        if h.is_merge() {
            self.fallbacks.push(rec.second_address());
            Step::Skip
        } else if h.is_invalid() || rec.key() != *key {
            Step::Skip
        } else if h.is_tombstone() {
            Step::Tombstone
        } else if h.is_delta() {
            Step::Delta
        } else {
            Step::Base
        }
    }

    /// Folds a delta's partial into the running CRDT value.
    pub(crate) fn fold<K: Pod>(&mut self, f: &impl Functions<K, V>, part: V) {
        self.acc = Some(match &self.acc {
            Some(a) => f.merge(a, &part),
            None => part,
        });
    }

    /// The key's value once the walk stops: `base` (`None` = tombstone or
    /// chain end) merged with the folded deltas — which fold onto the
    /// identity when no base exists (§6.3).
    pub(crate) fn value<K: Pod>(&self, f: &impl Functions<K, V>, base: Option<V>) -> Option<V> {
        match &self.acc {
            Some(_) => Some(self.fold_onto(f, base.unwrap_or_else(|| f.identity()))),
            None => base,
        }
    }

    /// `base` merged with the folded deltas.
    pub(crate) fn fold_onto<K: Pod>(&self, f: &impl Functions<K, V>, base: V) -> V {
        self.acc.as_ref().map_or(base, |a| f.merge(&base, a))
    }

    /// The record the walk visits next (the one `resolve_blocking` returned).
    pub(crate) fn at(&self) -> Address {
        self.addr
    }
}

/// Where an operation's walk stopped (see [`Session::seek`]).
enum Seek<K: Pod, V: Pod> {
    /// The key's first record at or above the floor: its address, the
    /// record, and what it is (never [`Step::Skip`]).
    Found(Address, RecordRef<K, V>, Step),
    /// Every chain is exhausted above the floor.
    Absent,
    /// The next record (at the walk's `addr`) is below the head address.
    OnDisk,
}

enum PendingKind {
    Read,
    /// `entry_addr` is the index entry the RMW observed, re-checked before
    /// its result is published.
    Rmw { entry_addr: Address },
}

struct PendingOp<K, V, I> {
    id: u64,
    key: K,
    hash: KeyHash,
    input: I,
    kind: PendingKind,
    /// The walk to resume; its `addr` is the record whose read was issued.
    walk: Walk<V>,
    /// Transient-I/O-failure retries consumed so far (see [`MAX_IO_RETRIES`]).
    attempts: u32,
}

/// A fuzzy-region RMW deferred to the next `complete_pending` pass (§6.3).
struct FuzzyRetry<K, I> {
    id: u64,
    key: K,
    hash: KeyHash,
    input: I,
}

/// A pending op parked in the continuation table: the context to resume
/// when the CQE bearing its id is reaped, plus the issue timestamp feeding
/// the `io_latency` histogram.
struct Parked<K, V, I> {
    op: PendingOp<K, V, I>,
    issued: Instant,
    /// Checksum-verification plan for the in-flight read; `None` when the
    /// op short-circuited (its error CQE is already in the ring).
    span: Option<ReadSpan>,
}

/// The continuation table: pending ops keyed by SQE id.
type ContinuationTable<K, V, I> = HashMap<u64, Parked<K, V, I>>;

/// Retained-capacity bound for the CQE reap buffer: a pathological burst
/// (deep io-depth drain) may grow it arbitrarily, so oversized buffers are
/// shrunk back after the drain instead of pinning the high-water mark
/// forever.
const IO_SCRATCH_MAX: usize = 1024;

/// How long a waiting `complete_pending` parks on the completion ring per
/// pass. Bounded so the epoch keeps refreshing while we wait (flush and
/// eviction triggers may be what our own I/O is stuck behind).
const RING_WAIT: Duration = Duration::from_micros(200);

/// The id of a WAL durability notice's CQE in the session's WAL ring (the
/// other id there is [`Wal::SYNC_CQE`]).
const WAL_NOTICE: u64 = 0;

/// Re-check bound while parked on the WAL ring; a CQE wakes it sooner.
const WAL_PARK: Duration = Duration::from_millis(100);

/// A thread's handle onto the store. Not `Sync`: one session per thread,
/// exactly like the paper's thread model.
///
/// # Liveness
///
/// Every *live* session must keep operating (operations auto-refresh the
/// epoch every `refresh_interval` ops) or be dropped: an idle registered
/// session pins the current epoch, which stalls epoch-gated maintenance
/// (page flushes, evictions, resize phase changes) for the whole store —
/// exactly the thread contract of §2.5. Park a thread? Drop its session and
/// start a new one later.
pub struct Session<K: Pod, V: Pod, F: Functions<K, V>> {
    store: FasterKv<K, V, F>,
    guard: EpochGuard,
    // Session-local state uses Cell/RefCell: a session belongs to exactly one
    // thread (it is !Sync), and interior mutability keeps operation methods
    // at &self so index EntrySlot borrows never conflict.
    ops_since_refresh: Cell<u32>,
    next_id: Cell<u64>,
    outstanding: Cell<usize>,
    /// Completion ring the session's SQEs route their CQEs into. Shared
    /// with the device (each in-flight SQE holds an `Arc`), so completions
    /// racing a session drop land harmlessly in the ring and are freed
    /// with the last reference.
    ring: Arc<CompletionRing>,
    /// Locally queued SQEs, handed to the device in one `submit_all` batch
    /// at the end of each batch call and in each `complete_pending` pass
    /// (what scalar ops and continuations queued).
    sq: RefCell<Vec<Sqe>>,
    /// Continuation table: pending ops keyed by their SQE id.
    pending: RefCell<ContinuationTable<K, V, F::Input>>,
    /// Reused CQE reap buffer so completion processing allocates nothing
    /// per call once warm (capacity bounded by [`IO_SCRATCH_MAX`]).
    io_scratch: RefCell<Vec<Cqe>>,
    retries: RefCell<VecDeque<FuzzyRetry<K, F::Input>>>,
    /// This session's slot in the store-wide metrics registry (single
    /// writer: this thread). Retired into the hub's accumulator on drop.
    rec: Arc<SessionRecorder>,
    /// Shared per-op latency histograms (+ the runtime latency switch).
    hub: Arc<SessionHub>,
    /// Set by `read_internal` when the current first-pass read was served
    /// from the read cache; the caller classifies the read from it.
    read_rc_hit: Cell<bool>,
    /// Highest WAL LSN this session has appended (0 = none). Mutations are
    /// durable once the WAL's watermark reaches it (DESIGN.md §10). A
    /// latched failure sets it to `Lsn::MAX`, which no group ever covers.
    wal_lsn: Cell<Lsn>,
    /// Sticky WAL failure ([`Session::latch_wal_failure`]): once set, every
    /// later durability wait and gate on this session errors.
    wal_error: RefCell<Option<faster_storage::IoError>>,
    /// WAL CQEs: durability notices and, when this session leads a group,
    /// the group's sync. Kept apart from `ring` so a WAL wait never reaps
    /// I/O completions; the I/O waker hooks both.
    wal_ring: Arc<CompletionRing>,
    /// The LSN the session has promised to wait for
    /// ([`Session::notify_wal_durable`]); asked of the WAL once per
    /// `complete_pending`.
    wal_wanted: Cell<Lsn>,
    /// The highest LSN asked of the WAL into `wal_ring`. While it is not
    /// durable a CQE is bound for `wal_ring` — possibly a group's sync,
    /// which every later group waits on.
    wal_asked: Cell<Lsn>,
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> Session<K, V, F> {
    pub(crate) fn new(store: FasterKv<K, V, F>) -> Self {
        let guard = store.inner.epoch.acquire();
        let hub = store.inner.metrics.sessions.clone();
        let rec = hub.register();
        Self {
            store,
            guard,
            ops_since_refresh: Cell::new(0),
            next_id: Cell::new(1),
            outstanding: Cell::new(0),
            ring: Arc::new(CompletionRing::new()),
            sq: RefCell::new(Vec::new()),
            pending: RefCell::new(HashMap::new()),
            io_scratch: RefCell::new(Vec::new()),
            retries: RefCell::new(VecDeque::new()),
            rec,
            hub,
            read_rc_hit: Cell::new(false),
            wal_lsn: Cell::new(0),
            wal_error: RefCell::new(None),
            wal_ring: Arc::new(CompletionRing::new()),
            wal_wanted: Cell::new(0),
            wal_asked: Cell::new(0),
        }
    }

    /// The session's epoch guard (used by maintenance operations).
    pub fn guard(&self) -> &EpochGuard {
        &self.guard
    }

    /// Classifies a first-pass read's synchronous outcome into exactly one
    /// of `rc_hits` / `mem_reads` / `reads_pending` (the registry's read
    /// identity), and feeds the read-cache hit/miss counters when the store
    /// has a cache (a read that goes to disk is by definition a cache miss).
    fn classify_read(&self, r: &OpResult<F::Output>) {
        let rc_hit = self.read_rc_hit.get();
        match r {
            Err(OpError::Pending(_)) => self.rec.reads_pending.inc(),
            _ if rc_hit => self.rec.rc_hits.inc(),
            _ => self.rec.mem_reads.inc(),
        }
        if self.store.inner.rc.is_some() {
            let rcm = &self.store.inner.metrics.read_cache;
            if rc_hit {
                rcm.hits.inc();
            } else {
                rcm.misses.inc();
            }
        }
    }

    /// Starts a per-op latency timer (a no-op unless the crate is built
    /// with `metrics-timing`).
    #[inline]
    fn op_timer(&self) -> Timer {
        Timer::start()
    }

    /// Counts one successful mutation: `writes` plus exactly one of the
    /// `in_place` / `rcu` / `appends` buckets (the write identity).
    #[inline]
    fn count_write(&self, bucket: &faster_metrics::Cell64) {
        self.rec.writes.inc();
        bucket.inc();
    }

    /// Reports `records` log records made dead by this op (RCU-superseded,
    /// tombstoned, or abandoned after a lost CAS) to the hlog's dead-space
    /// counter. An RCU supersedes at most one older version per key, so this
    /// is an upper bound when the chain never actually held the key — the
    /// safe direction for a compaction trigger.
    #[inline]
    fn note_dead(&self, records: u64) {
        self.store
            .inner
            .log
            .note_dead_bytes(records * RecordRef::<K, V>::size() as u64);
    }

    /// Number of operations currently pending (I/O or fuzzy retries).
    pub fn pending_count(&self) -> usize {
        self.outstanding.get()
    }

    /// Explicit epoch refresh (§2.4); also runs automatically every
    /// `refresh_interval` operations.
    pub fn refresh(&self) {
        self.guard.refresh();
        self.ops_since_refresh.set(0);
    }

    #[inline]
    fn maybe_refresh(&self) {
        let n = self.ops_since_refresh.get() + 1;
        self.ops_since_refresh.set(n);
        if n >= self.store.inner.cfg.refresh_interval {
            self.refresh();
        }
    }

    /// Batch-amortized epoch bookkeeping: one counter update (and at most
    /// one refresh) for `n` operations, instead of `n` counter round-trips.
    #[inline]
    fn batch_tick(&self, n: usize) {
        let total = self.ops_since_refresh.get().saturating_add(n as u32);
        if total >= self.store.inner.cfg.refresh_interval {
            self.refresh();
        } else {
            self.ops_since_refresh.set(total);
        }
    }

    #[inline]
    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Decrements the outstanding-op count. Issue and completion are
    /// strictly paired, so the count can never go negative — asserted in
    /// debug builds because an unbalanced decrement would silently turn
    /// `complete_pending(wait)` into a premature return.
    #[inline]
    fn dec_outstanding(&self) {
        let n = self.outstanding.get();
        debug_assert!(n > 0, "outstanding I/O accounting went negative");
        self.outstanding.set(n.saturating_sub(1));
    }

    /// Issues the record read for a pending op (first hop, next chain hop,
    /// or a bounded transient-failure retry of the same address): parks `op`
    /// in the continuation table and queues the ring-routed SQE for its
    /// walk's `addr`, which goes out with the next `submit_queued` batch. A
    /// GC-truncated address short-circuits: the Truncated CQE is already in
    /// the ring under this id and no SQE is queued.
    fn issue_io(&self, op: PendingOp<K, V, F::Input>) {
        self.rec.io_issued.inc();
        self.outstanding.set(self.outstanding.get() + 1);
        let id = op.id;
        let addr = op.walk.addr;
        let made =
            self.store.inner.log.make_read_sqe(id, addr, RecordRef::<K, V>::size(), &self.ring);
        let (sqe, span) = match made {
            Some((sqe, span)) => (Some(sqe), Some(span)),
            None => (None, None),
        };
        let prev = self
            .pending
            .borrow_mut()
            .insert(id, Parked { op, issued: Instant::now(), span });
        debug_assert!(prev.is_none(), "duplicate pending id {id}");
        if let Some(sqe) = sqe {
            self.sq.borrow_mut().push(sqe);
        }
    }

    // ================================================================ READ

    /// Reads the value for `key` (Algorithm 2). For mergeable (CRDT) stores
    /// the read reconciles delta records along the chain (§6.3).
    ///
    /// Returns `Ok(Outcome::Value(out))` on a hit, `Err(OpError::NotFound)`
    /// on a miss, or `Err(OpError::Pending(id))` when the read went to disk
    /// (resolved by [`Session::complete_pending`]).
    pub fn read(&self, key: &K, input: &F::Input) -> OpResult<F::Output> {
        let t = self.op_timer();
        self.rec.reads.inc();
        self.read_rc_hit.set(false);
        let hash = hash_key(key);
        let r = self.read_internal(key, hash, input);
        self.classify_read(&r);
        t.observe(&self.hub.read_latency);
        self.maybe_refresh();
        r
    }

    /// A read from the index entry.
    fn read_internal(&self, key: &K, hash: KeyHash, input: &F::Input) -> OpResult<F::Output> {
        match self.entry_address(hash) {
            Some(head) => self.read_walk(key, hash, input, Walk::new(head), None, None),
            None => Err(OpError::NotFound),
        }
    }

    /// The chain head the index entry for `hash` points at, if it has one.
    #[inline]
    pub(crate) fn entry_address(&self, hash: KeyHash) -> Option<Address> {
        Some(self.store.inner.index.find_tag(hash, Some(&self.guard))?.observed().address())
    }

    /// The read loop, entered at a chain head or resumed by a pending read's
    /// continuation with `image`, the record its I/O returned for
    /// `walk.addr`; `id` is the pending id a resumed read keeps.
    fn read_walk(
        &self,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        mut walk: Walk<V>,
        image: Option<RecordView<K, V>>,
        id: Option<u64>,
    ) -> OpResult<F::Output> {
        let inner = &self.store.inner;
        let f = &inner.functions;
        // Appendix D: the entry may point into the read-cache log. A read
        // answers from the cached copy; version walks step through it.
        while is_rc(walk.addr) {
            let Some(rc_log) = inner.rc.as_ref() else { return Err(OpError::NotFound) };
            match rc_log.get(rc_untag(walk.addr)) {
                Some(p) => {
                    let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                    let h = rec.header();
                    if rec.key() == *key && !h.is_tombstone() && !h.is_delta() {
                        let out = f.single_reader(key, input, &rec.read_value());
                        // Second chance (§6.4 applied to the cache): a
                        // hit outside the cache's mutable region copies
                        // the record to the cache tail.
                        self.rc_second_chance(key, hash, &rec, walk.addr);
                        self.read_rc_hit.set(true);
                        return Ok(Outcome::Value(out));
                    }
                    // Cached record is for a different key (or deleted):
                    // continue into the primary chain it points at.
                    walk = Walk::new(h.prev());
                }
                None => {
                    // Evicted under us; the eviction hook is restoring
                    // the entry. Refresh (drives the trigger) + re-probe.
                    self.refresh();
                    match self.entry_address(hash) {
                        Some(head) => walk = Walk::new(head),
                        None => return Err(OpError::NotFound),
                    }
                }
            }
        }
        let start = walk.addr;
        match self.resolve(key, hash, &mut walk, image.as_ref()) {
            Seek::Found(at, rec, Step::Base) => {
                // Base record (Alg 2 lines 12-15): above the safe read-only
                // offset it may be updated in place while we read it.
                if walk.acc.is_none() && at >= inner.log.safe_ipu_boundary() {
                    return Ok(Outcome::Value(f.concurrent_reader(key, input, rec.value_cell())));
                }
                let value = rec.read_value();
                if image.is_some() && at == start && walk.acc.is_none() {
                    // Appendix D: a base served from storage is cached
                    // while it is still the chain head.
                    self.try_cache_insert(key, hash, &value, at);
                }
                self.read_output(key, input, walk.value(f, Some(value)))
            }
            // A tombstone, or every chain is exhausted.
            Seek::Found(..) | Seek::Absent => self.read_output(key, input, walk.value(f, None)),
            // Below head: go asynchronous (Alg 2 line 6).
            Seek::OnDisk => {
                Err(OpError::Pending(self.go_pending(key, hash, input, PendingKind::Read, walk, id)))
            }
        }
    }

    /// A read's result once its walk has resolved the key's value.
    fn read_output(&self, key: &K, input: &F::Input, value: Option<V>) -> OpResult<F::Output> {
        match value {
            Some(v) => Ok(Outcome::Value(self.store.inner.functions.single_reader(key, input, &v))),
            None => Err(OpError::NotFound),
        }
    }

    /// The step loop over the resident part of a chain, shared by every
    /// operation: visits `image` first when resuming (the record a storage
    /// read returned for `walk.addr`), parks the second chain of each merge
    /// record it passes, and stops at the key's first record at or above
    /// `floor` (and the begin address), once every chain is exhausted, or at
    /// a record below the head. A found record lives in a log frame or in
    /// `image`; a resident one stays valid until this session refreshes (§4),
    /// even if `head` moves past it.
    #[inline]
    fn seek(
        &self,
        key: &K,
        hash: KeyHash,
        walk: &mut Walk<V>,
        floor: Address,
        mut image: Option<&RecordView<K, V>>,
    ) -> Seek<K, V> {
        let log = &self.store.inner.log;
        loop {
            let rec = match image.take() {
                Some(view) => *view.get(),
                None => {
                    if !self.advance(hash, walk, floor) {
                        return Seek::Absent;
                    }
                    match log.get(walk.addr) {
                        // Safety: epoch-protected resident record.
                        Some(p) => unsafe { RecordRef::from_raw(p) },
                        None => return Seek::OnDisk,
                    }
                }
            };
            let at = walk.addr;
            match walk.step(&rec, key) {
                Step::Skip => {}
                step => return Seek::Found(at, rec, step),
            }
        }
    }

    /// Seeks the key's value for reads and pending-RMW continuations,
    /// folding the deltas above its base into the walk (§6.3): stops at the
    /// base record, a tombstone, the chain's end, or a record below the head.
    fn resolve(
        &self,
        key: &K,
        hash: KeyHash,
        walk: &mut Walk<V>,
        mut image: Option<&RecordView<K, V>>,
    ) -> Seek<K, V> {
        loop {
            match self.seek(key, hash, walk, Address::INVALID, image.take()) {
                Seek::Found(_, rec, Step::Delta) => {
                    walk.fold(&self.store.inner.functions, rec.read_value())
                }
                stop => return stop,
            }
        }
    }

    /// Settles `walk` on a record to visit: while its address is a chain
    /// end or below `floor` (a liveness bound), resume the newest parked
    /// merge fallback. An address at or above `floor` but below the begin
    /// address is a chain that truncation cut (Appendix C), which
    /// [`Session::reprobe`] judges before the walk gives it up. `false` once
    /// every chain is exhausted.
    #[inline]
    fn advance(&self, hash: KeyHash, walk: &mut Walk<V>, floor: Address) -> bool {
        let begin = self.store.inner.log.begin_address();
        while !walk.addr.is_valid() || walk.addr < floor.max(begin) {
            if walk.addr.is_valid() && walk.addr >= floor && self.reprobe(hash, walk) {
                continue;
            }
            match walk.fallbacks.pop() {
                Some(a) => walk.addr = a,
                None => return false,
            }
        }
        true
    }

    /// A walk cut by `begin` (Appendix C's "invalid-address truncation on
    /// traversal"): compaction may have rolled the key's records above
    /// `begin` after the walk read its head, so the cut proves nothing yet.
    /// Re-read the index entry: if it has moved off the head the walk
    /// started from, restart the walk there with nothing parked or folded
    /// (`true`). Otherwise the cut chain ends (`false`): nothing of the key
    /// lives on it above `begin`. A read-cache entry restarts at the
    /// primary chain its record points into; one evicted under us ends the
    /// chain, as the cut itself would.
    #[cold]
    fn reprobe(&self, hash: KeyHash, walk: &mut Walk<V>) -> bool {
        let Some(entry) = self.entry_address(hash) else { return false };
        let head = self.chain_prev_for_new_record(entry);
        if !head.is_valid() || head == walk.head {
            return false;
        }
        *walk = Walk::new(head);
        true
    }

    /// The step loop of the version walks (history, compaction liveness):
    /// steps through a read-cache copy to the primary record it caches
    /// (re-probing if the copy was evicted), settles the walk at or above
    /// `floor`, and views the record there — resident, or read from storage
    /// with a blocking read (these are maintenance and analytics paths). A
    /// record that cannot be read ends its chain, unless truncation cut it
    /// (see [`Walk::unreadable`]). `None` once every chain is exhausted.
    pub(crate) fn resolve_blocking(
        &self,
        hash: KeyHash,
        walk: &mut Walk<V>,
        floor: Address,
    ) -> Option<RecordView<K, V>> {
        let inner = &self.store.inner;
        loop {
            if is_rc(walk.addr) {
                match inner.rc.as_ref().and_then(|rc| rc.get(rc_untag(walk.addr))) {
                    Some(p) => {
                        // SAFETY: `get` returned a resident read-cache
                        // record, epoch-protected until this session refreshes.
                        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                        *walk = Walk::new(rec.header().prev());
                    }
                    None => {
                        // Evicted mid-walk: re-probe, as reads do.
                        self.refresh();
                        *walk = Walk::new(self.entry_address(hash)?);
                    }
                }
                continue;
            }
            if !self.advance(hash, walk, floor) {
                return None;
            }
            if let Some(p) = inner.log.get(walk.addr) {
                // Safety: epoch-protected resident record.
                return Some(unsafe { RecordView::resident(p) });
            }
            let read = inner.log.read_blocking(walk.addr, RecordRef::<K, V>::size());
            match read.ok().and_then(|bytes| RecordView::parse(&bytes)) {
                Some(view) => return Some(view),
                None => walk.unreadable(inner.log.begin_address()),
            }
        }
    }

    /// Parks a pending op whose walk resumes from storage at `walk.addr`; a
    /// re-entered op passes the `id` it already returned.
    fn go_pending(
        &self,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        kind: PendingKind,
        walk: Walk<V>,
        id: Option<u64>,
    ) -> u64 {
        let id = id.unwrap_or_else(|| self.fresh_id());
        self.issue_io(PendingOp { id, key: *key, hash, input: input.clone(), kind, walk, attempts: 0 });
        id
    }

    // ================================================================= WAL

    /// Logs a logical redo record for the mutation this session just applied
    /// to `rec` (DESIGN.md §10). The post-image is read from `rec` inside the
    /// append, after the LSN is assigned, so the highest-LSN in-place
    /// post-image of a key was read after every lower-LSN writer's update was
    /// visible. No-op for stores without a WAL — including a recovering
    /// store mid-replay, which only attaches its WAL after the suffix has
    /// been reapplied. A refused append is latched: the mutation itself
    /// stands (it is applied, just in no log), and since the session's LSN is
    /// then one no group covers, every later gate and wait reports the loss.
    fn wal_log(&self, kind: u8, rec: RecordRef<K, V>) {
        use crate::walrec::{encode_into, encoded_len, KIND_DELETE};
        let Some(wal) = self.store.inner.wal.get() else { return };
        let with_value = kind != KIND_DELETE;
        let appended = wal.append_with(encoded_len::<K, V>(with_value), |out| {
            let post = with_value.then(|| rec.read_value());
            encode_into(out, kind, &rec.key(), post.as_ref());
        });
        match appended {
            // `max` keeps a poisoned LSN poisoned.
            Ok(lsn) => self.wal_lsn.set(self.wal_lsn.get().max(lsn)),
            Err(e) => {
                self.latch_wal_failure(e);
            }
        }
    }

    /// Blocks until every mutation this session has issued is group-commit
    /// durable in the WAL. `Err` means some mutation was **never acked** —
    /// either its append was refused or its group's flush barrier failed;
    /// the error is latched, so later waits and gates agree with it.
    /// Immediately `Ok` on stores without a WAL. A group this session leads
    /// is reaped off its own ring first; the rest is `Wal::wait_durable`,
    /// which lingers for the batch window and may lead the next group.
    pub fn wait_wal_durable(&self) -> Result<(), faster_storage::IoError> {
        let Some(wal) = self.store.inner.wal.get() else { return Ok(()) };
        self.drain_wal(wal);
        if let Some(e) = self.wal_error.borrow().clone() {
            return Err(e);
        }
        wal.wait_durable(self.wal_lsn.get()).map_err(|e| self.latch_wal_failure(e))
    }

    /// Non-blocking durability gate for one LSN (typically one
    /// [`Session::notify_wal_durable`] returned): `Some(Ok(()))` once the
    /// WAL's durable watermark covers `lsn`, `Some(Err(_))` once this session
    /// has latched a WAL failure, `None` while the covering group is in
    /// flight. Reads one atomic and the session's latch, never the WAL's
    /// lock; a failed group reaches the latch through its notice's CQE.
    pub fn poll_wal_durable(&self, lsn: Lsn) -> Option<Result<(), faster_storage::IoError>> {
        match self.store.inner.wal.get() {
            Some(wal) if wal.durable_lsn() < lsn => self.wal_error.borrow().clone().map(Err),
            _ => Some(Ok(())),
        }
    }

    /// Promises to wait for everything this session has appended and
    /// returns the LSN that covers it (DESIGN.md §10): gate replies on that
    /// LSN with [`Session::poll_wal_durable`]. The next `complete_pending`
    /// asks the WAL for it, once per pass however many segments promised:
    /// on an idle log this session leads the staged group, otherwise it
    /// waits on a notice. Either way one CQE lands in the session's WAL
    /// ring, which [`Session::set_io_waker`] hooks too, so a pipelined caller
    /// parks once for disk reads *and* durability. The caller must keep
    /// calling `complete_pending` until the gate opens: reaping a group's
    /// sync is what publishes the watermark, for this session and every
    /// group behind it. `None` when there is nothing to wait for (no WAL,
    /// or no append yet). After a latched failure nothing is asked and the
    /// LSN is one no group covers, so its gate fails at once.
    pub fn notify_wal_durable(&self) -> Option<Lsn> {
        self.store.inner.wal.get()?;
        let lsn = self.wal_lsn.get();
        if lsn == 0 {
            return None;
        }
        self.wal_wanted.set(lsn);
        Some(lsn)
    }

    /// Installs `waker` as the push hook of the session's rings: every CQE
    /// pushed into them (I/O completions, WAL durability notices and group
    /// syncs) invokes it. A front-end points this at a self-pipe/eventfd so
    /// one `poll` set reports ring CQEs *and* socket readiness.
    pub fn set_io_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        let waker = Arc::new(waker);
        let wal_waker = Arc::clone(&waker);
        self.ring.set_waker(move || waker());
        self.wal_ring.set_waker(move || wal_waker());
    }

    /// Removes the hook installed by [`Session::set_io_waker`].
    pub fn clear_io_waker(&self) {
        self.ring.clear_waker();
        self.wal_ring.clear_waker();
    }

    // ============================================================== UPSERT

    /// The read-only gate every mutation passes (DESIGN.md §12): a store
    /// degraded to read-only refuses new mutations with a typed reason.
    #[inline]
    fn writable(&self) -> Result<(), OpError> {
        match self.store.inner.health.read_only_error() {
            Some(StoreError::ReadOnly(r)) => Err(OpError::ReadOnly(r)),
            None => Ok(()),
        }
    }

    /// Blind update (Algorithm 3): in-place if the record is in the mutable
    /// region, otherwise a new record at the tail. Never goes pending
    /// (Table 2: blind updates need no old value). Fallible by default:
    /// refuses with [`OpError::ReadOnly`] once the store has degraded —
    /// a mutation the store can no longer make durable should not be
    /// silently accepted.
    pub fn upsert(&self, key: &K, value: &V) -> OpResult<F::Output> {
        self.writable()?;
        let t = self.op_timer();
        self.rec.upserts.inc();
        let hash = hash_key(key);
        self.upsert_internal(key, hash, value);
        t.observe(&self.hub.upsert_latency);
        self.maybe_refresh();
        Ok(Outcome::Done)
    }

    /// Algorithm 3 body, shared by the scalar and batched paths (the wrapper
    /// owns stats and epoch bookkeeping).
    fn upsert_internal(&self, key: &K, hash: KeyHash, value: &V) {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let at = inner.index.find_or_create_tag(hash, Some(&self.guard));
            let mut kind = WriteKind::Append;
            if let CreateOutcome::Found(slot) = &at {
                let head = slot.observed().address();
                // Cache records are never updated in place (the fresh primary
                // record splices the cache copy out). Otherwise seek only the
                // mutable suffix: anything deeper gets shadowed by the new
                // tail record anyway (Alg 3).
                if !is_rc(head) {
                    let floor = inner.log.ipu_boundary();
                    if let Seek::Found(_, rec, Step::Base) =
                        self.seek(key, hash, &mut Walk::new(head), floor, None)
                    {
                        f.concurrent_writer(key, value, rec.value_cell());
                        self.count_write(&self.rec.in_place);
                        self.wal_log(crate::walrec::KIND_PUT, rec);
                        return;
                    }
                }
                kind = WriteKind::Rcu;
            }
            if self.publish(at, key, kind, |v| f.single_writer(key, value, v)).is_some() {
                return;
            }
        }
    }

    // ================================================================= RMW

    /// Read-modify-write (Algorithm 4 + Table 2). An applied RMW answers
    /// `Ok(Outcome::Value(out))`, `out` being what the updater that applied
    /// it returned; a CRDT delta answers `Ok(Outcome::Done)`. May return
    /// [`OpError::Pending`] for disk-resident records or fuzzy-region hits
    /// (its [`Completion`] carries the output), and refuses with
    /// [`OpError::ReadOnly`] on a degraded store.
    pub fn rmw(&self, key: &K, input: &F::Input) -> OpResult<F::Output> {
        self.writable()?;
        let t = self.op_timer();
        self.rec.rmws.inc();
        let hash = hash_key(key);
        let r = self.rmw_internal(key, hash, input, None);
        t.observe(&self.hub.rmw_latency);
        self.maybe_refresh();
        r
    }

    fn rmw_internal(
        &self,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        reuse_id: Option<u64>,
    ) -> OpResult<F::Output> {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let at = inner.index.find_or_create_tag(hash, Some(&self.guard));
            let CreateOutcome::Found(slot) = &at else {
                match self.rcu_create(at, key, input, None) {
                    Some(out) => return Ok(out),
                    None => continue,
                }
            };
            let entry = slot.observed().address();
            if is_rc(entry) {
                // Cache hit for RMW: the old value is right here —
                // no I/O needed. Write the updated primary record.
                match inner.rc.as_ref().and_then(|rc| rc.get(rc_untag(entry))) {
                    Some(p) => {
                        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                        if rec.key() == *key {
                            match self.rcu_create(at, key, input, Some(rec.read_value())) {
                                Some(out) => return Ok(out),
                                None => continue,
                            }
                        }
                        // Cached record is another key's: fall
                        // through and trace from its primary prev.
                    }
                    None => {
                        // Evicted: let the hook restore the entry.
                        self.refresh();
                        continue;
                    }
                }
            }
            let mut walk = Walk::new(self.chain_prev_for_new_record(entry));
            let published = match self.seek(key, hash, &mut walk, Address::INVALID, None) {
                // Deleted or absent: (re-)create from the initial value.
                Seek::Found(_, _, Step::Tombstone) | Seek::Absent => {
                    self.rcu_create(at, key, input, None)
                }
                Seek::Found(laddr, rec, step) => match inner.log.classify(laddr) {
                    Region::Mutable => {
                        let out = f.in_place_updater(key, input, rec.value_cell());
                        self.count_write(&self.rec.in_place);
                        self.wal_log(crate::walrec::KIND_PUT, rec);
                        // A delta's output is its partial, not the key's
                        // value (§6.3).
                        return Ok(match step {
                            Step::Delta => Outcome::Done,
                            _ => Outcome::Value(out),
                        });
                    }
                    // CRDT: append a delta (§6.3).
                    Region::Fuzzy if f.is_mergeable() => self.append_delta(at, key, input),
                    Region::Fuzzy => {
                        // Defer: pending list, retried later.
                        self.rec.fuzzy_pending.inc();
                        return Err(OpError::Pending(
                            self.queue_fuzzy_retry(key, hash, input, reuse_id),
                        ));
                    }
                    // `rec` was resolved under this un-refreshed guard, so
                    // its frame cannot be recycled even if `head` has since
                    // moved past `laddr`: an `OnDisk` address here is just
                    // an immutable resident record.
                    Region::ReadOnly | Region::OnDisk if rec.header().is_delta() => {
                        // RCU of a delta would double-count:
                        // append a fresh delta instead.
                        debug_assert!(f.is_mergeable());
                        self.append_delta(at, key, input)
                    }
                    // Copy to tail with the updated value.
                    Region::ReadOnly | Region::OnDisk => {
                        self.rcu_create(at, key, input, Some(rec.read_value()))
                    }
                },
                // The chain continues on disk. CRDT: no need to read the
                // old value.
                Seek::OnDisk if f.is_mergeable() => self.append_delta(at, key, input),
                Seek::OnDisk => {
                    // The walk keeps the merge fallbacks it parked.
                    let kind = PendingKind::Rmw { entry_addr: entry };
                    return Err(OpError::Pending(
                        self.go_pending(key, hash, input, kind, walk, reuse_id),
                    ));
                }
            };
            if let Some(out) = published {
                return Ok(out);
            }
        }
    }

    /// Publishes the RMW result record (Alg 4 CREATE_RECORD): a copy-update
    /// of `old`, or the initial value when the key has no live version.
    /// Returns the updater's output, or `None` if the CAS lost (caller
    /// retries).
    fn rcu_create(
        &self,
        at: CreateOutcome<'_>,
        key: &K,
        input: &F::Input,
        old: Option<V>,
    ) -> Option<Outcome<F::Output>> {
        let f = &self.store.inner.functions;
        let out = match old {
            Some(old) => {
                self.publish(at, key, WriteKind::Rcu, |v| f.copy_updater(key, input, &old, v))
            }
            None => self.publish(at, key, WriteKind::Append, |v| f.initial_updater(key, input, v)),
        };
        out.map(Outcome::Value)
    }

    /// Publishes a CRDT delta record (partial value from the identity,
    /// §6.3). Its output is the partial, not the key's value, so it reports
    /// `Done`; `None` if the CAS lost.
    fn append_delta(
        &self,
        at: CreateOutcome<'_>,
        key: &K,
        input: &F::Input,
    ) -> Option<Outcome<F::Output>> {
        let f = &self.store.inner.functions;
        self.publish(at, key, WriteKind::Delta, |v| f.copy_updater(key, input, &f.identity(), v))
            .map(|_| Outcome::Done)
    }

    // ============================================================== DELETE

    /// Deletes `key` by appending a tombstone record (§5.3). Log GC reclaims
    /// the space (Appendix C). Deleting an absent key is still `Done`;
    /// refuses with [`OpError::ReadOnly`] on a degraded store.
    pub fn delete(&self, key: &K) -> OpResult<F::Output> {
        self.writable()?;
        let t = self.op_timer();
        self.rec.deletes.inc();
        let hash = hash_key(key);
        self.delete_internal(key, hash);
        t.observe(&self.hub.delete_latency);
        self.maybe_refresh();
        Ok(Outcome::Done)
    }

    /// Tombstone append, shared by the scalar and batched paths.
    fn delete_internal(&self, key: &K, hash: KeyHash) {
        let inner = &self.store.inner;
        // Nothing to delete once the tag has no entry.
        while let Some(slot) = inner.index.find_tag(hash, Some(&self.guard)) {
            let head = slot.observed().address();
            if !is_rc(head) && (!head.is_valid() || head < inner.log.begin_address()) {
                // GC'd chain: drop the dangling entry (Appendix C).
                let _ = slot.cas_delete();
                break;
            }
            // Tombstones carry no value; zeroed frame bytes suffice.
            let found = CreateOutcome::Found(slot);
            if self.publish(found, key, WriteKind::Tombstone, |_| {}).is_some() {
                break;
            }
        }
    }

    // =============================================================== BATCH
    //
    // Batched issue (DESIGN.md §3 "Batched execution & prefetching"): the
    // scalar hot path pays a serial dependent-load chain per operation —
    // hash → bucket probe → record dereference — so each op stalls on two
    // DRAM round-trips. `execute_batch` runs that chain as a MICA-style
    // software pipeline over the whole batch: hash every key and prefetch
    // every target bucket, then probe every bucket and prefetch every chain
    // head, then execute. The loads of one stage are independent across
    // ops, so their cache misses overlap up to the memory-level parallelism
    // of the core instead of serializing.
    //
    // Semantics are identical to issuing the ops sequentially on this
    // session: each op executes (and linearizes) one at a time in submission
    // order in the final stage. Mutations re-probe the index as the scalar
    // path does; a read walks from the head its stage-2 probe saw until the
    // batch's first mutation executes, and re-probes after it, so a read
    // sees the writes ahead of it in the batch. Epoch refresh is amortized
    // to once per batch, which is also the natural cadence for draining I/O
    // completions ([`Session::complete_pending`] once per batch, not once
    // per op). A batch that queued cold reads submits them in one
    // `submit_all` before it returns, so the device works while the caller
    // moves on.

    /// Executes a heterogeneous batch, returning one [`OpResult`] per op in
    /// submission order. Equivalent to issuing each op individually: reads
    /// yield `Value`/`NotFound`/`Pending`, RMWs yield their output as `Value`
    /// (`Done` for a CRDT delta, `Pending` when asynchronous), upserts and
    /// deletes yield `Done`. On a read-only store the reads still execute;
    /// every mutation slot is `Err(ReadOnly)` and counts as no op, as the
    /// scalar calls refuse — exactly what a protocol front-end needs to keep
    /// serving GETs while SETs bounce (DESIGN.md §12/§13).
    pub fn execute_batch(&self, ops: &[BatchOp<K, V, F::Input>]) -> Vec<OpResult<F::Output>> {
        let inner = &self.store.inner;
        self.rec.batches.inc();
        // One health check per batch, applied positionally to mutations.
        let refused = self.writable().err();
        // Stage 1: count each op that will execute, hash its key and
        // prefetch its bucket.
        let mut probes: Vec<(KeyHash, Address)> = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                BatchOp::Read { .. } => self.rec.reads.inc(),
                _ if refused.is_some() => {}
                BatchOp::Upsert { .. } => self.rec.upserts.inc(),
                BatchOp::Rmw { .. } => self.rec.rmws.inc(),
                BatchOp::Delete { .. } => self.rec.deletes.inc(),
            }
            let hash = hash_key(op.key());
            inner.index.prefetch_bucket(hash);
            probes.push((hash, Address::INVALID));
        }
        // Stage 2: probe the (now arriving) buckets; prefetch each chain
        // head, in the log or the read cache, so the record lines are in
        // flight before stage 3.
        for (hash, head) in &mut probes {
            *head = self.entry_address(*hash).unwrap_or(Address::INVALID);
            if is_rc(*head) {
                if let Some(rc_log) = inner.rc.as_ref() {
                    rc_log.prefetch(rc_untag(*head));
                }
            } else if head.is_valid() {
                inner.log.prefetch(*head);
            }
        }
        // Stage 3: execute in submission order.
        let mut out = Vec::with_capacity(ops.len());
        // Reads walk from their stage-2 head until a mutation executes.
        let mut carry = true;
        for (op, &(hash, head)) in ops.iter().zip(&probes) {
            let read = matches!(op, BatchOp::Read { .. });
            if let (Some(e), false) = (&refused, read) {
                out.push(Err(e.clone()));
                continue;
            }
            carry &= read;
            out.push(match op {
                BatchOp::Read { key, input } => {
                    self.read_rc_hit.set(false);
                    let r = if carry {
                        self.read_walk(key, hash, input, Walk::new(head), None, None)
                    } else {
                        self.read_internal(key, hash, input)
                    };
                    self.classify_read(&r);
                    r
                }
                BatchOp::Upsert { key, value } => {
                    self.upsert_internal(key, hash, value);
                    Ok(Outcome::Done)
                }
                BatchOp::Rmw { key, input } => self.rmw_internal(key, hash, input, None),
                BatchOp::Delete { key } => {
                    self.delete_internal(key, hash);
                    Ok(Outcome::Done)
                }
            });
        }
        self.batch_tick(ops.len());
        self.submit_queued();
        out
    }

    /// Returns up to `limit` historical versions of `key`, newest first, by
    /// walking the record chain across memory and storage (Appendix F:
    /// "query historical values of a given key (since our record versions
    /// are linked in the log)"). Each record contributes its own stored
    /// value: a CRDT delta appears as its raw partial, not folded into a
    /// running total. A tombstone ends the history. Storage hops block —
    /// this is an analytics path, not an operation path.
    pub fn read_history(&self, key: &K, limit: usize) -> Vec<V> {
        let hash = hash_key(key);
        let mut out = Vec::new();
        let Some(head) = self.entry_address(hash) else { return out };
        let mut walk = Walk::new(head);
        let mut from = walk.head;
        while out.len() < limit {
            let Some(view) = self.resolve_blocking(hash, &mut walk, Address::INVALID) else { break };
            if walk.head != from {
                // A re-probe restarted the walk at a newer head, whose
                // chain repeats the versions collected so far.
                from = walk.head;
                out.clear();
            }
            match walk.step(view.get(), key) {
                Step::Skip => {}
                Step::Tombstone => break,
                Step::Delta | Step::Base => out.push(view.get().read_value()),
            }
        }
        out
    }

    // ============================================================ helpers

    /// The `prev` pointer a new tail record should carry when the current
    /// chain head is `head`: tagged read-cache heads are spliced out
    /// (replaced by the primary address the cache record points at), since
    /// cache addresses are volatile and must never persist in record
    /// headers (Appendix D).
    fn chain_prev_for_new_record(&self, head: Address) -> Address {
        if !is_rc(head) {
            return head;
        }
        let inner = &self.store.inner;
        if let Some(rc_log) = inner.rc.as_ref() {
            if let Some(p) = rc_log.get(rc_untag(head)) {
                let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                return rec.header().prev();
            }
        }
        // Evicted: the hook is restoring the entry; our CAS (expected = the
        // stale tagged entry) will fail and the operation retries.
        Address::INVALID
    }

    /// Copies a cache record hit outside the cache's mutable region to the
    /// cache tail (second chance), re-pointing the index entry.
    fn rc_second_chance(&self, key: &K, hash: KeyHash, rec: &RecordRef<K, V>, tagged: Address) {
        let inner = &self.store.inner;
        let Some(rc_log) = inner.rc.as_ref() else { return };
        if rc_log.classify(rc_untag(tagged)) == Region::Mutable {
            return; // young enough already
        }
        let Some(mut slot) = inner.index.find_tag(hash, Some(&self.guard)) else { return };
        if slot.observed().address() != tagged {
            return; // chain moved on
        }
        let addr = rc_log.allocate(RecordRef::<K, V>::size() as u32, &self.guard);
        let p = rc_log.get(addr).expect("fresh cache allocation resident");
        let new_rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        new_rec.init_header(RecordHeader::new(rec.header().prev()));
        new_rec.init_key(key);
        unsafe { *new_rec.value_mut() = rec.read_value() };
        if slot.cas_address(rc_tag(addr)).is_ok() {
            inner.metrics.read_cache.promotions.inc();
        }
    }

    /// After a disk read served a key whose record is the chain head,
    /// inserts a copy into the read cache (Appendix D read path).
    fn try_cache_insert(&self, key: &K, hash: KeyHash, value: &V, primary: Address) {
        let inner = &self.store.inner;
        let Some(rc_log) = inner.rc.as_ref() else { return };
        let Some(mut slot) = inner.index.find_tag(hash, Some(&self.guard)) else { return };
        if slot.observed().address() != primary {
            return; // only cache chain heads: anything else would hide
                    // newer records of other keys
        }
        let addr = rc_log.allocate(RecordRef::<K, V>::size() as u32, &self.guard);
        let p = rc_log.get(addr).expect("fresh cache allocation resident");
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.init_header(RecordHeader::new(primary));
        rec.init_key(key);
        unsafe { *rec.value_mut() = *value };
        if slot.cas_address(rc_tag(addr)).is_ok() {
            inner.metrics.read_cache.inserts.inc();
        }
    }

    /// The one place a record becomes reachable (Alg 3/4 CREATE_RECORD,
    /// §5.3): allocate at the tail with `prev` = the chain head the probe
    /// observed (spliced past a read-cache tag), let `fill` write the value,
    /// then CAS the probed slot from that observation — or finalize a fresh
    /// tentative entry, which cannot lose. A lost CAS marks the orphan
    /// record invalid and returns `None`: the caller re-probes and retries
    /// (Alg 3 line 19). A won publish counts the write, reports the records
    /// it made dead, and logs the post-image, all per `kind`, and returns
    /// what `fill` returned.
    #[inline]
    pub(crate) fn publish<R>(
        &self,
        at: CreateOutcome<'_>,
        key: &K,
        kind: WriteKind,
        fill: impl FnOnce(&mut V) -> R,
    ) -> Option<R> {
        use crate::walrec::{KIND_DELETE, KIND_PUT};
        let bits = match kind {
            WriteKind::Delta | WriteKind::Roll { delta: true } => DELTA_BIT,
            WriteKind::Tombstone => TOMBSTONE_BIT,
            WriteKind::Append | WriteKind::Rcu | WriteKind::Roll { delta: false } => 0,
        };
        let prev = match &at {
            CreateOutcome::Found(slot) => self.chain_prev_for_new_record(slot.observed().address()),
            CreateOutcome::Created(_) => Address::INVALID,
        };
        let (addr, rec) = self.write_record(prev, key, bits);
        // Safety: the record is exclusively ours until published below.
        let out = fill(unsafe { rec.value_mut() });
        match at {
            CreateOutcome::Found(mut slot) => {
                if slot.cas_address(addr).is_err() {
                    rec.set_bits(INVALID_BIT);
                    self.note_dead(1);
                    return None;
                }
            }
            CreateOutcome::Created(created) => drop(created.finalize(addr)),
        }
        let (bucket, dead, wal_kind) = match kind {
            WriteKind::Append => (&self.rec.appends, 0, KIND_PUT),
            WriteKind::Rcu => (&self.rec.rcu, 1, KIND_PUT),
            // The shadowed version plus the tombstone itself are both
            // reclaimable by compaction.
            WriteKind::Tombstone => (&self.rec.appends, 2, KIND_DELETE),
            // A WAL store refuses mergeable functions: no delta is logged.
            WriteKind::Delta => {
                self.count_write(&self.rec.appends);
                self.rec.deltas.inc();
                return Some(out);
            }
            WriteKind::Roll { .. } => return Some(out),
        };
        self.count_write(bucket);
        if dead > 0 {
            self.note_dead(dead);
        }
        self.wal_log(wal_kind, rec);
        Some(out)
    }

    /// Allocates and initializes a record (header + key) at the tail.
    fn write_record(&self, prev: Address, key: &K, bits: u64) -> (Address, RecordRef<K, V>) {
        let inner = &self.store.inner;
        let addr = inner.log.allocate(RecordRef::<K, V>::size() as u32, &self.guard);
        let p = inner.log.get(addr).expect("fresh tail allocation is resident");
        // Safety: exclusive until published via the index CAS.
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.init_header(RecordHeader::new(prev).with(bits));
        rec.init_key(key);
        (addr, rec)
    }

    fn queue_fuzzy_retry(&self, key: &K, hash: KeyHash, input: &F::Input, reuse: Option<u64>) -> u64 {
        let id = reuse.unwrap_or_else(|| self.fresh_id());
        self.outstanding.set(self.outstanding.get() + 1);
        self.retries.borrow_mut().push_back(FuzzyRetry { id, key: *key, hash, input: input.clone() });
        id
    }

    // ================================================== pending completion

    /// Processes completed asynchronous operations and fuzzy retries,
    /// returning finished [`Completion`]s. With `wait`, blocks until nothing
    /// is outstanding — parked on the completion ring, not spinning.
    ///
    /// Each pass: run fuzzy retries, hand every queued SQE to the device in
    /// one `submit_all` batch, reap CQEs straight off the ring, and resume
    /// each continuation by id. Batch calls have already submitted their
    /// own SQEs; what a pass submits was queued by scalar ops, retries and
    /// continuations. Continuations that hop further down a chain queue
    /// fresh SQEs, which go out before the pass parks — the device is never
    /// idle while the session waits.
    pub fn complete_pending(&self, wait: bool) -> Vec<Completion<F::Output>> {
        let mut done = Vec::new();
        self.drive_wal();
        if self.outstanding.get() == 0 {
            // Nothing outstanding: nothing queued, nothing parked, nothing
            // in flight (every counted op is one of those). In particular
            // `wait` must not touch the I/O ring or the epoch here.
            debug_assert!(self.sq.borrow().is_empty() && self.pending.borrow().is_empty());
            self.wal_wait_if(wait);
            return done;
        }
        loop {
            // Fuzzy retries: by the time we're called again, the offending
            // address is usually below safe-read-only and takes the RCU path.
            let n_retries = self.retries.borrow().len();
            for _ in 0..n_retries {
                let FuzzyRetry { id, key, hash, input } =
                    { self.retries.borrow_mut().pop_front() }.expect("len checked");
                self.dec_outstanding();
                match self.rmw_internal(&key, hash, &input, Some(id)) {
                    Ok(out) => done.push(Completion { id, result: Ok(out) }),
                    Err(_) => { /* requeued under the same id */ }
                }
            }
            // Batched doorbell, then reap whatever has completed so far.
            self.submit_queued();
            self.reap_and_run(&mut done);
            // Continuations may have queued follow-up SQEs (next chain hop,
            // transient retry): submit them before deciding to park.
            self.submit_queued();
            if !wait || self.outstanding.get() == 0 {
                break;
            }
            // Waiting on the device: refresh (epoch triggers must keep
            // firing — our own I/O may be gated behind a flush), then park
            // on the ring's condvar until a CQE lands or the bounded
            // timeout forces another maintenance pass. No backoff spinning.
            self.refresh();
            self.ring.wait_nonempty(RING_WAIT);
            self.drive_wal();
        }
        self.wal_wait_if(wait);
        done
    }

    /// The WAL half of a `complete_pending` pass: publish any group this
    /// session leads, then ask the WAL, once per LSN, for the one the
    /// session has promised to wait for — so a pass's mutations join one
    /// group. On an idle log this session leads the staged group, whose
    /// sync CQE lands in `wal_ring`; otherwise a notice waits there.
    fn drive_wal(&self) {
        let Some(wal) = self.store.inner.wal.get() else { return };
        self.reap_wal(wal);
        let lsn = self.wal_wanted.get();
        if lsn > self.wal_asked.get().max(wal.durable_lsn()) && self.wal_error.borrow().is_none() {
            self.wal_asked.set(lsn);
            wal.notify_durable(lsn, WAL_NOTICE, &self.wal_ring);
        }
    }

    /// Ack-aware completion (DESIGN.md §10): a waiting `complete_pending`
    /// also blocks until this session's WAL appends are group-commit
    /// durable. A failed WAL returns immediately (the failure is sticky —
    /// no group will ever ack again); the loss itself is surfaced through
    /// [`Session::wait_wal_durable`] / [`Session::poll_wal_durable`], which
    /// keep erroring.
    fn wal_wait_if(&self, wait: bool) {
        if wait {
            let _ = self.wait_wal_durable();
        }
    }

    /// Hands every locally queued SQE to the device in one batch, sampling
    /// the in-flight depth the batch tops up to.
    fn submit_queued(&self) {
        let mut sq = self.sq.borrow_mut();
        if sq.is_empty() {
            return;
        }
        self.hub.io_depth.record(self.outstanding.get() as u64);
        self.store.inner.log.device().submit_all(&mut sq);
    }

    /// Reaps every published CQE and resumes the continuation each one
    /// keys. Returns the number of CQEs consumed.
    fn reap_and_run(&self, done: &mut Vec<Completion<F::Output>>) -> usize {
        let mut cqes = std::mem::take(&mut *self.io_scratch.borrow_mut());
        self.ring.reap(&mut cqes);
        let reaped = cqes.len();
        for cqe in cqes.drain(..) {
            // Scope the table borrow: continuations re-enter `issue_io`.
            let parked = self.pending.borrow_mut().remove(&cqe.id);
            let Some(Parked { mut op, issued, span }) = parked else {
                debug_assert!(false, "CQE {} has no parked continuation", cqe.id);
                continue;
            };
            self.dec_outstanding();
            self.rec.io_completed.inc();
            // The reaper owns the completed half of the hlog read identity
            // (`make_read_sqe` counted the issue).
            self.store.inner.log.metrics().reads_completed.inc();
            self.hub.io_latency.record(issued.elapsed().as_nanos() as u64);
            match cqe.result {
                Ok(bytes) => {
                    let verified = match &span {
                        Some(s) => self.store.inner.log.verify_extract(s, bytes),
                        None => Ok(bytes),
                    };
                    match verified {
                        Ok(bytes) => self.continue_io(op, RecordView::parse(&bytes), done),
                        Err(err) => {
                            // Checksum mismatch (or a short read): never hand
                            // the suspect bytes to the continuation, and never
                            // answer "key absent" — the record may exist, we
                            // just cannot prove what it held.
                            self.rec.io_failed.inc();
                            done.push(Completion { id: op.id, result: Err(OpError::Io(err)) });
                        }
                    }
                }
                Err(err @ faster_storage::IoError::Corrupt { .. }) => {
                    // Quarantined page (or corruption detected at issue
                    // time): permanent, no point retrying. Surface the typed
                    // failure; the fault hook has already degraded the store.
                    self.rec.io_failed.inc();
                    done.push(Completion { id: op.id, result: Err(OpError::Io(err)) });
                }
                Err(err @ faster_storage::IoError::Failed(_)) => {
                    // Transient device error: the record may well still
                    // be durable, so answering "key absent" here would
                    // fabricate a loss (and, for RMW, reset the value).
                    // Retry the same read with bounded backoff; only
                    // when the budget is exhausted surface a *distinct*
                    // failure completion that mutates nothing.
                    if op.attempts < MAX_IO_RETRIES {
                        op.attempts += 1;
                        self.rec.io_retries.inc();
                        let mut pause = faster_util::Backoff::new();
                        for _ in 0..op.attempts {
                            pause.snooze();
                        }
                        self.issue_io(op);
                    } else {
                        self.rec.io_failed.inc();
                        done.push(Completion { id: op.id, result: Err(OpError::Io(err)) });
                    }
                }
                // Truncated (log GC: the walk re-probes) or out of range
                // (this chain ends).
                Err(_) => self.continue_io(op, None, done),
            }
        }
        // Hand the drain buffer back for reuse, shrinking a burst-sized
        // buffer so one deep drain doesn't pin its high-water capacity.
        if cqes.capacity() > IO_SCRATCH_MAX {
            cqes.shrink_to(IO_SCRATCH_MAX);
        }
        *self.io_scratch.borrow_mut() = cqes;
        reaped
    }

    /// Resumes a pending op's walk with the record its read returned. `None`
    /// (page padding, a truncated prefix) ends that chain — the walk goes on
    /// from its next merge fallback, or finds the key absent — unless
    /// truncation cut it, which the walk re-probes (see [`Walk::unreadable`]).
    fn continue_io(
        &self,
        mut op: PendingOp<K, V, F::Input>,
        image: Option<RecordView<K, V>>,
        done: &mut Vec<Completion<F::Output>>,
    ) {
        if image.is_none() {
            op.walk.unreadable(self.store.inner.log.begin_address());
        }
        let PendingKind::Rmw { entry_addr } = op.kind else {
            let result = self.read_walk(&op.key, op.hash, &op.input, op.walk, image, Some(op.id));
            if !matches!(result, Err(OpError::Pending(_))) {
                done.push(Completion { id: op.id, result });
            }
            return;
        };
        let f = &self.store.inner.functions;
        let old = match self.resolve(&op.key, op.hash, &mut op.walk, image.as_ref()) {
            Seek::Found(_, rec, Step::Base) => op.walk.value(f, Some(rec.read_value())),
            Seek::Found(..) | Seek::Absent => op.walk.value(f, None),
            // Another hop down the chain (fresh transient-retry budget).
            Seek::OnDisk => {
                op.attempts = 0;
                return self.issue_io(op);
            }
        };
        if let Some(out) = self.rmw_complete(&op, entry_addr, old) {
            done.push(Completion { id: op.id, result: Ok(out) });
        }
    }

    /// Applies a pending RMW's update once the old value (or its absence) is
    /// known, if the index entry still holds the `entry_addr` the RMW
    /// observed. Returns the RMW's outcome when complete, `None` if it went
    /// pending again (index changed underneath: full restart, Alg 4 line 32).
    fn rmw_complete(
        &self,
        op: &PendingOp<K, V, F::Input>,
        entry_addr: Address,
        old: Option<V>,
    ) -> Option<Outcome<F::Output>> {
        let inner = &self.store.inner;
        let applied = match inner.index.find_or_create_tag(op.hash, Some(&self.guard)) {
            // The chain changed while we were reading: restart.
            CreateOutcome::Found(slot) if slot.observed().address() != entry_addr => None,
            found @ CreateOutcome::Found(_) => self.rcu_create(found, &op.key, &op.input, old),
            // Entry vanished (deleted) meanwhile: fresh initial record.
            created => self.rcu_create(created, &op.key, &op.input, None),
        };
        // Otherwise requeued pending under the same id.
        applied.or_else(|| self.rmw_internal(&op.key, op.hash, &op.input, Some(op.id)).ok())
    }

    // ========================================================== WAL replay

    /// Reapplies one decoded WAL record during recovery (DESIGN.md §10).
    /// Only runs on a store whose WAL is not yet attached (recovery wires
    /// the resumed log in after the suffix is replayed), so nothing here
    /// re-appends.
    pub(crate) fn replay_wal_op(&self, op: crate::walrec::WalOp<K, V>) {
        debug_assert!(self.store.inner.wal.get().is_none(), "WAL replay with a WAL attached");
        match op {
            crate::walrec::WalOp::Put { key, value } => self.replay_put(&key, &value),
            crate::walrec::WalOp::Delete { key } => self.delete_internal(&key, hash_key(&key)),
        }
        self.maybe_refresh();
    }

    /// Physical redo of a full post-image: appends a record holding exactly
    /// `value` — no writer callbacks, the bytes already are the result the
    /// original operation produced. Idempotent, so records double-covered
    /// by a fuzzy checkpoint converge to the same state.
    fn replay_put(&self, key: &K, value: &V) {
        let index = &self.store.inner.index;
        let hash = hash_key(key);
        loop {
            let at = index.find_or_create_tag(hash, Some(&self.guard));
            if self.publish(at, key, WriteKind::Append, |v| *v = *value).is_some() {
                return;
            }
        }
    }
}

/// The WAL paths a dropping session runs too.
impl<K: Pod, V: Pod, F: Functions<K, V>> Session<K, V, F> {
    /// The one WAL-failure latch — a refused append, a failed wait, a failed
    /// notice or group: per-op durability is gone for good (WAL failures are
    /// sticky), so degrade the store to read-only, keep the first error, and
    /// poison the session's LSN so no group can ever cover it. Returns the
    /// latched error.
    fn latch_wal_failure(&self, e: faster_storage::IoError) -> faster_storage::IoError {
        self.store.inner.health.to_read_only(HealthReason::WalFailed);
        self.wal_lsn.set(Lsn::MAX);
        self.wal_error.borrow_mut().get_or_insert(e).clone()
    }

    /// Reaps the WAL ring. The sync of a group this session leads publishes
    /// the watermark (and may lead the next group into another waiter's
    /// ring); a notice only wakes. Failures latch.
    fn reap_wal(&self, wal: &Wal) {
        let mut cqes = std::mem::take(&mut *self.io_scratch.borrow_mut());
        self.wal_ring.reap(&mut cqes);
        for cqe in cqes.drain(..) {
            let reaped = match cqe.id {
                Wal::SYNC_CQE => wal.reap_sync(cqe.result, &self.wal_ring),
                _ => cqe.result.map(drop),
            };
            if let Err(e) = reaped {
                self.latch_wal_failure(e);
            }
        }
        *self.io_scratch.borrow_mut() = cqes;
    }

    /// Reaps the WAL ring until everything asked of the WAL is durable or
    /// failed. Run before a blocking WAL wait and on drop: a group this
    /// session leads is published by nobody else, and every later group
    /// waits behind it.
    fn drain_wal(&self, wal: &Wal) {
        loop {
            self.reap_wal(wal);
            if self.wal_asked.get() <= wal.durable_lsn() || self.wal_error.borrow().is_some() {
                return;
            }
            self.wal_ring.wait_nonempty(WAL_PARK);
        }
    }
}

impl<K: Pod, V: Pod, F: Functions<K, V>> Drop for Session<K, V, F> {
    fn drop(&mut self) {
        // Outstanding I/O only pushes CQEs into the Arc'd ring; results for a
        // dropped session are simply discarded. A WAL group it leads is not:
        // every later group waits on its sync, so it is reaped first. The
        // guard's Drop releases the epoch slot (§2.5 Release). The recorder
        // folds into the hub's retired accumulator so store-wide totals
        // survive session churn.
        if let Some(wal) = self.store.inner.wal.get() {
            self.drain_wal(wal);
        }
        self.hub.retire(&self.rec);
    }
}
