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
//! SQE carrying that id. [`Session::complete_pending`] drives the cycle —
//! submit every queued SQE in one batched handoff, reap CQEs straight off
//! the session's [`CompletionRing`] (one atomic swap, no thread hop, no
//! lock), and resume each continuation by id. A single session can
//! therefore keep hundreds of disk reads in flight: issue a batch of
//! reads, then call `complete_pending` to overlap all of their I/O.

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
/// a read that finds the key yields `Value`, an applied mutation yields
/// `Done`, and everything else — absent key, asynchronous continuation,
/// read-only degradation, exhausted I/O — is a typed [`OpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<O> {
    /// A read found the key; the user functions produced this output.
    Value(O),
    /// A mutation (upsert / RMW / delete) was applied.
    Done,
}

impl<O> Outcome<O> {
    /// The read output, if this outcome carries one.
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

impl OpError {
    /// The pending id, when the operation went asynchronous.
    #[inline]
    pub fn pending_id(&self) -> Option<u64> {
        match self {
            OpError::Pending(id) => Some(*id),
            _ => None,
        }
    }
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
/// final [`OpResult`] (`Ok(Value)` / `Err(NotFound)` for reads, `Ok(Done)`
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
#[derive(Clone, Copy, PartialEq, Eq)]
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
        Self { addr: head, fallbacks: Vec::new(), acc: None }
    }

    /// Settles on a record to visit: while the address is a chain end or
    /// below `floor` (the begin address, or a liveness bound), resume the
    /// newest parked merge fallback. `false` once every chain is exhausted.
    #[inline]
    fn advance(&mut self, floor: Address) -> bool {
        while !self.addr.is_valid() || self.addr < floor {
            match self.fallbacks.pop() {
                Some(a) => self.addr = a,
                None => return false,
            }
        }
        true
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
    fn fold<K: Pod>(&mut self, f: &impl Functions<K, V>, part: V) {
        self.acc = Some(match &self.acc {
            Some(a) => f.merge(a, &part),
            None => part,
        });
    }

    /// The key's value once the walk stops: `base` (`None` = tombstone or
    /// chain end) merged with the folded deltas — which fold onto the
    /// identity when no base exists (§6.3).
    fn value<K: Pod>(&self, f: &impl Functions<K, V>, base: Option<V>) -> Option<V> {
        match &self.acc {
            Some(a) => Some(f.merge(&base.unwrap_or_else(|| f.identity()), a)),
            None => base,
        }
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
    /// per `complete_pending` pass.
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
    /// with `metrics-timing` and latency is enabled in `MetricsConfig`).
    #[inline]
    fn op_timer(&self) -> Timer {
        Timer::start(self.hub.latency_enabled)
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
                    walk.addr = h.prev();
                }
                None => {
                    // Evicted under us; the eviction hook is restoring
                    // the entry. Refresh (drives the trigger) + re-probe.
                    self.refresh();
                    match self.entry_address(hash) {
                        Some(head) => walk.addr = head,
                        None => return Err(OpError::NotFound),
                    }
                }
            }
        }
        let start = walk.addr;
        match self.resolve(key, &mut walk, image.as_ref()) {
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
        walk: &mut Walk<V>,
        floor: Address,
        mut image: Option<&RecordView<K, V>>,
    ) -> Seek<K, V> {
        let log = &self.store.inner.log;
        loop {
            let rec = match image.take() {
                Some(view) => *view.get(),
                None => {
                    if !walk.advance(floor.max(log.begin_address())) {
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
        walk: &mut Walk<V>,
        mut image: Option<&RecordView<K, V>>,
    ) -> Seek<K, V> {
        loop {
            match self.seek(key, walk, Address::INVALID, image.take()) {
                Seek::Found(_, rec, Step::Delta) => {
                    walk.fold(&self.store.inner.functions, rec.read_value())
                }
                stop => return stop,
            }
        }
    }

    /// The step loop of the version walks (history, compaction liveness):
    /// steps through a read-cache copy to the primary record it caches
    /// (re-probing if the copy was evicted), settles the walk at or above
    /// `floor`, and views the record there — resident, or read from storage
    /// with a blocking read (these are maintenance and analytics paths). A
    /// record that cannot be read ends its chain. `None` once every chain
    /// is exhausted.
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
                    Some(p) => walk.addr = unsafe { RecordRef::<K, V>::from_raw(p) }.header().prev(),
                    None => {
                        // Evicted mid-walk: re-probe, as reads do.
                        self.refresh();
                        walk.addr = self.entry_address(hash)?;
                    }
                }
                continue;
            }
            if !walk.advance(floor.max(inner.log.begin_address())) {
                return None;
            }
            if let Some(p) = inner.log.get(walk.addr) {
                // Safety: epoch-protected resident record.
                return Some(unsafe { RecordView::resident(p) });
            }
            let read = inner.log.read_blocking(walk.addr, RecordRef::<K, V>::size());
            match read.ok().and_then(|bytes| RecordView::parse(&bytes)) {
                Some(view) => return Some(view),
                None => walk.addr = Address::INVALID,
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
    /// one `poll` park covers ring CQEs *and* socket readiness.
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
                        self.seek(key, &mut Walk::new(head), floor, None)
                    {
                        f.concurrent_writer(key, value, rec.value_cell());
                        self.count_write(&self.rec.in_place);
                        self.wal_log(crate::walrec::KIND_PUT, rec);
                        return;
                    }
                }
                kind = WriteKind::Rcu;
            }
            if self.publish(at, key, kind, |v| f.single_writer(key, value, v)) {
                return;
            }
        }
    }

    // ================================================================= RMW

    /// Read-modify-write (Algorithm 4 + Table 2). May return
    /// [`OpError::Pending`] for disk-resident records or fuzzy-region hits,
    /// and refuses with [`OpError::ReadOnly`] on a degraded store.
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
                self.rcu_create(at, key, input, None);
                return Ok(Outcome::Done);
            };
            let entry = slot.observed().address();
            if is_rc(entry) {
                // Cache hit for RMW: the old value is right here —
                // no I/O needed. Write the updated primary record.
                match inner.rc.as_ref().and_then(|rc| rc.get(rc_untag(entry))) {
                    Some(p) => {
                        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                        if rec.key() == *key {
                            if self.rcu_create(at, key, input, Some(rec.read_value())) {
                                return Ok(Outcome::Done);
                            }
                            continue;
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
            let published = match self.seek(key, &mut walk, Address::INVALID, None) {
                // Deleted or absent: (re-)create from the initial value.
                Seek::Found(_, _, Step::Tombstone) | Seek::Absent => {
                    self.rcu_create(at, key, input, None)
                }
                Seek::Found(laddr, rec, _) => match inner.log.classify(laddr) {
                    Region::Mutable => {
                        f.in_place_updater(key, input, rec.value_cell());
                        self.count_write(&self.rec.in_place);
                        self.wal_log(crate::walrec::KIND_PUT, rec);
                        return Ok(Outcome::Done);
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
            if published {
                return Ok(Outcome::Done);
            }
        }
    }

    /// Publishes the RMW result record (Alg 4 CREATE_RECORD): a copy-update
    /// of `old`, or the initial value when the key has no live version.
    /// Returns false if the CAS lost (caller retries).
    fn rcu_create(
        &self,
        at: CreateOutcome<'_>,
        key: &K,
        input: &F::Input,
        old: Option<V>,
    ) -> bool {
        let f = &self.store.inner.functions;
        match old {
            Some(old) => {
                self.publish(at, key, WriteKind::Rcu, |v| f.copy_updater(key, input, &old, v))
            }
            None => self.publish(at, key, WriteKind::Append, |v| f.initial_updater(key, input, v)),
        }
    }

    /// Publishes a CRDT delta record (partial value from the identity, §6.3).
    fn append_delta(&self, at: CreateOutcome<'_>, key: &K, input: &F::Input) -> bool {
        let f = &self.store.inner.functions;
        self.publish(at, key, WriteKind::Delta, |v| f.copy_updater(key, input, &f.identity(), v))
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
            if self.publish(CreateOutcome::Found(slot), key, WriteKind::Tombstone, |_| {}) {
                break;
            }
        }
    }

    // =============================================================== BATCH
    //
    // Batched issue (DESIGN.md §3 "Batched execution & prefetching"): the
    // scalar hot path pays a serial dependent-load chain per operation —
    // hash → bucket probe → record dereference — so each op stalls on two
    // DRAM round-trips. The batched entry points run that chain as a
    // MICA-style software pipeline over the whole batch: hash every key and
    // prefetch every target bucket, then probe every bucket and prefetch
    // every resolved record, then execute. The loads of one stage are
    // independent across ops, so their cache misses overlap up to the
    // memory-level parallelism of the core instead of serializing.
    //
    // Semantics are identical to issuing the ops sequentially on this
    // session: each op executes (and linearizes) one at a time in submission
    // order in the final stage; the earlier stages are pure hints plus an
    // index probe that the execute stage re-validates exactly the way the
    // scalar path does. Epoch refresh is amortized to once per batch, which
    // is also the natural cadence for draining I/O completions
    // ([`Session::complete_pending`] once per batch, not once per op).

    /// Reads a batch of keys with one shared `input`, returning one result
    /// per key in order. Equivalent to calling [`Session::read`] per key;
    /// pending results complete through [`Session::complete_pending`].
    pub fn read_batch(&self, keys: &[K], input: &F::Input) -> Vec<OpResult<F::Output>> {
        let inner = &self.store.inner;
        self.rec.batches.inc();
        self.rec.reads.add(keys.len() as u64);
        // Stage 1: hash every key, prefetch every target bucket.
        let mut hashes: Vec<KeyHash> = Vec::with_capacity(keys.len());
        for key in keys {
            let h = hash_key(key);
            inner.index.prefetch_bucket(h);
            hashes.push(h);
        }
        // Stage 2: probe the (now arriving) buckets; prefetch each resolved
        // chain head so the record lines are in flight before stage 3.
        let mut heads: Vec<Address> = Vec::with_capacity(keys.len());
        for &hash in &hashes {
            let head = self.entry_address(hash).unwrap_or(Address::INVALID);
            if is_rc(head) {
                if let Some(rc_log) = inner.rc.as_ref() {
                    rc_log.prefetch(rc_untag(head));
                }
            } else if head.is_valid() {
                inner.log.prefetch(head);
            }
            heads.push(head);
        }
        // Stage 3: execute in submission order — the same walk as scalar
        // `read`, resumed from the already-probed chain head.
        let mut out = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            self.read_rc_hit.set(false);
            let r = self.read_walk(key, hashes[i], input, Walk::new(heads[i]), None, None);
            self.classify_read(&r);
            out.push(r);
        }
        self.batch_tick(keys.len());
        out
    }

    /// Upserts a batch of key/value pairs. Equivalent to calling
    /// [`Session::upsert`] per pair, in order; on a read-only store the
    /// whole batch is refused (no prefix is applied).
    pub fn upsert_batch(&self, pairs: &[(K, V)]) -> Result<(), OpError> {
        self.writable()?;
        let inner = &self.store.inner;
        self.rec.batches.inc();
        self.rec.upserts.add(pairs.len() as u64);
        let mut hashes: Vec<KeyHash> = Vec::with_capacity(pairs.len());
        for (key, _) in pairs {
            let h = hash_key(key);
            inner.index.prefetch_bucket(h);
            hashes.push(h);
        }
        for (i, (key, value)) in pairs.iter().enumerate() {
            self.upsert_internal(key, hashes[i], value);
        }
        self.batch_tick(pairs.len());
        Ok(())
    }

    /// RMWs a batch of key/input pairs, returning one result per op in
    /// order. Equivalent to calling [`Session::rmw`] per pair; pending
    /// results complete through [`Session::complete_pending`]. On a
    /// read-only store every slot is `Err(ReadOnly)`.
    pub fn rmw_batch(&self, ops: &[(K, F::Input)]) -> Vec<OpResult<F::Output>> {
        if let Err(e) = self.writable() {
            return ops.iter().map(|_| Err(e.clone())).collect();
        }
        let inner = &self.store.inner;
        self.rec.batches.inc();
        self.rec.rmws.add(ops.len() as u64);
        let mut hashes: Vec<KeyHash> = Vec::with_capacity(ops.len());
        for (key, _) in ops {
            let h = hash_key(key);
            inner.index.prefetch_bucket(h);
            hashes.push(h);
        }
        let mut out = Vec::with_capacity(ops.len());
        for (i, (key, input)) in ops.iter().enumerate() {
            out.push(self.rmw_internal(key, hashes[i], input, None));
        }
        self.batch_tick(ops.len());
        out
    }

    /// Executes a heterogeneous batch, returning one [`OpResult`] per op in
    /// submission order. Equivalent to issuing each op individually: reads
    /// yield `Value`/`NotFound`/`Pending`, mutations yield `Done` (or
    /// `Pending` for an RMW that went asynchronous). On a read-only store
    /// the reads still execute; every mutation slot is `Err(ReadOnly)` —
    /// exactly what a protocol front-end needs to keep serving GETs while
    /// SETs bounce (DESIGN.md §12/§13).
    pub fn execute_batch(&self, ops: &[BatchOp<K, V, F::Input>]) -> Vec<OpResult<F::Output>> {
        let inner = &self.store.inner;
        self.rec.batches.inc();
        // One health check per batch, applied positionally to mutations.
        let refused = self.writable().err();
        for op in ops {
            match op {
                BatchOp::Read { .. } => self.rec.reads.inc(),
                BatchOp::Upsert { .. } => self.rec.upserts.inc(),
                BatchOp::Rmw { .. } => self.rec.rmws.inc(),
                BatchOp::Delete { .. } => self.rec.deletes.inc(),
            }
        }
        let mut hashes: Vec<KeyHash> = Vec::with_capacity(ops.len());
        for op in ops {
            let h = hash_key(op.key());
            inner.index.prefetch_bucket(h);
            hashes.push(h);
        }
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let hash = hashes[i];
            if let Some(e) = &refused {
                if !matches!(op, BatchOp::Read { .. }) {
                    out.push(Err(e.clone()));
                    continue;
                }
            }
            out.push(match op {
                BatchOp::Read { key, input } => {
                    self.read_rc_hit.set(false);
                    let r = self.read_internal(key, hash, input);
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
        while out.len() < limit {
            let Some(view) = self.resolve_blocking(hash, &mut walk, Address::INVALID) else { break };
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
    /// record invalid and returns false: the caller re-probes and retries
    /// (Alg 3 line 19). A won publish counts the write, reports the records
    /// it made dead, and logs the post-image, all per `kind`.
    #[inline]
    pub(crate) fn publish(
        &self,
        at: CreateOutcome<'_>,
        key: &K,
        kind: WriteKind,
        fill: impl FnOnce(&mut V),
    ) -> bool {
        use crate::walrec::{KIND_DELETE, KIND_DELTA, KIND_PUT};
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
        fill(unsafe { rec.value_mut() });
        match at {
            CreateOutcome::Found(mut slot) => {
                if slot.cas_address(addr).is_err() {
                    rec.set_bits(INVALID_BIT);
                    self.note_dead(1);
                    return false;
                }
            }
            CreateOutcome::Created(created) => drop(created.finalize(addr)),
        }
        let (bucket, dead, wal_kind) = match kind {
            WriteKind::Append => (&self.rec.appends, 0, KIND_PUT),
            WriteKind::Rcu => (&self.rec.rcu, 1, KIND_PUT),
            WriteKind::Delta => (&self.rec.appends, 0, KIND_DELTA),
            // The shadowed version plus the tombstone itself are both
            // reclaimable by compaction.
            WriteKind::Tombstone => (&self.rec.appends, 2, KIND_DELETE),
            WriteKind::Roll { .. } => return true,
        };
        self.count_write(bucket);
        if kind == WriteKind::Delta {
            self.rec.deltas.inc();
        }
        if dead > 0 {
            self.note_dead(dead);
        }
        self.wal_log(wal_kind, rec);
        true
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
    /// each continuation by id. Continuations that hop further down a chain
    /// queue fresh SQEs, which go out before the pass parks — the device is
    /// never idle while the session waits.
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
                    Ok(_) => done.push(Completion { id, result: Ok(Outcome::Done) }),
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
                Err(_) => {
                    // Truncated (log GC) or out-of-range: the record is
                    // genuinely gone — this chain ends here.
                    self.continue_io(op, None, done);
                }
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
    /// (page padding, a truncated prefix) ends that chain: the walk goes on
    /// from its next merge fallback, or finds the key absent.
    fn continue_io(
        &self,
        mut op: PendingOp<K, V, F::Input>,
        image: Option<RecordView<K, V>>,
        done: &mut Vec<Completion<F::Output>>,
    ) {
        if image.is_none() {
            op.walk.addr = Address::INVALID;
        }
        let PendingKind::Rmw { entry_addr } = op.kind else {
            let result = self.read_walk(&op.key, op.hash, &op.input, op.walk, image, Some(op.id));
            if !matches!(result, Err(OpError::Pending(_))) {
                done.push(Completion { id: op.id, result });
            }
            return;
        };
        let f = &self.store.inner.functions;
        let old = match self.resolve(&op.key, &mut op.walk, image.as_ref()) {
            Seek::Found(_, rec, Step::Base) => op.walk.value(f, Some(rec.read_value())),
            Seek::Found(..) | Seek::Absent => op.walk.value(f, None),
            // Another hop down the chain (fresh transient-retry budget).
            Seek::OnDisk => {
                op.attempts = 0;
                return self.issue_io(op);
            }
        };
        if let Some(id) = self.rmw_complete(op, entry_addr, old) {
            done.push(Completion { id, result: Ok(Outcome::Done) });
        }
    }

    /// Applies a pending RMW's update once the old value (or its absence) is
    /// known, if the index entry still holds the `entry_addr` the RMW
    /// observed. Returns the op id when complete, `None` if it went pending
    /// again (index changed underneath: full restart, Alg 4 line 32).
    fn rmw_complete(
        &self,
        op: PendingOp<K, V, F::Input>,
        entry_addr: Address,
        old: Option<V>,
    ) -> Option<u64> {
        let inner = &self.store.inner;
        let applied = match inner.index.find_or_create_tag(op.hash, Some(&self.guard)) {
            // The chain changed while we were reading: restart.
            CreateOutcome::Found(slot) if slot.observed().address() != entry_addr => false,
            found @ CreateOutcome::Found(_) => self.rcu_create(found, &op.key, &op.input, old),
            // Entry vanished (deleted) meanwhile: fresh initial record.
            created => self.rcu_create(created, &op.key, &op.input, None),
        };
        if applied {
            return Some(op.id);
        }
        match self.rmw_internal(&op.key, op.hash, &op.input, Some(op.id)) {
            Ok(_) => Some(op.id),
            Err(_) => None, // requeued pending under the same id
        }
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
            crate::walrec::WalOp::Delta { key, partial } => self.replay_delta(&key, &partial),
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
        while !self.publish(
            index.find_or_create_tag(hash, Some(&self.guard)),
            key,
            WriteKind::Append,
            |v| *v = *value,
        ) {}
    }

    /// Redo of a CRDT delta: re-appends the partial atop the key's chain,
    /// or folds it into a fresh full value when no chain exists anymore
    /// (merge with the identity is exactly the partial's contribution).
    fn replay_delta(&self, key: &K, partial: &V) {
        let inner = &self.store.inner;
        let f = &inner.functions;
        let hash = hash_key(key);
        loop {
            let applied = match inner.index.find_or_create_tag(hash, Some(&self.guard)) {
                found @ CreateOutcome::Found(_) => {
                    self.publish(found, key, WriteKind::Delta, |v| *v = *partial)
                }
                created => self.publish(created, key, WriteKind::Append, |v| {
                    *v = f.merge(&f.identity(), partial)
                }),
            };
            if applied {
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
