//! # faster-core
//!
//! The FASTER concurrent key-value store (SIGMOD 2018), assembled from the
//! epoch framework (`faster-epoch`), the latch-free hash index
//! (`faster-index`), and the HybridLog record allocator (`faster-hlog`).
//!
//! ## What you get
//!
//! * [`FasterKv`] — the store: point [`Session::read`], blind
//!   [`Session::upsert`], [`Session::rmw`] (read-modify-write with
//!   user-defined update logic, including CRDT/mergeable updates), and
//!   [`Session::delete`], all latch-free, over data larger than memory.
//! * [`Session`] — a thread's registration with the store (§2.5): wraps an
//!   epoch guard, performs periodic refresh, and carries the pending
//!   queue for operations that went asynchronous (`PENDING` status).
//! * [`functions::Functions`] — the compile-time user-logic interface of
//!   Appendix E (monomorphized instead of code-generated).
//! * Checkpoint/recover (§6.5), log GC (Appendix C), on-line index resizing
//!   (Appendix B), and log scan hooks (Appendix F).
//!
//! ## Quick example — the paper's count store (§2.5)
//!
//! ```
//! use faster_core::prelude::*;
//! use faster_storage::MemDevice;
//!
//! let store = FasterKv::new(FasterKvConfig::small(), CountStore, MemDevice::new(2));
//! let mut session = store.start_session();
//! for i in 1..=10 {
//!     // Increment key 42's counter; the RMW answers with the new count.
//!     assert_eq!(session.rmw(&42, &1), Ok(Outcome::Value(i)));
//! }
//! let n = match session.read(&42, &0) {
//!     Ok(Outcome::Value(v)) => v,
//!     _ => panic!("in memory, never pending"),
//! };
//! assert_eq!(n, 10);
//! ```

pub mod checkpoint;
pub mod ckpt_manager;
pub mod functions;
pub mod gc;
pub mod health;
pub mod maintenance;
pub mod read_cache;
pub mod record;
mod session;
pub(crate) mod walrec;

pub use checkpoint::{CheckpointData, CheckpointError};
pub use ckpt_manager::{
    CheckpointConfig, CheckpointManager, GenerationMeta, RecoveredGeneration,
};
pub use functions::{BlindKv, CountCrdt, CountStore, Functions, ValueCell};
pub use health::{HealthReason, StoreError, StoreHealth};
pub use session::{BatchOp, Completion, OpError, OpResult, Outcome, Session};

/// The documented public surface in one import: the store and its config
/// builder, sessions, the unified operation result types, user-function
/// traits with the stock implementations, and the health ladder.
///
/// ```
/// use faster_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::functions::{BlindKv, CountCrdt, CountStore, Functions, ValueCell};
    pub use crate::health::{HealthReason, StoreError, StoreHealth};
    pub use crate::session::{BatchOp, Completion, OpError, OpResult, Outcome, Session};
    pub use crate::{FasterKv, FasterKvConfig};
}

use faster_epoch::{Epoch, EpochGuard};
use faster_hlog::{HLogConfig, HybridLog};
use faster_index::{HashIndex, IndexConfig, RecordAccess};
use faster_metrics::{HlogSnapshot, MetricsRegistry, StoreMetrics};
use faster_storage::Device;
use faster_util::{Address, KeyHash, Pod};
use record::RecordRef;
use std::sync::Arc;

/// Re-exported so WAL-backed stores need only `faster-core` in scope.
pub use faster_wal::WalConfig;

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct FasterKvConfig {
    pub index: IndexConfig,
    pub log: HLogConfig,
    /// Maximum concurrently active sessions (epoch-table capacity).
    pub max_sessions: usize,
    /// Operations between automatic epoch refreshes (§2.5 suggests 256).
    pub refresh_interval: u32,
    /// Optional read-hot record cache (Appendix D): a second HybridLog that
    /// is never flushed; its size/IPU split control the second-chance degree.
    pub read_cache: Option<HLogConfig>,
    /// Optional group-committed write-ahead log (DESIGN.md §10). `None`
    /// keeps the classic FASTER durability model (CPR checkpoints only);
    /// `Some` makes every mutating op append a logical record to the WAL
    /// and lets sessions wait for group-commit durability. Build such a
    /// store with [`FasterKv::new_with_wal`] (the plain constructor has no
    /// WAL device to hand the log).
    pub wal: Option<faster_wal::WalConfig>,
}

impl FasterKvConfig {
    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        Self {
            index: IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 8 },
            log: HLogConfig::small(),
            max_sessions: 32,
            refresh_interval: 64,
            read_cache: None,
            wal: None,
        }
    }

    /// Sizes the index at `#keys / 2` hash-bucket entries — the paper's
    /// default ("we size the FASTER index with #keys/2 hash bucket entries",
    /// §7.1). Seven entries per bucket.
    pub fn for_keys(keys: u64) -> Self {
        let entries = (keys / 2).max(64);
        let buckets = (entries / 7).next_power_of_two();
        let k_bits = buckets.trailing_zeros() as u8;
        Self {
            index: IndexConfig { k_bits: k_bits.clamp(4, 30), tag_bits: 15, max_resize_chunks: 64 },
            log: HLogConfig::default(),
            max_sessions: 128,
            refresh_interval: 256,
            read_cache: None,
            wal: None,
        }
    }

    pub fn with_log(mut self, log: HLogConfig) -> Self {
        self.log = log;
        self
    }

    pub fn with_tag_bits(mut self, bits: u8) -> Self {
        self.index.tag_bits = bits;
        self
    }

    /// Replaces the whole index configuration (shape + tag bits + resize
    /// chunking) in one step.
    pub fn with_index(mut self, index: IndexConfig) -> Self {
        self.index = index;
        self
    }

    /// Sets the epoch-table capacity (maximum concurrently live sessions).
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Sets the automatic epoch refresh cadence (§2.5 suggests 256).
    pub fn with_refresh_interval(mut self, ops: u32) -> Self {
        self.refresh_interval = ops;
        self
    }

    /// Enables the Appendix D read cache with the given cache-log shape.
    pub fn with_read_cache(mut self, cache: HLogConfig) -> Self {
        self.read_cache = Some(cache);
        self
    }

    /// Enables the group-committed WAL (DESIGN.md §10). The store must then
    /// be built with [`FasterKv::new_with_wal`] or recovered with
    /// [`ckpt_manager::recover_store_with_wal`].
    pub fn with_wal(mut self, wal: faster_wal::WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }
}

impl Default for FasterKvConfig {
    fn default() -> Self {
        Self::for_keys(1 << 20)
    }
}

pub(crate) struct StoreInner<K: Pod, V: Pod, F: Functions<K, V>> {
    pub epoch: Epoch,
    pub index: HashIndex,
    pub log: HybridLog,
    /// Appendix D read cache (a second, never-flushed HybridLog).
    pub rc: Option<HybridLog>,
    pub functions: F,
    pub cfg: FasterKvConfig,
    /// Store-wide metrics registry; layers hold clones of its group `Arc`s.
    pub metrics: Arc<MetricsRegistry>,
    /// Group-committed WAL (DESIGN.md §10). A `OnceLock` rather than an
    /// `Option` field so recovery can rebuild the store, replay the WAL
    /// suffix through ordinary sessions (no WAL attached yet — replayed
    /// mutations must not re-append), and only then attach the resumed log.
    pub wal: std::sync::OnceLock<Arc<faster_wal::Wal>>,
    /// Degradation-ladder state (DESIGN.md §12): fed by the log's fault
    /// hook and the WAL error paths, checked by the fallible mutation API
    /// and the maintenance actuators.
    pub health: health::HealthCell,
    _marker: std::marker::PhantomData<(K, V)>,
}

/// The FASTER key-value store. Cheap to clone (a shared handle); create one
/// [`Session`] per thread to operate on it.
pub struct FasterKv<K: Pod, V: Pod, F: Functions<K, V>> {
    pub(crate) inner: Arc<StoreInner<K, V, F>>,
}

impl<K: Pod, V: Pod, F: Functions<K, V>> Clone for FasterKv<K, V, F> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> FasterKv<K, V, F> {
    /// Creates a store over `device`.
    ///
    /// Panics if `cfg.wal` is set — a WAL needs its own device; use
    /// [`FasterKv::new_with_wal`].
    pub fn new(cfg: FasterKvConfig, functions: F, device: Arc<dyn Device>) -> Self {
        assert!(cfg.wal.is_none(), "cfg.wal set: use FasterKv::new_with_wal");
        Self::build(cfg, functions, device, None, None)
    }

    /// Creates a store over `device` with a group-committed WAL on
    /// `wal_device` (DESIGN.md §10). `cfg.wal` must be set.
    ///
    /// Panics if `functions` is mergeable: the WAL logs full post-images
    /// only, and a CRDT delta (§6.3) is a partial value.
    pub fn new_with_wal(
        cfg: FasterKvConfig,
        functions: F,
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
    ) -> Self {
        let wal_cfg = cfg.wal.expect("new_with_wal requires cfg.wal");
        assert!(!functions.is_mergeable(), "a WAL store refuses mergeable functions");
        Self::build(cfg, functions, device, Some((wal_device, wal_cfg)), None)
    }

    /// The one construction path. With a recovery point the index is
    /// restored from its fuzzy snapshot and the log reopened at `t2` in
    /// place of fresh ones, and the §6.5 replay of `[t1, t2)` runs once the
    /// hooks are installed.
    pub(crate) fn build(
        cfg: FasterKvConfig,
        functions: F,
        device: Arc<dyn Device>,
        wal: Option<(Arc<dyn Device>, faster_wal::WalConfig)>,
        recovery: Option<&CheckpointData>,
    ) -> Self {
        let metrics = Arc::new(MetricsRegistry::default());
        let epoch = Epoch::with_metrics(cfg.max_sessions, metrics.epoch.clone());
        let (index, log) = match recovery {
            Some(data) => (
                HashIndex::restore_with_metrics(
                    &data.index,
                    cfg.index.max_resize_chunks,
                    epoch.clone(),
                    metrics.index.clone(),
                ),
                HybridLog::recover_with_metrics(
                    cfg.log,
                    epoch.clone(),
                    device,
                    data.begin,
                    data.t2,
                    metrics.hlog.clone(),
                ),
            ),
            None => (
                HashIndex::with_metrics(cfg.index, epoch.clone(), metrics.index.clone()),
                HybridLog::with_metrics(cfg.log, epoch.clone(), device, metrics.hlog.clone()),
            ),
        };
        let rc = cfg.read_cache.map(|c| {
            HybridLog::with_metrics(
                c,
                epoch.clone(),
                faster_storage::NullDevice::new(),
                metrics.rc_log.clone(),
            )
        });
        let wal_log = wal.map(|(dev, wal_cfg)| {
            faster_wal::Wal::with_metrics(dev, wal_cfg, metrics.wal.clone())
        });
        let store = Self {
            inner: Arc::new(StoreInner {
                epoch,
                index,
                log,
                rc,
                functions,
                cfg,
                metrics,
                wal: std::sync::OnceLock::new(),
                health: health::HealthCell::new(),
                _marker: std::marker::PhantomData,
            }),
        };
        if let Some(w) = wal_log {
            let _ = store.inner.wal.set(w);
        }
        // The health cell follows the log's storage-fault stream
        // (quarantined pages, corrupt reads).
        let weak = Arc::downgrade(&store.inner);
        store.inner.log.set_fault_hook(move |fault| {
            if let Some(inner) = weak.upgrade() {
                inner.health.on_log_fault(fault);
            }
        });
        if let Some(rc_log) = &store.inner.rc {
            // Eviction hook: restore index entries to the primary-log
            // addresses before cache frames are recycled (Appendix D).
            let weak = Arc::downgrade(&store.inner);
            rc_log.set_eviction_hook(move |from, to| {
                if let Some(inner) = weak.upgrade() {
                    restore_evicted_entries::<K, V, F>(&inner, from, to);
                }
            });
        }
        if let Some(data) = recovery {
            store.replay(data.t1, data.t2);
        }
        store
    }

    /// Where the store sits on the degradation ladder (DESIGN.md §12).
    /// `Healthy` until a storage fault is observed; `ReadOnly` once new
    /// mutations can no longer be made durable — reads keep serving, and
    /// mutations return [`OpError::ReadOnly`].
    pub fn health(&self) -> StoreHealth {
        self.inner.health.get()
    }

    /// Registers the calling thread with the store (§2.5 `Acquire`). Drop the
    /// session to deregister (`Release`).
    pub fn start_session(&self) -> Session<K, V, F> {
        Session::new(self.clone())
    }

    /// The store's epoch framework.
    pub fn epoch(&self) -> &Epoch {
        &self.inner.epoch
    }

    /// The underlying hybrid log (markers, scan, GC).
    pub fn log(&self) -> &HybridLog {
        &self.inner.log
    }

    /// The hash index (size, resize status).
    pub fn index(&self) -> &HashIndex {
        &self.inner.index
    }

    /// User functions instance.
    pub fn functions(&self) -> &F {
        &self.inner.functions
    }

    /// The group-committed WAL, if this store runs with one (DESIGN.md §10).
    pub fn wal(&self) -> Option<&Arc<faster_wal::Wal>> {
        self.inner.wal.get()
    }

    /// The read cache's backing log, if the store has one (Appendix D). The
    /// maintenance service resizes the cache through its `set_active_pages`.
    pub fn read_cache_log(&self) -> Option<&HybridLog> {
        self.inner.rc.as_ref()
    }

    /// The store's configuration (as passed at construction).
    pub fn config(&self) -> &FasterKvConfig {
        &self.inner.cfg
    }

    /// The live metrics registry (per-layer counter groups). Most callers
    /// want [`FasterKv::metrics`] instead.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// Captures a [`StoreMetrics`] snapshot: every subsystem counter plus
    /// point-in-time gauges (epoch positions, log region boundaries, index
    /// geometry, device byte totals). Counters are exact at quiescence;
    /// under concurrency the snapshot is monotone but not a linearizable
    /// cut (DESIGN.md §8).
    pub fn metrics(&self) -> StoreMetrics {
        let inner = &self.inner;
        let mut m = inner.metrics.snapshot_counters(inner.rc.is_some());
        m.epoch.current = inner.epoch.current();
        m.epoch.safe = inner.epoch.safe();
        m.index.k_bits = inner.index.k_bits() as u64;
        m.index.buckets = 1u64 << inner.index.k_bits();
        m.index.resize_active =
            (inner.index.status().phase != faster_index::Phase::Stable) as u64;
        fill_hlog_gauges(&mut m.hlog, &inner.log);
        if let Some(rc) = &inner.rc {
            fill_hlog_gauges(&mut m.rc_log, rc);
        }
        let dev = inner.log.device().stats();
        m.storage.bytes_written = dev.bytes_written;
        m.storage.bytes_read = dev.bytes_read;
        m.storage.device_writes = dev.writes;
        m.storage.device_reads = dev.reads;
        let (state, reason) = inner.health.tokens();
        m.health.state = state;
        m.health.reason = reason;
        m
    }

    /// Record size of this store's fixed-size records.
    pub const fn record_size() -> usize {
        RecordRef::<K, V>::size()
    }

    /// Doubles the hash index on-line (Appendix B). Call from a thread that
    /// either owns `session` or no session; other sessions keep operating.
    pub fn grow_index(&self, session: Option<&Session<K, V, F>>) -> bool {
        let shim: Arc<dyn RecordAccess> = Arc::new(AccessShim { store: self.clone() });
        self.inner.index.grow(shim, session.map(|s| s.guard()))
    }

    /// Halves the hash index on-line (Appendix B).
    pub fn shrink_index(&self, session: Option<&Session<K, V, F>>) -> bool {
        let shim: Arc<dyn RecordAccess> = Arc::new(AccessShim { store: self.clone() });
        self.inner.index.shrink(shim, session.map(|s| s.guard()))
    }
}

/// Fills a snapshot's region-boundary gauges from a live log.
fn fill_hlog_gauges(s: &mut HlogSnapshot, log: &HybridLog) {
    s.begin = log.begin_address().raw();
    s.head = log.head_address().raw();
    s.safe_read_only = log.safe_read_only_address().raw();
    s.read_only = log.read_only_address().raw();
    s.flushed_until = log.flushed_until_address().raw();
    s.tail = log.tail_address().raw();
    s.active_pages = log.active_pages();
}

/// Eviction hook body: walk evicted read-cache pages and CAS each still-
/// tagged index entry back to the cached record's primary address.
fn restore_evicted_entries<K: Pod + Eq, V: Pod, F: Functions<K, V>>(
    inner: &StoreInner<K, V, F>,
    from: u64,
    to: u64,
) {
    let Some(rc) = &inner.rc else { return };
    let rec_size = RecordRef::<K, V>::size() as u64;
    let page_size = rc.config().page_size();
    let mut addr = from.max(Address::FIRST_VALID.raw());
    while addr + rec_size <= to {
        // Records never span pages; skip page-tail padding.
        if page_size - (addr & (page_size - 1)) < rec_size {
            addr = (addr & !(page_size - 1)) + page_size;
            continue;
        }
        // Safety: [from, to) is the eviction window the hook owns.
        let p = unsafe { rc.get_evicting(Address::new(addr)) };
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        let header = rec.header();
        if !header.is_live() {
            // Padding: rest of this page is empty.
            addr = (addr & !(page_size - 1)) + page_size;
            continue;
        }
        let hash = hash_key(&rec.key());
        if let Some(mut slot) = inner.index.find_tag(hash, None) {
            if slot.observed().address() == read_cache::rc_tag(Address::new(addr)) {
                // prev holds the primary-log address of the cached record.
                let _ = slot.cas_address(header.prev());
            }
        }
        addr += rec_size;
    }
}

/// Bridges the index resizer to this store's record layout (Appendix B:
/// migration walks record chains, re-hashes keys, and relinks).
struct AccessShim<K: Pod, V: Pod, F: Functions<K, V>> {
    store: FasterKv<K, V, F>,
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> RecordAccess for AccessShim<K, V, F> {
    fn record_hash(&self, addr: Address) -> Option<KeyHash> {
        if read_cache::is_rc(addr) {
            let rc = self.store.inner.rc.as_ref()?;
            let p = rc.get(read_cache::rc_untag(addr))?;
            let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
            return Some(KeyHash::new(faster_util::hash_bytes(faster_util::bytes_of(
                &rec.key(),
            ))));
        }
        if addr < self.store.inner.log.read_only_address() {
            // Sealed or flushed (even if still buffer-resident): migration
            // must not relink it — a rewrite would race the flush and be
            // lost on eviction. Treat as an opaque chain tail.
            return None;
        }
        let p = self.store.inner.log.get(addr)?;
        // Safety: addr came from a live chain; epoch rules keep it mapped.
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        if rec.header().is_merge() {
            // Merge meta-records have no key; treat as a chain boundary so
            // the resizer leaves the combined chain intact.
            return None;
        }
        Some(KeyHash::new(faster_util::hash_bytes(faster_util::bytes_of(&rec.key()))))
    }

    fn record_prev(&self, addr: Address) -> Address {
        let p = if read_cache::is_rc(addr) {
            self.store
                .inner
                .rc
                .as_ref()
                .and_then(|rc| rc.get(read_cache::rc_untag(addr)))
                .expect("resize walks resident records")
        } else {
            self.store.inner.log.get(addr).expect("resize walks resident records")
        };
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.header().prev()
    }

    fn set_record_prev(&self, addr: Address, prev: Address) {
        let p = self.store.inner.log.get(addr).expect("resize walks resident records");
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.set_prev(prev);
    }

    fn try_alloc_merge_meta(&self, guard: Option<&EpochGuard>) -> Option<Address> {
        // Fast path only: `try_allocate` never refreshes an epoch entry,
        // which is the resizer's contract — its walk→relink window depends
        // on the migrator's entry staying pinned. A temporary guard for the
        // seal bookkeeping (guardless migrators) is harmless: acquiring one
        // does not advance the migrator's own entry. Backpressure is NOT
        // relieved here — the resizer must abandon its window first.
        let own = if guard.is_none() { Some(self.store.inner.epoch.acquire()) } else { None };
        let guard = guard.or(own.as_ref()).expect("some guard");
        let size = record::MergeRecord::size::<K, V>() as u32;
        let addr = self.store.inner.log.try_allocate(size, guard)?;
        let p = self.store.inner.log.get(addr).expect("fresh tail allocation is resident");
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.init_header(record::RecordHeader::new(Address::INVALID).with(record::MERGE_BIT));
        unsafe { record::MergeRecord::set_second_address(p, Address::INVALID) };
        Some(addr)
    }

    fn set_merge_meta(&self, meta: Address, a: Address, b: Address) {
        let p = self.store.inner.log.get(meta).expect("merge meta is resident");
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.set_prev(a);
        unsafe { record::MergeRecord::set_second_address(p, b) };
    }
}

/// Hashes a key the way the store does everywhere (index, recovery, resize).
#[inline]
pub(crate) fn hash_key<K: Pod>(key: &K) -> KeyHash {
    KeyHash::of_pod(key)
}

#[cfg(test)]
mod tests;
