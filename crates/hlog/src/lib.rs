//! # faster-hlog
//!
//! **HybridLog** (§5–§6): a log-structured record allocator spanning main
//! memory and storage that supports latch-free in-place updates of the hot
//! tail, read-copy-update of the warm read-only region, and asynchronous
//! retrieval of cold records from storage.
//!
//! ## Logical address space (§5.1, Fig 4/5)
//!
//! Records live at 48-bit logical addresses. The *tail offset* points at the
//! next free address; the *head offset* tracks the lowest address resident in
//! the in-memory circular buffer of page frames. Between them, HybridLog adds
//! the *read-only offset* and — to defeat the lost-update anomaly of §6.2 —
//! the *safe read-only offset*, giving four regions:
//!
//! ```text
//!  begin      head      safe_ro        ro           tail
//!    |  disk   |  read-only  |  fuzzy   |  mutable   |
//! ```
//!
//! * **mutable** (`addr ≥ ro`): update in place, latch-free;
//! * **fuzzy** (`safe_ro ≤ addr < ro`): some threads may still believe the
//!   address is mutable — RMWs must go pending, blind updates may RCU (§6.3);
//! * **read-only** (`head ≤ addr < safe_ro`): immutable in memory; update via
//!   copy to tail (RCU); pages here flush to storage and become evictable;
//! * **disk** (`addr < head`): retrieve with an asynchronous device read.
//!
//! ## Maintenance is epoch-triggered (§5.2)
//!
//! Crossing a page boundary advances the read-only offset and announces, via
//! an epoch trigger action, the advance of the *safe* read-only offset —
//! which in turn issues page flushes. Flush completions raise the
//! flushed-until frontier, which allows the head offset to advance; the head
//! advance's trigger action marks frames closed for reuse. Log GC moves the
//! begin address the same way: new reads stop there at once, and its
//! trigger action truncates the device. No page is ever flushed while a
//! thread could still write it, and no frame or device byte is dropped
//! while a thread could still read it — all guaranteed by epoch safety, with
//! no page latches anywhere. Every such boundary moves through one
//! `HybridLog::shift`.
//!
//! ## The buffer is one region (§5.1)
//!
//! The circular buffer is one anonymous mapping of `buffer_pages × 2^F`
//! bytes ([`faster_util::Region`]): page `p` lives in the frame at
//! `(p mod buffer_pages) << F`, so locating a resident address is one mask
//! and one add. The kernel commits a frame when it is first touched — the
//! opener's zeroing of a fresh frame — so a store that never fills its
//! buffer never pays for the rest of it, and the region is mapped with
//! 2 MiB pages where the kernel allows.
//!
//! Setting the mutable fraction to zero yields exactly the append-only log
//! allocator of §5; setting it to one (with a large buffer) yields a pure
//! in-memory store. The same code path serves all three tables of Fig 1.

pub mod checksum;
mod flush;
pub mod scan;

pub use scan::LogScanner;

use checksum::ParsedFooter;
use faster_epoch::{Epoch, EpochGuard};
use faster_metrics::HlogMetrics;
use faster_storage::{CompletionRing, Cqe, Device, IoError, Sqe};
use faster_util::{Address, Backoff};
use flush::FlushTracker;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Flush attempts per page before the page is quarantined (mirrors the read
/// path's `MAX_IO_RETRIES` in the session pending-op machinery).
const MAX_FLUSH_RETRIES: u32 = 8;

/// A storage fault the log survived but the store layer must hear about
/// (see [`HybridLog::set_fault_hook`]).
#[derive(Debug, Clone)]
pub enum LogFault {
    /// A page flush exhausted its retry budget (or hit a permanent error
    /// such as device-full): the frontier advanced past the page so
    /// allocation never wedges, but its on-disk bytes are untrusted and
    /// reads of it return [`IoError::Corrupt`]. The store should stop
    /// accepting new mutations.
    PageQuarantined { page: u64, error: IoError },
    /// A cold read's bytes failed checksum verification at this logical
    /// address; the read returned [`IoError::Corrupt`] instead of data.
    CorruptRead { offset: u64 },
}

/// Callback invoked when the log detects a storage fault.
type FaultHook = Box<dyn Fn(&LogFault) + Send + Sync>;

/// Flush-machinery state for diagnosis: when the frontier stalls or jumps,
/// this names the pages responsible (satellite of the resilience work —
/// previously `FlushTracker`'s internals were `#[cfg(test)]`-only).
#[derive(Debug, Clone)]
pub struct FlushDebug {
    /// Next page whose completion would advance the contiguous frontier.
    pub frontier_page: u64,
    /// Pages completed out of order above the frontier; a stalled frontier
    /// means pages in `frontier_page..min(pending)` are still in flight.
    pub pending_above_frontier: Vec<u64>,
    /// Pages quarantined after flush-retry exhaustion (untrusted on disk).
    pub quarantined: Vec<u64>,
    /// Flush attempts currently in flight (including retry chains).
    pub inflight: u64,
}

/// Issue-time plan for a verified cold read (built by
/// [`HybridLog::make_read_sqe`]): the device span is group-aligned so the
/// returned bytes can be checked against the page's checksum footer before
/// the record is extracted. Opaque to callers — hold it next to the pending
/// op and hand it back to [`HybridLog::verify_extract`] with the CQE bytes.
#[derive(Debug)]
pub struct ReadSpan {
    page: u64,
    /// Page offset of the first byte read (group-aligned).
    span_start: u64,
    /// Record position within the returned bytes.
    rec_off: usize,
    rec_len: usize,
    /// Footer cached at issue time; `None` = the span extends through the
    /// on-disk footer (first cold read of a recovered page).
    footer: Option<Arc<ParsedFooter>>,
}

/// Which region of the hybrid log an address falls in (Table 1 / Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `addr >= read_only`: update in place.
    Mutable,
    /// `safe_read_only <= addr < read_only`: handle per update type (§6.3).
    Fuzzy,
    /// `head <= addr < safe_read_only`: immutable in memory; RCU to tail.
    ReadOnly,
    /// `addr < head`: issue an asynchronous I/O request.
    OnDisk,
}

/// Configuration of a [`HybridLog`].
#[derive(Debug, Clone, Copy)]
pub struct HLogConfig {
    /// Page size is `2^page_bits` bytes (the paper evaluates 4 MB = 22).
    pub page_bits: u32,
    /// Number of page frames in the circular buffer (power of two).
    pub buffer_pages: u64,
    /// Pages of lag between the tail and the read-only offset: the size of
    /// the mutable (in-place update, "IPU") region. `0` = append-only log
    /// (§5); `buffer_pages` = fully mutable / pure in-memory.
    pub mutable_pages: u64,
    /// I/O worker threads (informational; the device owns its own pool).
    pub io_threads: usize,
}

impl HLogConfig {
    /// A small configuration suitable for tests.
    pub fn small() -> Self {
        Self { page_bits: 16, buffer_pages: 8, mutable_pages: 6, io_threads: 2 }
    }

    /// Sets the mutable region from a fraction of the buffer (§6.4 talks of
    /// a 90:10 mutable:read-only split of memory).
    pub fn with_mutable_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.mutable_pages = ((self.buffer_pages as f64) * f).round() as u64;
        self
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        1 << self.page_bits
    }

    fn validate(&self) {
        assert!(self.page_bits >= 6 && self.page_bits <= 30, "page_bits in [6, 30]");
        assert!(self.buffer_pages.is_power_of_two(), "buffer_pages must be a power of two");
        assert!(self.buffer_pages >= 2, "need at least two frames");
        assert!(
            self.mutable_pages <= self.buffer_pages,
            "mutable region cannot exceed the buffer"
        );
    }
}

impl Default for HLogConfig {
    fn default() -> Self {
        // 1 MB pages, 64 MB buffer, 90% mutable.
        Self { page_bits: 20, buffer_pages: 64, mutable_pages: 58, io_threads: 2 }
    }
}

/// Frame lifecycle states.
const FRAME_CLOSED: u8 = 0; // reusable
const FRAME_OPENING: u8 = 1; // claimed, being zeroed
const FRAME_OPEN: u8 = 2; // holds a live page

/// Offset field of the packed tail word (low 32 bits; page in the high 32).
const OFFSET_BITS: u32 = 32;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// The log boundaries whose move invalidates something a reader may still
/// hold; each moves through [`HybridLog::shift`].
#[derive(Clone, Copy)]
enum Boundary {
    /// Reads below it are refused; the device bytes below it are dropped.
    Begin,
    /// Writes below it copy to the tail; the pages below it flush.
    ReadOnly,
    /// Reads below it go to storage; the frames below it are recycled.
    Head,
}

/// A snapshot of every log marker, in address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSnapshot {
    pub begin: Address,
    pub head: Address,
    pub flushed_until: Address,
    pub safe_read_only: Address,
    pub read_only: Address,
    pub tail: Address,
}

struct Inner {
    cfg: HLogConfig,
    epoch: Epoch,
    device: Arc<dyn Device>,
    /// The circular buffer: `buffer_pages` frames of `page_size` bytes, back
    /// to back in one region, so page `p`'s frame starts at
    /// `(p mod buffer_pages) << page_bits`. Frames are committed on first
    /// touch (see [`faster_util::region`]).
    buffer: faster_util::Region,
    frame_status: Vec<AtomicU8>,
    /// Packed (page << 32 | offset) tail.
    tail: AtomicU64,
    read_only: AtomicU64,
    safe_read_only: AtomicU64,
    head: AtomicU64,
    flushed_until: AtomicU64,
    begin: AtomicU64,
    /// Page-flush device writes that completed with an error. The frontier
    /// never advances past a failed flush; this counter lets the checkpoint
    /// path additionally *detect* the failure (an untracked partial-page
    /// flush stalls nothing, so the counter is the only signal it failed).
    flush_failures: AtomicU64,
    /// In-memory page budget currently allowed, in `[2, cfg.buffer_pages]`.
    /// Starts at `cfg.buffer_pages`; the maintenance service shrinks it to
    /// give memory back (head advances sooner, frames evict earlier) and
    /// grows it again when the workload wants residency. Frames are never
    /// deallocated — this only moves the head/read-only targets.
    active_pages: AtomicU64,
    /// Highest page whose seal actions (read-only/head advance) have run.
    sealed_through: AtomicU64,
    flush_tracker: Mutex<FlushTracker>,
    /// Flush attempts in flight, counting retry chains until their terminal
    /// outcome (success or quarantine). `wait_flush_quiesced` spins on zero
    /// so a durability barrier can't be satisfied under a live retry chain.
    flush_inflight: AtomicU64,
    /// Destination of every page-write CQE. Its waker ([`Inner::reap_flushes`])
    /// consumes them on the thread that published them.
    flush_ring: Arc<CompletionRing>,
    /// Page writes submitted and not yet reaped, by SQE id.
    flush_ops: Mutex<FlushOps>,
    /// Pages whose flush was abandoned: their device bytes are untrusted,
    /// reads of them short-circuit to [`IoError::Corrupt`].
    quarantined: Mutex<BTreeSet<u64>>,
    /// Parsed checksum footers of flushed pages, so record-sized cold reads
    /// verify without re-reading the footer (populated at flush issue and on
    /// first cold read of a recovered page; evicted below `begin`). Costs
    /// ~`footer_len/stride` (≈1.6% for 4 MB pages) of the on-disk log in RAM.
    footers: Mutex<HashMap<u64, Arc<ParsedFooter>>>,
    /// Called when the log detects a storage fault (quarantine, corruption).
    fault_hook: Mutex<Option<FaultHook>>,
    /// Called with an address range `[from, to)` after the head passed it
    /// (epoch-safe: no thread can still read it) and before its frames are
    /// recycled. Used by the Appendix D read cache to restore index entries
    /// for evicted cache records.
    evict_hook: Mutex<Option<EvictHook>>,
    metrics: Arc<HlogMetrics>,
}

/// Callback invoked as pages leave the buffer (see `set_evict_hook`).
type EvictHook = Box<dyn Fn(u64, u64) + Send + Sync>;

/// One submitted page write: what `flush_page_attempt` was called with.
struct FlushOp {
    page: u64,
    track: bool,
    sealed: u64,
    attempt: u32,
}

#[derive(Default)]
struct FlushOps {
    next_id: u64,
    submitted: HashMap<u64, FlushOp>,
}

/// The hybrid log allocator. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct HybridLog {
    inner: Arc<Inner>,
}

impl HybridLog {
    /// Creates a log over `device`, coordinated by `epoch`, with a private
    /// metrics group.
    pub fn new(cfg: HLogConfig, epoch: Epoch, device: Arc<dyn Device>) -> Self {
        Self::with_metrics(cfg, epoch, device, Arc::new(HlogMetrics::default()))
    }

    /// Like [`HybridLog::new`], but events are recorded into the caller's
    /// shared metrics group (the store's registry).
    pub fn with_metrics(
        cfg: HLogConfig,
        epoch: Epoch,
        device: Arc<dyn Device>,
        metrics: Arc<HlogMetrics>,
    ) -> Self {
        let first = Address::FIRST_VALID.raw();
        Self::open(cfg, epoch, device, metrics, first, 0, first) // page 0, offset 64
    }

    /// Re-opens a log whose prefix `[begin, tail)` already lives on `device`
    /// (recovery, §6.5). The in-memory buffer restarts empty at the next page
    /// boundary at/after `tail`.
    pub fn recover(cfg: HLogConfig, epoch: Epoch, device: Arc<dyn Device>, begin: Address, tail: Address) -> Self {
        Self::recover_with_metrics(cfg, epoch, device, begin, tail, Arc::new(HlogMetrics::default()))
    }

    /// Like [`HybridLog::recover`], but with a shared metrics group.
    pub fn recover_with_metrics(
        cfg: HLogConfig,
        epoch: Epoch,
        device: Arc<dyn Device>,
        begin: Address,
        tail: Address,
        metrics: Arc<HlogMetrics>,
    ) -> Self {
        // Resume at a fresh page: everything below is disk-resident.
        let resume_page = tail.raw().div_ceil(cfg.page_size());
        Self::open(cfg, epoch, device, metrics, begin.raw(), resume_page, resume_page << OFFSET_BITS)
    }

    /// A log whose buffer starts empty at `resume_page` with the packed
    /// tail word `tail`; everything below that page is on `device`.
    fn open(
        cfg: HLogConfig,
        epoch: Epoch,
        device: Arc<dyn Device>,
        metrics: Arc<HlogMetrics>,
        begin: u64,
        resume_page: u64,
        tail: u64,
    ) -> Self {
        cfg.validate();
        let resume = resume_page * cfg.page_size();
        let buffer = faster_util::Region::new((cfg.buffer_pages << cfg.page_bits) as usize);
        let frame_status: Vec<AtomicU8> = (0..cfg.buffer_pages)
            .map(|i| {
                AtomicU8::new(if i == resume_page % cfg.buffer_pages { FRAME_OPEN } else { FRAME_CLOSED })
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg,
            epoch,
            device,
            buffer,
            frame_status,
            tail: AtomicU64::new(tail),
            read_only: AtomicU64::new(resume),
            safe_read_only: AtomicU64::new(resume),
            head: AtomicU64::new(resume),
            flushed_until: AtomicU64::new(resume),
            begin: AtomicU64::new(begin),
            flush_failures: AtomicU64::new(0),
            active_pages: AtomicU64::new(cfg.buffer_pages),
            sealed_through: AtomicU64::new(resume_page),
            flush_tracker: Mutex::new(FlushTracker::new(resume_page)),
            flush_inflight: AtomicU64::new(0),
            flush_ring: Arc::new(CompletionRing::new()),
            flush_ops: Mutex::new(FlushOps::default()),
            quarantined: Mutex::new(BTreeSet::new()),
            footers: Mutex::new(HashMap::new()),
            fault_hook: Mutex::new(None),
            evict_hook: Mutex::new(None),
            metrics,
        });
        // Weak: the ring is owned by `inner`, so a strong handle in its
        // waker would keep the log alive forever.
        let weak = Arc::downgrade(&inner);
        inner.flush_ring.set_waker(move || {
            if let Some(inner) = weak.upgrade() {
                inner.reap_flushes();
            }
        });
        Self { inner }
    }

    /// The metrics group this log records into.
    pub fn metrics(&self) -> &Arc<HlogMetrics> {
        &self.inner.metrics
    }

    /// The log's configuration.
    pub fn config(&self) -> &HLogConfig {
        &self.inner.cfg
    }

    /// The coordinating epoch framework.
    pub fn epoch(&self) -> &Epoch {
        &self.inner.epoch
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.inner.device
    }

    // ------------------------------------------------------------ markers --

    /// Next address to be allocated.
    pub fn tail_address(&self) -> Address {
        let t = self.inner.tail.load(Ordering::SeqCst);
        let page = t >> OFFSET_BITS;
        let offset = (t & OFFSET_MASK).min(self.inner.cfg.page_size());
        Address::new(page * self.inner.cfg.page_size() + offset)
    }

    /// The read-only offset (start of the mutable region).
    pub fn read_only_address(&self) -> Address {
        Address::new(self.inner.read_only.load(Ordering::SeqCst))
    }

    /// The safe read-only offset: the read-only offset every thread has seen
    /// (§6.2). Start of the fuzzy region.
    pub fn safe_read_only_address(&self) -> Address {
        Address::new(self.inner.safe_read_only.load(Ordering::SeqCst))
    }

    /// Lowest address resident in memory.
    pub fn head_address(&self) -> Address {
        Address::new(self.inner.head.load(Ordering::SeqCst))
    }

    /// Contiguous flush frontier: everything below is durable.
    pub fn flushed_until_address(&self) -> Address {
        Address::new(self.inner.flushed_until.load(Ordering::SeqCst))
    }

    /// Count of *terminal* flush failures: pages quarantined after retry
    /// exhaustion, plus failed flush barriers. Transient faults whose retry
    /// landed are excluded — they feed the `flushes_failed` metric only.
    /// Monotone; the checkpoint path compares before/after snapshots to
    /// detect durability actually lost inside its window.
    pub fn flush_failures(&self) -> u64 {
        self.inner.flush_failures.load(Ordering::SeqCst)
    }

    /// Earliest valid address (raised by log GC, Appendix C).
    pub fn begin_address(&self) -> Address {
        Address::new(self.inner.begin.load(Ordering::SeqCst))
    }

    /// All markers at once.
    pub fn regions(&self) -> RegionSnapshot {
        RegionSnapshot {
            begin: self.begin_address(),
            head: self.head_address(),
            flushed_until: self.flushed_until_address(),
            safe_read_only: self.safe_read_only_address(),
            read_only: self.read_only_address(),
            tail: self.tail_address(),
        }
    }

    /// Start of the in-place-updatable region as seen by update operations.
    ///
    /// Normally the read-only offset; in the pure append-only configuration
    /// (`mutable_pages == 0`, the §5 allocator) it is the tail itself, so no
    /// existing record is ever updated in place — even on the still-open
    /// tail page.
    #[inline]
    pub fn ipu_boundary(&self) -> Address {
        if self.inner.cfg.mutable_pages == 0 {
            self.tail_address()
        } else {
            Address::new(self.inner.read_only.load(Ordering::SeqCst))
        }
    }

    /// Start of the fuzzy region as seen by operations (the safe read-only
    /// offset, or the tail in append-only mode where no fuzzy region exists).
    #[inline]
    pub fn safe_ipu_boundary(&self) -> Address {
        if self.inner.cfg.mutable_pages == 0 {
            self.tail_address()
        } else {
            Address::new(self.inner.safe_read_only.load(Ordering::SeqCst))
        }
    }

    /// Classifies `addr` per the HybridLog update scheme (Tables 1 and 2).
    #[inline]
    pub fn classify(&self, addr: Address) -> Region {
        let a = addr.raw();
        if a >= self.ipu_boundary().raw() {
            Region::Mutable
        } else if a >= self.safe_ipu_boundary().raw() {
            Region::Fuzzy
        } else if a >= self.inner.head.load(Ordering::SeqCst) {
            Region::ReadOnly
        } else {
            Region::OnDisk
        }
    }

    // ----------------------------------------------------------- allocate --

    /// Allocates `size` bytes at the tail (Alg 1). Returns `None` when the
    /// allocation cannot proceed yet (new page's frame still flushing or
    /// evicting) — the caller must `refresh()` its epoch and retry, which is
    /// exactly what lets the blocking maintenance triggers fire.
    pub fn try_allocate(&self, size: u32, guard: &EpochGuard) -> Option<Address> {
        let inner = &*self.inner;
        let size = size as u64;
        debug_assert!(size > 0 && size.is_multiple_of(8), "record sizes are 8-byte aligned");
        assert!(size <= inner.cfg.page_size(), "allocation exceeds page size");
        let old = inner.tail.fetch_add(size, Ordering::SeqCst);
        let page = old >> OFFSET_BITS;
        let offset = old & OFFSET_MASK;
        if offset + size <= inner.cfg.page_size() {
            inner.metrics.appends.inc();
            return Some(Address::new(page * inner.cfg.page_size() + offset));
        }
        // Overflow: run the (exactly-once) seal actions for this page, then
        // try to open the next page; succeed or not, the caller retries.
        inner.metrics.alloc_retries.inc();
        self.seal_page(page, Some(guard));
        self.try_open_page(page);
        None
    }

    /// Allocates `size` bytes, refreshing the guard while the log catches up
    /// on flush/eviction. This is the `BlockAllocate` loop of the C++ code.
    pub fn allocate(&self, size: u32, guard: &EpochGuard) -> Address {
        loop {
            if let Some(a) = self.try_allocate(size, guard) {
                return a;
            }
            guard.refresh();
            std::hint::spin_loop();
        }
    }

    /// Runs the page-boundary maintenance for `page` exactly once: advance
    /// the read-only offset (with its safe-read-only trigger) and the head
    /// offset (with its frame-close trigger).
    fn seal_page(&self, page: u64, guard: Option<&EpochGuard>) {
        let inner = &*self.inner;
        if inner
            .sealed_through
            .compare_exchange(page, page + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // someone else sealed it (or it's already sealed)
        }
        inner.metrics.page_seals.inc();
        let new_tail_page = page + 1;
        // Advance the read-only offset to maintain the mutable-region lag.
        // The lag never exceeds the active residency budget: a shrunk buffer
        // must be able to seal/flush pages early enough to evict them.
        let active = inner.active_pages.load(Ordering::SeqCst);
        let ro_lag = active.min(inner.cfg.mutable_pages);
        if new_tail_page > ro_lag {
            self.shift(Boundary::ReadOnly, (new_tail_page - ro_lag) * inner.cfg.page_size(), guard);
        }
        self.maybe_advance_head(guard);
    }

    /// Advances the head offset toward `tail_page + 1 - buffer_pages`, capped
    /// by the flushed frontier (§5.2: never evict an unflushed page); its
    /// frames close once every thread has seen the move.
    fn maybe_advance_head(&self, guard: Option<&EpochGuard>) {
        let inner = &*self.inner;
        // Target residency for the *incoming* page (tail_page + 1): frames
        // for pages [head_page, tail_page + 1] must fit in the buffer.
        let tail_page = inner.tail.load(Ordering::SeqCst) >> OFFSET_BITS;
        let active = inner.active_pages.load(Ordering::SeqCst).clamp(2, inner.cfg.buffer_pages);
        let needed = (tail_page + 2).saturating_sub(active);
        if needed == 0 {
            return;
        }
        let desired = (needed * inner.cfg.page_size()).min(inner.flushed_until.load(Ordering::SeqCst));
        self.shift(Boundary::Head, desired, guard);
    }

    /// Moves boundary `b` up to `to` (§2.4, §5.2): the new value is
    /// published at once, so operations that start now see it, and what the
    /// move invalidates is dropped by an epoch trigger action, once every
    /// thread has seen it. A caller that holds a guard passes it: if the
    /// drain list is full, the bump refreshes that guard, so the caller's own
    /// stale entry cannot wedge it. Returns the boundary's previous value.
    fn shift(&self, b: Boundary, to: u64, guard: Option<&EpochGuard>) -> u64 {
        let inner = &*self.inner;
        let cell = match b {
            Boundary::Begin => &inner.begin,
            Boundary::ReadOnly => &inner.read_only,
            Boundary::Head => &inner.head,
        };
        let from = cell.fetch_max(to, Ordering::SeqCst);
        if to <= from {
            return from;
        }
        // Weak: `inner` holds the epoch whose drain list holds the action,
        // so a strong handle would keep the log alive forever.
        let weak = Arc::downgrade(&self.inner);
        let action = move || {
            let Some(inner) = weak.upgrade() else { return };
            match b {
                Boundary::Begin => inner.truncate(to),
                Boundary::ReadOnly => Inner::update_safe_ro(&inner, to),
                Boundary::Head => inner.close_frames(from, to),
            }
        };
        match guard {
            Some(g) => g.bump_with(action),
            None => inner.epoch.bump_with(action),
        }
        from
    }

    /// Attempts to open `page + 1`'s frame and flip the tail to it.
    fn try_open_page(&self, page: u64) {
        let inner = &*self.inner;
        let next = page + 1;
        if inner.tail.load(Ordering::SeqCst) >> OFFSET_BITS != page {
            return; // stale caller: the tail has already moved on
        }
        let fidx = inner.frame_index(next);
        if inner.frame_status[fidx]
            .compare_exchange(FRAME_CLOSED, FRAME_OPENING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // frame busy (another opener, or not yet evictable)
        }
        // Re-verify under the Opening claim: only the holder of this claim
        // can flip page -> page+1, so a stale claim is detectable.
        if inner.tail.load(Ordering::SeqCst) >> OFFSET_BITS != page {
            inner.frame_status[fidx].store(FRAME_CLOSED, Ordering::SeqCst);
            return;
        }
        let frame = inner.at(next << inner.cfg.page_bits);
        // SAFETY: the frame is `page_size` bytes inside the live buffer, and
        // the Opening claim gives this thread exclusive access to it: the
        // head has passed its old page (no reader) and the tail has not
        // reached its new one (no writer). On a frame no page has used yet,
        // this is the first touch that commits it.
        unsafe { std::ptr::write_bytes(frame, 0, inner.cfg.page_size() as usize) };
        inner.frame_status[fidx].store(FRAME_OPEN, Ordering::SeqCst);
        // Flip the tail to (next, 0). Concurrent fetch_adds only bump the
        // offset field, so retry until the CAS lands.
        loop {
            let cur = inner.tail.load(Ordering::SeqCst);
            if cur >> OFFSET_BITS != page {
                break; // already flipped (should not happen: we own Opening)
            }
            if inner
                .tail
                .compare_exchange(cur, next << OFFSET_BITS, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
    }

    // ------------------------------------------------------------- access --

    /// Raw pointer to the record bytes at `addr`, if resident in memory.
    ///
    /// # Safety contract for callers
    ///
    /// The returned pointer is valid until the caller's epoch guard is
    /// refreshed or dropped (§4: "A thread has guaranteed access to the
    /// memory location of a record, as long as it does not refresh its
    /// epoch"). Concurrent readers/writers of the same record must be
    /// coordinated by the caller's record-level logic.
    #[inline]
    pub fn get(&self, addr: Address) -> Option<*mut u8> {
        let inner = &*self.inner;
        let a = addr.raw();
        if a < inner.head.load(Ordering::SeqCst) || addr >= self.tail_address() {
            return None;
        }
        Some(inner.at(a))
    }

    /// Issues a software prefetch for the record at `addr` if it is resident
    /// in the buffer. Stage two of the batched pipeline (DESIGN.md §3): once
    /// a batch's index probes resolve, every record address is prefetched
    /// before the first record header is dereferenced, so the record-line
    /// misses overlap. Purely a hint — safe to call with any address; below
    /// head or beyond tail it does nothing.
    #[inline]
    pub fn prefetch(&self, addr: Address) {
        if let Some(p) = self.get(addr) {
            faster_util::prefetch_read(p as *const u8);
        }
    }

    /// Reads `len` bytes at `addr` from storage, verified, parking until
    /// they arrive (§5.3: "Being a record log, we retrieve only the record
    /// and not the entire logical page"). For maintenance paths (scan, gc,
    /// history) that have nothing to overlap the read with.
    pub fn read_blocking(&self, addr: Address, len: usize) -> Result<Vec<u8>, IoError> {
        let res = self.plan_cold_read(addr, len).and_then(|(phys, read_len, span)| {
            self.inner.verify_extract(&span, self.inner.device.read_blocking(phys, read_len)?)
        });
        self.inner.metrics.reads_completed.inc();
        res
    }

    /// Builds a read SQE for `addr` (the continuation-driven pending-op
    /// path): the CQE echoing `id` lands in `ring` once the device services
    /// it, and the returned [`ReadSpan`] must be handed to
    /// [`HybridLog::verify_extract`] with the CQE bytes. A read below the
    /// begin address (Truncated) or into a quarantined page (Corrupt)
    /// short-circuits — the error CQE is pushed into `ring` immediately and
    /// no SQE is returned. Either way `reads_issued` is counted here; the
    /// reaper owns the matching `reads_completed` increment.
    pub fn make_read_sqe(
        &self,
        id: u64,
        addr: Address,
        len: usize,
        ring: &Arc<CompletionRing>,
    ) -> Option<(Sqe, ReadSpan)> {
        match self.plan_cold_read(addr, len) {
            Ok((phys, read_len, span)) => Some((Sqe::read(id, phys, read_len, ring), span)),
            Err(err) => {
                ring.push(Cqe { id, result: Err(err) });
                None
            }
        }
    }

    /// Counts a cold read as issued, refuses it if `addr` is below the begin
    /// address or on a quarantined page, and otherwise plans its device span.
    fn plan_cold_read(&self, addr: Address, len: usize) -> Result<(u64, usize, ReadSpan), IoError> {
        self.inner.metrics.reads_issued.inc();
        if addr < self.begin_address() {
            return Err(IoError::Truncated { offset: addr.raw() });
        }
        if self.inner.is_quarantined(addr.raw() / self.inner.cfg.page_size()) {
            self.inner.note_corrupt_read(addr.raw());
            return Err(IoError::Corrupt { offset: addr.raw() });
        }
        Ok(self.inner.plan_read(addr.raw(), len))
    }

    /// Verifies a completed cold read's bytes against the page's checksum
    /// footer (per the plan built at issue time) and extracts the record
    /// bytes. Returns [`IoError::Corrupt`] on any covered-group mismatch —
    /// corrupted device bytes are never handed to a continuation.
    pub fn verify_extract(&self, span: &ReadSpan, bytes: Vec<u8>) -> Result<Vec<u8>, IoError> {
        self.inner.verify_extract(span, bytes)
    }

    /// Installs the storage-fault hook: called when a page is quarantined
    /// or a cold read fails verification. Call before traffic; later
    /// installs only see future faults.
    pub fn set_fault_hook<H: Fn(&LogFault) + Send + Sync + 'static>(&self, hook: H) {
        *self.inner.fault_hook.lock() = Some(Box::new(hook));
    }

    /// Flush-machinery diagnosis: the contiguous frontier page, the
    /// out-of-order completions above it (a stalled frontier names its
    /// blocking pages), quarantined pages, and in-flight attempts.
    pub fn flush_debug(&self) -> FlushDebug {
        let (frontier_page, pending_above_frontier) = {
            let t = self.inner.flush_tracker.lock();
            (t.frontier(), t.pending_above_frontier())
        };
        FlushDebug {
            frontier_page,
            pending_above_frontier,
            quarantined: self.inner.quarantined.lock().iter().copied().collect(),
            inflight: self.inner.flush_inflight.load(Ordering::SeqCst),
        }
    }

    /// Blocks until no flush attempt — including retry chains — is in
    /// flight. Retry budgets are bounded, so this terminates even on a dead
    /// device. Durability protocols must call this before their flush
    /// barrier: a barrier only covers writes already submitted, and a retry
    /// chain re-submits *after* a barrier it raced with.
    pub fn wait_flush_quiesced(&self) {
        let mut pace = Backoff::new();
        while self.inner.flush_inflight.load(Ordering::SeqCst) != 0 {
            pace.snooze();
        }
    }

    /// Installs the eviction hook (see `Inner::close_frames`). Call before
    /// any traffic; later installs only affect future evictions.
    pub fn set_eviction_hook<H: Fn(u64, u64) + Send + Sync + 'static>(&self, hook: H) {
        *self.inner.evict_hook.lock() = Some(Box::new(hook));
    }

    /// Raw pointer to `addr`'s bytes during the eviction window.
    ///
    /// # Safety
    ///
    /// Only callable from inside an eviction hook, for addresses within the
    /// hook's `[from, to)` range: those frames are past the head (no reader
    /// can race) but not yet recycled.
    pub unsafe fn get_evicting(&self, addr: Address) -> *mut u8 {
        self.inner.at(addr.raw())
    }

    // -------------------------------------------------------- maintenance --

    /// Blocks until every issued page flush has completed on the device and
    /// is durable. A barrier failure means durability of already-acked page
    /// writes is unknown; it is latched into [`HybridLog::flush_failures`]
    /// (and the metrics counter), so a checkpoint that samples the counter
    /// around its flush also observes it.
    pub fn flush_barrier(&self) -> Result<(), faster_storage::IoError> {
        let res = self.inner.device.flush_barrier();
        if res.is_err() {
            self.inner.flush_failures.fetch_add(1, Ordering::SeqCst);
            self.inner.metrics.flushes_failed.inc();
        }
        res
    }

    /// Forces the read-only offset up to the current tail and returns it
    /// (checkpoint path, §6.5; also the §7.3 sequential-bandwidth
    /// experiment). The pages below it flush once every thread has seen the
    /// move, which a caller awaits as `safe_read_only_address` reaching the
    /// returned tail. `guard` is the caller's own, if it holds one.
    pub fn shift_read_only_to_tail(&self, guard: Option<&EpochGuard>) -> Address {
        let tail = self.tail_address();
        self.shift(Boundary::ReadOnly, tail.raw(), guard);
        tail
    }

    /// Garbage collection by expiration (Appendix C): drops all log content
    /// below `addr`. The begin address moves at once: reads that reach below
    /// it from now on fail with [`IoError::Truncated`], which the store
    /// layer answers by re-probing the key's index entry. The device bytes,
    /// footers and quarantine marks below it go once every thread has seen
    /// the move, so a read that passed the begin check before it still
    /// finds its bytes. `guard` is the caller's own, if it holds one.
    pub fn shift_begin_address(&self, addr: Address, guard: Option<&EpochGuard>) {
        let from = self.shift(Boundary::Begin, addr.raw(), guard);
        self.inner.metrics.bytes_truncated.add(addr.raw().saturating_sub(from));
    }

    /// Reports `bytes` of log content made dead by the store layer (a record
    /// superseded by RCU, shadowed by a tombstone, or abandoned after a lost
    /// insert race). Feeds the `dead_bytes` counter the maintenance policy
    /// uses to estimate reclaimable space (`dead_bytes - bytes_truncated`).
    pub fn note_dead_bytes(&self, bytes: u64) {
        self.inner.metrics.dead_bytes.add(bytes);
    }

    /// Current in-memory residency budget in pages (≤ `config().buffer_pages`).
    pub fn active_pages(&self) -> u64 {
        self.inner.active_pages.load(Ordering::SeqCst)
    }

    /// Adjusts the in-memory residency budget. `pages` is clamped to
    /// `[2, config().buffer_pages]`; frames beyond the budget are evicted as
    /// the head advances (shrinking is asynchronous — it takes effect as the
    /// flush frontier allows). Growing takes effect lazily as new pages open.
    pub fn set_active_pages(&self, pages: u64) -> u64 {
        let clamped = pages.clamp(2, self.inner.cfg.buffer_pages);
        self.inner.active_pages.store(clamped, Ordering::SeqCst);
        // A shrink should bite without waiting for the next page seal.
        self.maybe_advance_head(None);
        clamped
    }

    /// Copies a full page image, from memory if resident, otherwise from the
    /// device (blocking, checksum-verified). Used by the log scanner
    /// (Appendix F).
    pub fn page_image(&self, page: u64) -> Result<Vec<u8>, IoError> {
        let inner = &*self.inner;
        let page_size = inner.cfg.page_size();
        let start = page * page_size;
        if start >= inner.head.load(Ordering::SeqCst)
            && start < self.tail_address().raw()
        {
            return Ok(inner.copy_frame(page));
        }
        if inner.is_quarantined(page) {
            inner.note_corrupt_read(start);
            return Err(IoError::Corrupt { offset: start });
        }
        // Read the full stride (data + footer) so the image verifies in one
        // round trip even when the footer isn't cached.
        let mut bytes =
            inner.device.read_blocking(page * inner.stride(), inner.stride() as usize)?;
        let g = checksum::group_size(page_size);
        // Bind the cache probe first: a `match` on the locked temporary
        // would hold the guard across the arm that re-locks to insert.
        let cached = inner.footers.lock().get(&page).cloned();
        let footer = match cached {
            Some(f) => Some(f),
            None => bytes
                .get(page_size as usize..)
                .and_then(|fb| checksum::parse(page, page_size, fb))
                .map(|p| {
                    let p = Arc::new(p);
                    inner.footers.lock().insert(page, Arc::clone(&p));
                    p
                }),
        };
        if let Some(f) = footer {
            for gi in 0..checksum::group_count(page_size) as usize {
                if !f.covers(gi, g) {
                    continue;
                }
                let lo = gi * g as usize;
                if faster_util::hash_bytes(&bytes[lo..lo + g as usize]) != f.sums[gi] {
                    let offset = start + (gi as u64) * g;
                    inner.note_corrupt_read(offset);
                    return Err(IoError::Corrupt { offset });
                }
            }
        }
        bytes.truncate(page_size as usize);
        Ok(bytes)
    }
}

impl Inner {
    /// The frame slot `page` occupies in the circular buffer.
    #[inline]
    fn frame_index(&self, page: u64) -> usize {
        (page & (self.cfg.buffer_pages - 1)) as usize
    }

    /// Where logical address `a` lives in the buffer: the buffer is
    /// `buffer_pages << page_bits` bytes, a power of two, so page `p`'s frame
    /// starts at `(p & (buffer_pages - 1)) << page_bits` and `a` maps to
    /// `a & (buffer_bytes - 1)`. Whether `a`'s page is the one resident in
    /// that frame is the caller's check.
    #[inline]
    fn at(&self, a: u64) -> *mut u8 {
        let mask = (self.cfg.buffer_pages << self.cfg.page_bits) - 1;
        // SAFETY: the masked offset is below the buffer's length, and the
        // region lives as long as `self`, so the pointer is in bounds. Using
        // it is the caller's business: it stays valid while `self` does, and
        // the epoch protects which page the frame holds (§4).
        unsafe { self.buffer.as_ptr().add((a & mask) as usize) }
    }

    /// Copies `page`'s frame out (the flush path and the scanner; a flushed
    /// page is immutable by then, see §5.2).
    fn copy_frame(&self, page: u64) -> Vec<u8> {
        let frame = self.at(page << self.cfg.page_bits);
        // SAFETY: the frame is `page_size` bytes inside the live buffer, all
        // initialised (the region maps zeroed pages).
        unsafe { std::slice::from_raw_parts(frame, self.cfg.page_size() as usize) }.to_vec()
    }

    /// Epoch trigger: advance the safe read-only offset and flush the pages
    /// that just became immutable-to-everyone (Alg 1 `update_safe_ro`).
    fn update_safe_ro(self: &Arc<Inner>, new: u64) {
        let old = self.safe_read_only.fetch_max(new, Ordering::SeqCst);
        if new <= old {
            return;
        }
        let page_size = self.cfg.page_size();
        // Full pages advance the flush frontier; a trailing partial page
        // (checkpoint path: read-only shifted to a mid-page tail) is written
        // for durability but does not advance the frontier — it will be
        // re-flushed in full when the page fills. `sealed` records how much
        // of the frame snapshot is immutable, bounding what the checksum
        // footer covers (see the `checksum` module docs).
        for page in (old / page_size)..(new / page_size) {
            self.flush_page(page, true, page_size);
        }
        if !new.is_multiple_of(page_size) {
            self.flush_page(new / page_size, false, new % page_size);
        }
    }

    /// Issues the asynchronous flush of `page` (§5.2). When `track` is set,
    /// completion advances the flushed-until frontier. `sealed` is the
    /// immutable (safe-read-only-covered) prefix of the page in bytes.
    fn flush_page(self: &Arc<Inner>, page: u64, track: bool, sealed: u64) {
        self.flush_inflight.fetch_add(1, Ordering::SeqCst);
        self.flush_page_attempt(page, track, sealed, 0);
    }

    /// One flush attempt. Transient device errors re-submit with `Backoff`
    /// pacing up to [`MAX_FLUSH_RETRIES`]; budget exhaustion (or a permanent
    /// error such as device-full) quarantines the page instead of wedging
    /// the frontier. The frame is re-snapshotted per attempt — sealed bytes
    /// are immutable, so every attempt agrees on the bytes the footer covers.
    fn flush_page_attempt(self: &Arc<Inner>, page: u64, track: bool, sealed: u64, attempt: u32) {
        if attempt > 0 {
            self.metrics.flush_retries.inc();
            let mut pace = Backoff::new();
            for _ in 0..attempt {
                pace.snooze();
            }
        }
        let mut data = self.copy_frame(page);
        let (footer, parsed) = checksum::build(page, sealed, &data);
        self.footers.lock().insert(page, Arc::new(parsed));
        data.extend_from_slice(&footer);
        self.metrics.flushes_issued.inc();
        let id = {
            let mut ops = self.flush_ops.lock();
            ops.next_id += 1;
            let id = ops.next_id;
            ops.submitted.insert(id, FlushOp { page, track, sealed, attempt });
            id
        };
        self.device.submit(Sqe::write(id, page * self.stride(), data, &self.flush_ring));
    }

    /// Waker of `flush_ring`: consumes page-write CQEs on the thread that
    /// published them. On a pooled device that is an I/O worker, inside its
    /// pool job — so the frontier has moved before the device's barrier
    /// returns, and `flush_complete`'s guardless epoch bump never runs under
    /// a session's guard, whose stale entry could wedge a full drain list.
    /// A device that completes inline (or refuses inline, like a scripted
    /// fault) runs it on the submitter, and a retry issued from here may
    /// re-enter it. Concurrent calls reap disjoint batches; `flush_complete`
    /// serialises on `flush_tracker`.
    fn reap_flushes(self: &Arc<Inner>) {
        let mut cqes = Vec::new();
        self.flush_ring.reap(&mut cqes);
        for Cqe { id, result } in cqes {
            let FlushOp { page, track, sealed, attempt } =
                self.flush_ops.lock().submitted.remove(&id).expect("CQE of a submitted page write");
            match result {
                Ok(_) => {
                    self.metrics.flushes_completed.inc();
                    if track {
                        self.flush_complete(page);
                    }
                    self.flush_inflight.fetch_sub(1, Ordering::SeqCst);
                }
                // Failed attempts feed the `flushes_failed` metric but NOT
                // `flush_failures`: a transient fault whose retry lands
                // leaves the device bytes intact, and a checkpoint
                // quiesces before sampling, so only *terminal* outcomes
                // (quarantine, barrier failure) may poison its durability
                // window.
                Err(err) => {
                    self.metrics.flushes_failed.inc();
                    let transient = matches!(err, IoError::Failed(_));
                    if transient && attempt + 1 < MAX_FLUSH_RETRIES {
                        self.flush_page_attempt(page, track, sealed, attempt + 1);
                    } else {
                        self.quarantine_page(page, track, err);
                    }
                }
            }
        }
    }

    /// Terminal flush failure: quarantine `page`. The frontier advances past
    /// it — allocation and head advancement never wedge on a dead device —
    /// but the page's bytes are untrusted: reads of it return
    /// [`IoError::Corrupt`], `flush_failures` stays latched (no checkpoint
    /// can declare the window durable), and the fault hook tells the store
    /// to degrade to read-only.
    fn quarantine_page(self: &Arc<Inner>, page: u64, track: bool, error: IoError) {
        self.quarantined.lock().insert(page);
        self.metrics.pages_quarantined.inc();
        self.flush_failures.fetch_add(1, Ordering::SeqCst);
        if track {
            self.flush_complete(page);
        }
        self.flush_inflight.fetch_sub(1, Ordering::SeqCst);
        if let Some(hook) = self.fault_hook.lock().as_ref() {
            hook(&LogFault::PageQuarantined { page, error });
        }
    }

    /// Device byte span per page (data + checksum footer).
    fn stride(&self) -> u64 {
        checksum::stride(self.cfg.page_size())
    }

    /// True when `page` was quarantined by a terminal flush failure.
    fn is_quarantined(&self, page: u64) -> bool {
        self.quarantined.lock().contains(&page)
    }

    fn note_corrupt_read(&self, offset: u64) {
        self.metrics.corrupt_reads.inc();
        if let Some(hook) = self.fault_hook.lock().as_ref() {
            hook(&LogFault::CorruptRead { offset });
        }
    }

    /// Plans a verified cold read of `len` record bytes at logical `a`:
    /// returns the device offset, the read length, and the [`ReadSpan`] that
    /// extracts/verifies the record from the returned bytes. The span is
    /// widened to whole checksum groups; when the page's footer is not
    /// cached (first cold read after recovery) the read extends through the
    /// on-disk footer so verification needs no second I/O.
    fn plan_read(&self, a: u64, len: usize) -> (u64, usize, ReadSpan) {
        let page_size = self.cfg.page_size();
        let g = checksum::group_size(page_size);
        let page = a / page_size;
        let offset = a % page_size;
        let span_start = (offset / g) * g;
        let footer = self.footers.lock().get(&page).cloned();
        let read_len = match &footer {
            Some(_) => {
                let span_end = ((offset + len as u64).div_ceil(g) * g).min(page_size);
                (span_end - span_start) as usize
            }
            None => ((page_size - span_start) + checksum::footer_len(page_size)) as usize,
        };
        (
            page * self.stride() + span_start,
            read_len,
            ReadSpan { page, span_start, rec_off: (offset - span_start) as usize, rec_len: len, footer },
        )
    }

    /// Checks a completed read's bytes against the page footer (cached at
    /// issue time, or parsed from the tail of an extended read) and extracts
    /// the record. Only *covered* groups — entirely below the footer's
    /// sealed prefix — are verified; a mismatch there is genuine corruption
    /// (sealed bytes never change in memory, see the `checksum` module) and
    /// returns [`IoError::Corrupt`] instead of the bytes. The record comes
    /// back in the device's own buffer, moved to its front and trimmed.
    fn verify_extract(&self, span: &ReadSpan, mut bytes: Vec<u8>) -> Result<Vec<u8>, IoError> {
        let page_size = self.cfg.page_size();
        let g = checksum::group_size(page_size);
        let footer = match &span.footer {
            Some(f) => Some(Arc::clone(f)),
            None => {
                let foot_off = (page_size - span.span_start) as usize;
                let parsed = bytes
                    .get(foot_off..foot_off + checksum::footer_len(page_size) as usize)
                    .and_then(|fb| checksum::parse(span.page, page_size, fb));
                // A footer that fails its self-check (crash-torn) leaves the
                // page served unverified — matching pre-checksum behavior.
                parsed.map(|p| {
                    let p = Arc::new(p);
                    self.footers.lock().insert(span.page, Arc::clone(&p));
                    p
                })
            }
        };
        if let Some(f) = footer {
            let data_len = (bytes.len() as u64).min(page_size - span.span_start);
            let first = span.span_start / g;
            for i in 0..data_len / g {
                let gi = (first + i) as usize;
                if !f.covers(gi, g) {
                    continue;
                }
                let lo = (i * g) as usize;
                if faster_util::hash_bytes(&bytes[lo..lo + g as usize]) != f.sums[gi] {
                    let offset = span.page * page_size + (gi as u64) * g;
                    self.note_corrupt_read(offset);
                    return Err(IoError::Corrupt { offset });
                }
            }
        }
        let end = span.rec_off + span.rec_len;
        if end > bytes.len() {
            return Err(IoError::OutOfRange {
                offset: span.page * page_size + span.span_start,
                len: span.rec_len,
            });
        }
        bytes.copy_within(span.rec_off..end, 0);
        bytes.truncate(span.rec_len);
        Ok(bytes)
    }

    /// A tracked page write landed (or was abandoned): advance the contiguous
    /// flushed frontier and retry the head advance it may have been gating.
    fn flush_complete(self: &Arc<Inner>, page: u64) {
        let frontier = {
            let mut t = self.flush_tracker.lock();
            t.complete(page)
        };
        if let Some(pages) = frontier {
            self.flushed_until.fetch_max(pages * self.cfg.page_size(), Ordering::SeqCst);
            // The head may have been capped by the flush frontier; retry.
            let log = HybridLog { inner: self.clone() };
            log.maybe_advance_head(None);
        }
    }

    /// Epoch trigger of a `begin` move to `to`: no thread can still read
    /// below it. Footers and quarantine marks of fully truncated pages are
    /// moot, so they are dropped and the caches don't grow with log
    /// lifetime. Device truncation is page-granular: checksum-span reads of
    /// records on the first live page start at its group-aligned page start,
    /// so the whole stride (data + footer) of that page stays readable even
    /// when `begin` points mid-page.
    fn truncate(&self, to: u64) {
        let first_page = to / self.cfg.page_size();
        self.footers.lock().retain(|&p, _| p >= first_page);
        self.quarantined.lock().retain(|&p| p >= first_page);
        self.device.truncate_below(first_page * self.stride());
    }

    /// Epoch trigger: frames of pages in `[from, to)` are now unreachable by
    /// every thread; run the eviction hook, then mark them reusable.
    fn close_frames(&self, from: u64, to: u64) {
        if let Some(hook) = self.evict_hook.lock().as_ref() {
            hook(from, to);
        }
        let page_size = self.cfg.page_size();
        for page in (from / page_size)..(to / page_size) {
            self.frame_status[self.frame_index(page)].store(FRAME_CLOSED, Ordering::SeqCst);
            self.metrics.frames_evicted.inc();
        }
    }
}

#[cfg(test)]
mod tests;
