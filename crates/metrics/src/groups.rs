//! Per-subsystem metric groups.
//!
//! Each runtime crate (epoch, index, hlog, core) holds an `Arc` to its
//! group and bumps counters inline; the registry owns the same `Arc`s and
//! assembles snapshots on demand. Groups never reference the crates they
//! instrument, so `faster-metrics` stays at the bottom of the dependency
//! graph.

use crate::counter::{Cell64, Counter};
use crate::histogram::LatencyHistogram;
use std::sync::{Arc, Mutex};

/// Epoch-protection events.
#[derive(Default, Debug)]
pub struct EpochMetrics {
    /// `EpochGuard::refresh` calls that published a new local epoch.
    pub refreshes: Counter,
    /// Global epoch bumps (`bump` / `bump_with`).
    pub bumps: Counter,
    /// Deferred drain-list actions executed once their epoch became safe.
    pub drain_actions: Counter,
}

/// Hash-index events.
#[derive(Default, Debug)]
pub struct IndexMetrics {
    /// Bucket-chain lookups started (`find`-family calls).
    pub probes: Counter,
    /// Total entry slots inspected across all probes (probe length numerator).
    pub probe_steps: Counter,
    /// Overflow buckets allocated when a chain ran out of slots.
    pub overflow_allocs: Counter,
    /// Two-phase tentative inserts that lost the race and restarted.
    pub tentative_restarts: Counter,
    /// Resize migration chunks claimed (freeze won).
    pub resize_chunk_claims: Counter,
    /// Backoff waits spun during resize coordination.
    pub resize_backoffs: Counter,
}

/// HybridLog events. The read cache's internal log gets its own instance.
#[derive(Default, Debug)]
pub struct HlogMetrics {
    /// Successful record allocations on the tail.
    pub appends: Counter,
    /// `try_allocate` misses (page full / head-lag backpressure) that forced
    /// the caller to retry or refresh.
    pub alloc_retries: Counter,
    /// Pages sealed (closed for further allocation).
    pub page_seals: Counter,
    /// Page flushes issued to the device.
    pub flushes_issued: Counter,
    /// Page flushes whose CQE reported success.
    pub flushes_completed: Counter,
    /// Page flushes whose CQE reported an error.
    pub flushes_failed: Counter,
    /// Flush attempts re-submitted after a transient device write error
    /// (each also re-counted in `flushes_issued`).
    pub flush_retries: Counter,
    /// Pages whose flush exhausted its retry budget (or hit a permanent
    /// error) and were quarantined: the frontier advanced past them, their
    /// on-disk bytes are untrusted, and reads of them return `Corrupt`.
    pub pages_quarantined: Counter,
    /// Cold reads whose bytes failed checksum verification (includes reads
    /// short-circuited by a quarantined page).
    pub corrupt_reads: Counter,
    /// In-memory frames evicted when the head advanced.
    pub frames_evicted: Counter,
    /// Record reads issued to the device (`make_read_sqe`, `read_blocking`).
    pub reads_issued: Counter,
    /// Record reads whose CQE was reaped.
    pub reads_completed: Counter,
    /// Bytes made dead by the store layer: records superseded by an RCU,
    /// shadowed by a tombstone, or abandoned after a lost insert race. Fed by
    /// `HybridLog::note_dead_bytes`; monotone — truncation is tracked
    /// separately so `dead_bytes - bytes_truncated` estimates reclaimable
    /// space still on the log.
    pub dead_bytes: Counter,
    /// Bytes dropped below `begin` by `shift_begin_address` (GC/compaction).
    pub bytes_truncated: Counter,
}

/// Write-ahead-log events (populated only when the store runs with a WAL).
#[derive(Default)]
pub struct WalMetrics {
    /// Records appended to the WAL.
    pub appends: Counter,
    /// Payload + header bytes appended.
    pub bytes: Counter,
    /// Group commits whose flush barrier succeeded (groups acked).
    pub commits: Counter,
    /// Group commits whose flush barrier failed (groups never acked).
    pub commit_failures: Counter,
    /// Records per acked group ("latency" histogram reused as a size
    /// distribution: record with unit = records, not nanoseconds).
    pub group_size: LatencyHistogram,
    /// Append-to-durable latency per acked group.
    pub commit_latency: LatencyHistogram,
}

/// Read-cache events (populated only when the store has a read cache).
#[derive(Default, Debug)]
pub struct ReadCacheMetrics {
    /// Reads served from a cached record.
    pub hits: Counter,
    /// Reads not served by the cache (counted only while a cache is
    /// configured, so `hits + misses` = reads issued with caching on and
    /// `hit_rate` measures overall cache effectiveness).
    pub misses: Counter,
    /// Second-chance promotions (cold record re-inserted on re-access).
    pub promotions: Counter,
    /// Records inserted into the cache after a cold read completed.
    pub inserts: Counter,
}

/// Per-session operation counts. One recorder per live session; the owning
/// session thread is the only writer, so unsharded relaxed cells suffice.
/// The whole struct is cache-line aligned so two sessions' recorders never
/// share a line.
#[repr(align(64))]
#[derive(Default, Debug)]
pub struct SessionRecorder {
    /// Public read operations started.
    pub reads: Cell64,
    /// Reads whose first synchronous return was served by the read cache.
    pub rc_hits: Cell64,
    /// Reads whose first synchronous return came from the in-memory log
    /// (found or not-found) without going pending.
    pub mem_reads: Cell64,
    /// Reads whose first synchronous return was `Pending` (disk I/O issued).
    pub reads_pending: Cell64,

    /// Public upsert operations.
    pub upserts: Cell64,
    /// Public RMW operations.
    pub rmws: Cell64,
    /// Public delete operations.
    pub deletes: Cell64,
    /// Batch API invocations (each spanning many ops counted above).
    pub batches: Cell64,

    /// Successful mutations (each also counted in exactly one of
    /// `in_place` / `rcu` / `appends` — the consistency-test identity).
    pub writes: Cell64,
    /// Mutations applied in place inside the mutable region.
    pub in_place: Cell64,
    /// Mutations that copied an existing record to the tail (read-copy-update).
    pub rcu: Cell64,
    /// Mutations that appended a fresh record (no prior version updated).
    pub appends: Cell64,
    /// Delta records appended by the CRDT/delta path (subset of `appends`).
    pub deltas: Cell64,
    /// RMWs that found their target in the fuzzy region and went pending.
    pub fuzzy_pending: Cell64,

    /// Disk reads issued on behalf of this session (initial + reissues).
    pub io_issued: Cell64,
    /// Disk-read completions consumed by this session.
    pub io_completed: Cell64,
    /// Pending ops re-issued after a transient I/O failure.
    pub io_retries: Cell64,
    /// Pending ops surfaced as `Err(OpError::Io)` after retry exhaustion.
    pub io_failed: Cell64,
}

/// A plain-data sum of recorder fields; also the retirement accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionTotals {
    pub reads: u64,
    pub rc_hits: u64,
    pub mem_reads: u64,
    pub reads_pending: u64,
    pub upserts: u64,
    pub rmws: u64,
    pub deletes: u64,
    pub batches: u64,
    pub writes: u64,
    pub in_place: u64,
    pub rcu: u64,
    pub appends: u64,
    pub deltas: u64,
    pub fuzzy_pending: u64,
    pub io_issued: u64,
    pub io_completed: u64,
    pub io_retries: u64,
    pub io_failed: u64,
}

impl SessionTotals {
    pub fn accumulate(&mut self, r: &SessionRecorder) {
        self.reads += r.reads.get();
        self.rc_hits += r.rc_hits.get();
        self.mem_reads += r.mem_reads.get();
        self.reads_pending += r.reads_pending.get();
        self.upserts += r.upserts.get();
        self.rmws += r.rmws.get();
        self.deletes += r.deletes.get();
        self.batches += r.batches.get();
        self.writes += r.writes.get();
        self.in_place += r.in_place.get();
        self.rcu += r.rcu.get();
        self.appends += r.appends.get();
        self.deltas += r.deltas.get();
        self.fuzzy_pending += r.fuzzy_pending.get();
        self.io_issued += r.io_issued.get();
        self.io_completed += r.io_completed.get();
        self.io_retries += r.io_retries.get();
        self.io_failed += r.io_failed.get();
    }
}

/// Registry of live session recorders plus the fold of retired ones, and
/// the shared per-op latency histograms.
pub struct SessionHub {
    live: Mutex<Vec<Arc<SessionRecorder>>>,
    retired: Mutex<SessionTotals>,
    /// Runtime switch for the (feature-gated) latency timers.
    pub latency_enabled: bool,
    pub read_latency: LatencyHistogram,
    pub upsert_latency: LatencyHistogram,
    pub rmw_latency: LatencyHistogram,
    pub delete_latency: LatencyHistogram,
    /// In-flight disk-I/O depth sampled at each ring submission (a count,
    /// not a duration; log2 buckets still apply). Unlike the per-op
    /// latencies above, not gated on the `timing` feature — no clock read
    /// is involved.
    pub io_depth: LatencyHistogram,
    /// Disk-read latency, SQE submission to CQE reap, in nanoseconds.
    /// Recorded whenever I/O goes through the ring path (the clock cost is
    /// noise next to an actual disk read), gated only by the `off` feature.
    pub io_latency: LatencyHistogram,
}

impl SessionHub {
    pub fn new(latency_enabled: bool) -> Self {
        SessionHub {
            live: Mutex::new(Vec::new()),
            retired: Mutex::new(SessionTotals::default()),
            latency_enabled,
            read_latency: LatencyHistogram::new(),
            upsert_latency: LatencyHistogram::new(),
            rmw_latency: LatencyHistogram::new(),
            delete_latency: LatencyHistogram::new(),
            io_depth: LatencyHistogram::new(),
            io_latency: LatencyHistogram::new(),
        }
    }

    /// Create and track a fresh recorder for a new session.
    pub fn register(&self) -> Arc<SessionRecorder> {
        let rec = Arc::new(SessionRecorder::default());
        self.live.lock().unwrap().push(Arc::clone(&rec));
        rec
    }

    /// Fold a dropped session's counts into the retired accumulator so the
    /// live list doesn't grow without bound under session churn.
    pub fn retire(&self, rec: &Arc<SessionRecorder>) {
        let mut live = self.live.lock().unwrap();
        if let Some(pos) = live.iter().position(|r| Arc::ptr_eq(r, rec)) {
            let r = live.swap_remove(pos);
            drop(live);
            self.retired.lock().unwrap().accumulate(&r);
        }
    }

    /// Sum over retired and live recorders. Returns the totals and the
    /// number of currently live sessions.
    pub fn totals(&self) -> (SessionTotals, usize) {
        let live = self.live.lock().unwrap();
        let mut t = *self.retired.lock().unwrap();
        for r in live.iter() {
            t.accumulate(r);
        }
        (t, live.len())
    }
}

impl std::fmt::Debug for SessionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (t, live) = self.totals();
        f.debug_struct("SessionHub")
            .field("live", &live)
            .field("totals", &t)
            .finish()
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    #[test]
    fn retire_folds_counts() {
        let hub = SessionHub::new(false);
        let a = hub.register();
        let b = hub.register();
        a.reads.add(5);
        b.reads.add(7);
        let (t, live) = hub.totals();
        assert_eq!((t.reads, live), (12, 2));
        hub.retire(&a);
        let (t, live) = hub.totals();
        assert_eq!((t.reads, live), (12, 1));
        // Retiring twice is a no-op (no double count).
        hub.retire(&a);
        assert_eq!(hub.totals().0.reads, 12);
    }
}
