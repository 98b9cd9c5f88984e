//! # faster-wal
//!
//! A group-committed user-space write-ahead log for per-operation
//! durability.
//!
//! The paper's CPR checkpoints (§6.5) bound loss to "everything after the
//! last checkpoint's t2"; some deployments need the stricter contract that a
//! *acknowledged* operation survives any crash. This crate provides that as a
//! sidecar log: sessions append one record per mutating operation and learn
//! durability when the record's **group** is flushed. A single commit thread
//! batches appends from all sessions under a tunable batch window, writes the
//! group with one device write, and issues one `flush_barrier` for the whole
//! group — amortizing the fsync across every session in the batch, which is
//! what makes per-op durability affordable at high session counts.
//!
//! ## Record format
//!
//! ```text
//! [checksum u64][lsn u64][len u32][generation u32][payload len bytes]
//! ```
//!
//! * `lsn` is a monotonic log sequence number starting at 1, assigned at
//!   append under the log mutex (so LSN order = buffer order = disk order).
//! * `checksum` covers `lsn | len | generation | payload`; recovery stops at
//!   the first record that fails it — the torn-record cutoff.
//! * `generation` is bumped on every recovery and must never decrease along
//!   the log. It defuses the LSN-reuse hazard: after a crash, re-appended
//!   records may reuse the LSNs of torn (never-acked) ones, and without the
//!   generation a stale torn suffix whose record boundary happens to line up
//!   could parse as a continuation of the new records.
//!
//! ## Segments
//!
//! The log is divided into fixed-size segments. Records pack back to back
//! within a segment and **never span segments** — a record that does not fit
//! zero-pads to the next boundary. Recovery skips truncated segments at the
//! front (the device reports [`IoError::Truncated`]) and hops over padding,
//! so [`Wal::truncate_below_lsn`] can reclaim whole segments once a
//! checkpoint covers their records.
//!
//! ## Group commit and sector alignment
//!
//! Each group is written as one sector-aligned device write. The tail
//! usually ends mid-sector, so the commit thread keeps the byte image of the
//! partial tail sector and *re-writes* it as the prefix of the next group's
//! block. The rewritten prefix is byte-identical to what is already on disk,
//! so a torn group write can never damage previously acked records — the
//! prefix-persisted crash model keeps them intact no matter where the tear
//! lands.
//!
//! ## Failure contract
//!
//! A failed group write or flush barrier means durability of that group is
//! unknown: the failure is **sticky** — the group is never acked, every
//! waiter (and all later appends) observe the error, and nothing past the
//! last successfully acked LSN is ever reported durable. This is the other
//! half of the `Device::flush_barrier() -> Result` contract.

use faster_metrics::WalMetrics;
use faster_storage::{CompletionRing, Cqe, Device, IoError, Sqe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Log sequence number. 1-based; 0 means "nothing" (no record, no coverage).
pub type Lsn = u64;

/// Bytes of the per-record header.
pub const RECORD_HEADER: usize = 24;

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// How long the commit thread lingers after the first append of a group
    /// to let more sessions join before the single flush. Zero = commit as
    /// fast as the device allows (groups still form under barrier latency).
    pub batch_window: Duration,
    /// Segment size in bytes; records never span segments. Must be a
    /// multiple of the device sector size and larger than any record.
    pub segment_size: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { batch_window: Duration::ZERO, segment_size: 1 << 20 }
    }
}

/// One record recovered by [`Wal::recover`], in LSN order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: Lsn,
    pub payload: Vec<u8>,
}

struct Pending {
    lsn: Lsn,
    /// Header + payload, fully encoded at append time.
    bytes: Vec<u8>,
    enqueued: Instant,
}

/// A registered durability notice ([`Wal::notify_durable`]): when every LSN
/// ≤ `lsn` is durable (or the log fails), a [`Cqe`] carrying `id` is pushed
/// into `ring`.
struct Notice {
    lsn: Lsn,
    id: u64,
    ring: Arc<CompletionRing>,
}

impl Notice {
    fn deliver(self, result: Result<(), IoError>) {
        self.ring.push(Cqe { id: self.id, result: result.map(|()| Vec::new()) });
    }
}

struct WalState {
    /// Logical end of the log: the byte after the last record (or pad).
    tail: u64,
    next_lsn: Lsn,
    generation: u32,
    pending: Vec<Pending>,
    /// Byte image of `[align_down(tail), tail)` — rewritten as the identical
    /// prefix of the next group's sector-aligned write.
    tail_sector: Vec<u8>,
    /// `(offset, first lsn)` of every segment that holds records, for
    /// LSN-addressed truncation.
    segment_starts: Vec<(u64, Lsn)>,
    /// Sticky group-commit failure: set once, never cleared.
    failed: Option<IoError>,
    shutdown: bool,
    /// Outstanding ring-routed durability notices, drained by the commit
    /// thread on every ack (and failed wholesale on a sticky failure).
    notices: Vec<Notice>,
}

struct Shared {
    device: Arc<dyn Device>,
    cfg: WalConfig,
    metrics: Arc<WalMetrics>,
    state: Mutex<WalState>,
    /// Wakes the commit thread when a record is appended (or on shutdown).
    appended: Condvar,
    /// Wakes durability waiters when a group is acked or the log fails.
    acked: Condvar,
    /// Highest LSN known durable (all LSNs ≤ this are durable).
    durable: AtomicU64,
}

/// The group-committed write-ahead log. See module docs.
pub struct Wal {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Wal {
    /// A fresh, empty log on `device`, starting at LSN 1.
    pub fn new(device: Arc<dyn Device>, cfg: WalConfig) -> Arc<Self> {
        Self::with_metrics(device, cfg, Arc::new(WalMetrics::default()))
    }

    /// A fresh log reporting into an existing metrics group.
    pub fn with_metrics(
        device: Arc<dyn Device>,
        cfg: WalConfig,
        metrics: Arc<WalMetrics>,
    ) -> Arc<Self> {
        Self::start(device, cfg, metrics, ScanResult::fresh(), 0)
    }

    /// Scans the surviving log on `device`, returning the log (resumed at
    /// the scan end, with a bumped generation) and every valid record with
    /// LSN strictly above `skip_lsn` — the suffix a recovering store must
    /// replay. The scan stops at the first torn or checksum-failing record:
    /// everything before it was acked (or part of a group whose prefix
    /// persisted); everything at or after it was never acknowledged.
    pub fn recover(
        device: Arc<dyn Device>,
        cfg: WalConfig,
        metrics: Arc<WalMetrics>,
        skip_lsn: Lsn,
    ) -> (Arc<Self>, Vec<WalRecord>) {
        let scan = scan_device(&device, cfg.segment_size);
        let replay: Vec<WalRecord> =
            scan.records.iter().filter(|r| r.lsn > skip_lsn).cloned().collect();
        (Self::start(device, cfg, metrics, scan, skip_lsn), replay)
    }

    fn start(
        device: Arc<dyn Device>,
        cfg: WalConfig,
        metrics: Arc<WalMetrics>,
        scan: ScanResult,
        skip_lsn: Lsn,
    ) -> Arc<Self> {
        assert!(
            cfg.segment_size.is_multiple_of(device.sector_size() as u64),
            "segment size must be a multiple of the device sector size"
        );
        let last = scan.last_lsn.max(skip_lsn);
        let shared = Arc::new(Shared {
            device,
            cfg,
            metrics,
            state: Mutex::new(WalState {
                tail: scan.tail,
                next_lsn: last + 1,
                generation: scan.max_generation + 1,
                pending: Vec::new(),
                tail_sector: scan.tail_sector,
                segment_starts: scan.segment_starts,
                failed: None,
                shutdown: false,
                notices: Vec::new(),
            }),
            appended: Condvar::new(),
            acked: Condvar::new(),
            // Everything that survived on disk is durable by definition.
            durable: AtomicU64::new(scan.last_lsn),
        });
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("faster-wal-commit".into())
                .spawn(move || commit_loop(&shared))
                .expect("spawn WAL commit thread")
        };
        Arc::new(Self { shared, worker: Mutex::new(Some(worker)) })
    }

    /// Appends one record, returning its LSN. The record is **not durable**
    /// yet: pair with [`Wal::wait_durable`] / [`Wal::poll_durable`]. Fails
    /// if the log has already hit a sticky commit failure.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn, IoError> {
        let total = RECORD_HEADER + payload.len();
        if total as u64 > self.shared.cfg.segment_size {
            return Err(IoError::Failed(format!(
                "WAL record of {total} bytes exceeds segment size {}",
                self.shared.cfg.segment_size
            )));
        }
        let mut st = self.shared.state.lock().unwrap();
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        let bytes = encode_record(lsn, st.generation, payload);
        st.pending.push(Pending { lsn, bytes, enqueued: Instant::now() });
        self.shared.metrics.appends.inc();
        self.shared.metrics.bytes.add(total as u64);
        self.shared.appended.notify_one();
        Ok(lsn)
    }

    /// Blocks until every record with LSN ≤ `lsn` is durable, or the log
    /// fails. An `Err` means the record's group was **never acknowledged**.
    pub fn wait_durable(&self, lsn: Lsn) -> Result<(), IoError> {
        if self.shared.durable.load(Ordering::SeqCst) >= lsn {
            return Ok(());
        }
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if self.shared.durable.load(Ordering::SeqCst) >= lsn {
                return Ok(());
            }
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            st = self.shared.acked.wait(st).unwrap();
        }
    }

    /// Non-blocking durability check: `Some(Ok(()))` once durable,
    /// `Some(Err(_))` once the log has failed, `None` while still in
    /// flight. Drives `complete_pending`-style polling.
    pub fn poll_durable(&self, lsn: Lsn) -> Option<Result<(), IoError>> {
        if self.shared.durable.load(Ordering::SeqCst) >= lsn {
            return Some(Ok(()));
        }
        let st = self.shared.state.lock().unwrap();
        if self.shared.durable.load(Ordering::SeqCst) >= lsn {
            return Some(Ok(()));
        }
        st.failed.as_ref().map(|e| Err(e.clone()))
    }

    /// Registers a ring-routed durability notice: once every record with
    /// LSN ≤ `lsn` is durable, a [`Cqe`] echoing `id` (empty bytes) is
    /// pushed into `ring`; if the log fails first — or has already failed,
    /// or is shutting down — the CQE carries the error instead. Exactly one
    /// CQE is delivered per call, immediately when the answer is already
    /// known. This is the parking-free counterpart of [`Wal::wait_durable`]:
    /// a consumer multiplexing a [`CompletionRing`] (disk reads, socket
    /// readiness) learns group-commit durability through the same reap loop
    /// instead of blocking a thread per waiter on the condvar.
    pub fn notify_durable(&self, lsn: Lsn, id: u64, ring: &Arc<CompletionRing>) {
        if self.shared.durable.load(Ordering::SeqCst) >= lsn {
            ring.push(Cqe { id, result: Ok(Vec::new()) });
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        // Re-check under the lock: an ack that raced us has already drained
        // the notice list and would never see this registration.
        if self.shared.durable.load(Ordering::SeqCst) >= lsn {
            drop(st);
            ring.push(Cqe { id, result: Ok(Vec::new()) });
            return;
        }
        if let Some(e) = st.failed.clone() {
            drop(st);
            ring.push(Cqe { id, result: Err(e) });
            return;
        }
        if st.shutdown {
            drop(st);
            ring.push(Cqe { id, result: Err(IoError::Failed("WAL shut down".into())) });
            return;
        }
        st.notices.push(Notice { lsn, id, ring: Arc::clone(ring) });
    }

    /// Highest LSN known durable (0 = none).
    pub fn durable_lsn(&self) -> Lsn {
        self.shared.durable.load(Ordering::SeqCst)
    }

    /// Highest LSN handed out by [`Wal::append`] (0 = none).
    pub fn last_appended_lsn(&self) -> Lsn {
        self.shared.state.lock().unwrap().next_lsn - 1
    }

    /// The sticky failure, if the log has hit one.
    pub fn failure(&self) -> Option<IoError> {
        self.shared.state.lock().unwrap().failed.clone()
    }

    /// Reclaims whole segments whose records are all ≤ `lsn` (typically a
    /// checkpoint's recorded WAL truncation point). Conservative: a segment
    /// survives unless every byte below its start is covered.
    pub fn truncate_below_lsn(&self, lsn: Lsn) {
        let mut st = self.shared.state.lock().unwrap();
        let mut cut = 0u64;
        for &(off, first) in &st.segment_starts {
            // Records strictly below `off` all have LSN < `first`.
            if first <= lsn + 1 {
                cut = cut.max(off);
            }
        }
        if cut > 0 {
            st.segment_starts.retain(|&(off, _)| off >= cut);
            self.shared.device.truncate_below(cut);
        }
    }

    /// The device this log writes to.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.shared.device
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.appended.notify_all();
        }
        if let Some(h) = self.worker.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

/// The commit thread: batch, write, barrier, ack — one iteration per group.
fn commit_loop(shared: &Shared) {
    let sector = shared.device.sector_size() as u64;
    let seg = shared.cfg.segment_size;
    // Group writes ride the submission/completion ring (DESIGN.md §9): the
    // commit thread owns a private ring, submits each group block as a
    // ring-routed SQE (id = the group's last LSN) and parks on the ring for
    // its CQE. One SQE is in flight at a time, so reaping is trivial.
    let ring = Arc::new(CompletionRing::new());
    let mut cqes: Vec<faster_storage::Cqe> = Vec::with_capacity(1);
    loop {
        let mut st = shared.state.lock().unwrap();
        while st.pending.is_empty() {
            if st.shutdown || st.failed.is_some() {
                let err = st.failed.clone().unwrap_or(IoError::Failed("WAL shut down".into()));
                fail_notices(&mut st, err);
                return;
            }
            st = shared.appended.wait(st).unwrap();
        }
        // Batch window: let more sessions join the group before the flush.
        if !shared.cfg.batch_window.is_zero() && !st.shutdown {
            drop(st);
            std::thread::sleep(shared.cfg.batch_window);
            st = shared.state.lock().unwrap();
        }

        // Build the group's sector-aligned block. The tail-sector prefix is
        // byte-identical to disk, so tearing this write cannot damage
        // already-acked records.
        let group = std::mem::take(&mut st.pending);
        let write_off = st.tail - st.tail_sector.len() as u64;
        debug_assert_eq!(write_off % sector, 0);
        let mut block = std::mem::take(&mut st.tail_sector);
        let mut tail = st.tail;
        for rec in &group {
            let within = tail % seg;
            if seg - within < rec.bytes.len() as u64 {
                // Records never span segments: zero-pad to the boundary.
                block.resize(block.len() + (seg - within) as usize, 0);
                tail += seg - within;
            }
            if tail.is_multiple_of(seg) {
                st.segment_starts.push((tail, rec.lsn));
            }
            block.extend_from_slice(&rec.bytes);
            tail += rec.bytes.len() as u64;
        }
        st.tail = tail;
        st.tail_sector = block[(tail / sector * sector - write_off) as usize..].to_vec();
        block.resize(block.len().div_ceil(sector as usize) * sector as usize, 0);
        drop(st);

        let last_lsn = group.last().expect("non-empty group").lsn;
        let oldest = group.iter().map(|r| r.enqueued).min().expect("non-empty group");
        shared.device.submit(Sqe::write(last_lsn, write_off, block, &ring));
        let write_res = loop {
            cqes.clear();
            if ring.reap(&mut cqes) > 0 {
                debug_assert_eq!(cqes.len(), 1, "one group write in flight");
                debug_assert_eq!(cqes[0].id, last_lsn);
                break cqes.pop().expect("reaped CQE").result.map(|_| ());
            }
            ring.wait_nonempty(Duration::from_millis(100));
        };
        let res = write_res.and_then(|()| shared.device.flush_barrier());

        let mut st = shared.state.lock().unwrap();
        match res {
            Ok(()) => {
                shared.durable.store(last_lsn, Ordering::SeqCst);
                shared.metrics.commits.inc();
                shared.metrics.group_size.record(group.len() as u64);
                shared.metrics.commit_latency.record(oldest.elapsed().as_nanos() as u64);
                shared.acked.notify_all();
                // Deliver every ring-routed notice the ack covers.
                let covered = drain_notices(&mut st, last_lsn);
                for n in covered {
                    n.deliver(Ok(()));
                }
            }
            Err(e) => {
                // Sticky: the group (and everything after) is never acked.
                shared.metrics.commit_failures.inc();
                st.failed = Some(e.clone());
                shared.acked.notify_all();
                fail_notices(&mut st, e);
                return;
            }
        }
        if st.shutdown && st.pending.is_empty() {
            fail_notices(&mut st, IoError::Failed("WAL shut down".into()));
            return;
        }
    }
}

/// Detaches the notices covered by `durable_lsn` (delivered outside the
/// caller's lock scope would also be fine — ring pushes never block).
fn drain_notices(st: &mut WalState, durable_lsn: Lsn) -> Vec<Notice> {
    let (covered, keep) = std::mem::take(&mut st.notices)
        .into_iter()
        .partition(|n| n.lsn <= durable_lsn);
    st.notices = keep;
    covered
}

/// Fails every outstanding notice (sticky failure or shutdown).
fn fail_notices(st: &mut WalState, err: IoError) {
    for n in std::mem::take(&mut st.notices) {
        n.deliver(Err(err.clone()));
    }
}

fn encode_record(lsn: Lsn, generation: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&[0u8; 8]); // checksum placeholder
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = faster_util::hash_bytes(&out[8..]);
    out[..8].copy_from_slice(&sum.to_le_bytes());
    out
}

struct ScanResult {
    records: Vec<WalRecord>,
    tail: u64,
    last_lsn: Lsn,
    max_generation: u32,
    tail_sector: Vec<u8>,
    segment_starts: Vec<(u64, Lsn)>,
}

impl ScanResult {
    fn fresh() -> Self {
        Self {
            records: Vec::new(),
            tail: 0,
            last_lsn: 0,
            max_generation: 0,
            tail_sector: Vec::new(),
            segment_starts: Vec::new(),
        }
    }
}

/// Walks the surviving log: skips truncated front segments, validates each
/// record (checksum, LSN continuity, generation monotonicity), stops at the
/// first invalid one — the torn-record cutoff.
fn scan_device(device: &Arc<dyn Device>, seg: u64) -> ScanResult {
    let sector = device.sector_size() as u64;
    let mut out = ScanResult::fresh();

    // Find the first readable segment (truncation reclaims whole segments).
    let mut off = 0u64;
    loop {
        match device.read_blocking(off, RECORD_HEADER) {
            Ok(_) => break,
            Err(IoError::Truncated { .. }) => off += seg,
            Err(_) => {
                out.tail = off;
                return out; // empty (or fully truncated) log
            }
        }
    }

    let mut prev_lsn: Option<Lsn> = None;
    let mut prev_gen = 0u32;
    loop {
        let within = off % seg;
        let remaining = seg - within;
        if remaining < RECORD_HEADER as u64 {
            off += remaining;
            continue;
        }
        let Ok(hdr) = device.read_blocking(off, RECORD_HEADER) else { break };
        let rd64 = |i: usize| u64::from_le_bytes(hdr[i..i + 8].try_into().unwrap());
        let sum = rd64(0);
        let lsn = rd64(8);
        let len = u32::from_le_bytes(hdr[16..20].try_into().unwrap()) as usize;
        let gen = u32::from_le_bytes(hdr[20..24].try_into().unwrap());
        if sum == 0 && lsn == 0 && len == 0 && gen == 0 {
            if within == 0 {
                break; // untouched segment start: end of log
            }
            // Padding before a segment hop — or end-of-log zeros; the next
            // segment start decides (valid record continues, anything else
            // stops the scan there).
            off += remaining;
            continue;
        }
        if RECORD_HEADER as u64 + len as u64 > remaining || gen == 0 {
            break;
        }
        let Ok(payload) = device.read_blocking(off + RECORD_HEADER as u64, len) else { break };
        let mut check = Vec::with_capacity(RECORD_HEADER - 8 + len);
        check.extend_from_slice(&hdr[8..]);
        check.extend_from_slice(&payload);
        if faster_util::hash_bytes(&check) != sum {
            break;
        }
        // After front truncation the first LSN is arbitrary; within the
        // scan, LSNs are dense and generations never decrease.
        if let Some(p) = prev_lsn {
            if lsn != p + 1 || gen < prev_gen {
                break;
            }
        }
        if within == 0 {
            out.segment_starts.push((off, lsn));
        }
        prev_lsn = Some(lsn);
        prev_gen = prev_gen.max(gen);
        out.records.push(WalRecord { lsn, payload });
        off += RECORD_HEADER as u64 + len as u64;
    }

    out.tail = off;
    out.last_lsn = prev_lsn.unwrap_or(0);
    out.max_generation = prev_gen;
    let aligned = off / sector * sector;
    if off > aligned {
        // Rebuild the partial-tail-sector image the commit thread rewrites.
        out.tail_sector =
            device.read_blocking(aligned, (off - aligned) as usize).unwrap_or_default();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_storage::{FaultDevice, MemDevice};

    fn fresh(dev: Arc<dyn Device>, window_us: u64, seg: u64) -> Arc<Wal> {
        Wal::new(
            dev,
            WalConfig {
                batch_window: Duration::from_micros(window_us),
                segment_size: seg,
            },
        )
    }

    fn payload(i: u64) -> Vec<u8> {
        let mut p = vec![0u8; 16 + (i % 48) as usize];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    }

    #[test]
    fn append_wait_recover_round_trip() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let wal = fresh(dev.clone(), 0, 1 << 16);
        let mut lsns = Vec::new();
        for i in 0..50u64 {
            lsns.push(wal.append(&payload(i)).unwrap());
        }
        assert_eq!(lsns, (1..=50).collect::<Vec<_>>());
        wal.wait_durable(50).unwrap();
        assert_eq!(wal.durable_lsn(), 50);
        drop(wal);

        let (wal2, replay) = Wal::recover(
            dev,
            WalConfig { batch_window: Duration::ZERO, segment_size: 1 << 16 },
            Arc::new(WalMetrics::default()),
            20,
        );
        assert_eq!(replay.len(), 30);
        assert_eq!(replay[0].lsn, 21);
        assert_eq!(replay[0].payload, payload(20));
        assert_eq!(replay.last().unwrap().lsn, 50);
        // The recovered log resumes the LSN sequence.
        assert_eq!(wal2.append(b"next").unwrap(), 51);
        wal2.wait_durable(51).unwrap();
    }

    #[test]
    fn drop_flushes_outstanding_appends() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let wal = fresh(dev.clone(), 5_000, 1 << 16);
        for i in 0..10u64 {
            wal.append(&payload(i)).unwrap();
        }
        drop(wal); // orderly shutdown must drain the pending group
        let (_w, replay) = Wal::recover(
            dev,
            WalConfig::default(),
            Arc::new(WalMetrics::default()),
            0,
        );
        assert_eq!(replay.len(), 10);
    }

    #[test]
    fn batch_window_groups_appends_into_fewer_commits() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let metrics = Arc::new(WalMetrics::default());
        let wal = Wal::with_metrics(
            dev,
            WalConfig {
                batch_window: Duration::from_millis(100),
                segment_size: 1 << 16,
            },
            metrics.clone(),
        );
        for i in 0..8u64 {
            wal.append(&payload(i)).unwrap();
        }
        wal.wait_durable(8).unwrap();
        let commits = metrics.commits.get();
        assert!(commits < 8, "expected grouping, got {commits} commits for 8 appends");
        assert!(metrics.group_size.snapshot().max >= 2);
        assert_eq!(metrics.appends.get(), 8);
    }

    #[test]
    fn records_never_span_segments_and_hop_recovers() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        // Tiny segments force hops: 512-byte segment, ~40-byte records.
        let wal = fresh(dev.clone(), 0, 512);
        let n = 100u64;
        for i in 0..n {
            wal.append(&payload(i)).unwrap();
        }
        wal.wait_durable(n).unwrap();
        drop(wal);
        let (_w, replay) = Wal::recover(
            dev,
            WalConfig { batch_window: Duration::ZERO, segment_size: 512 },
            Arc::new(WalMetrics::default()),
            0,
        );
        assert_eq!(replay.len(), n as usize);
        for (i, r) in replay.iter().enumerate() {
            assert_eq!(r.lsn, i as u64 + 1);
            assert_eq!(r.payload, payload(i as u64));
        }
    }

    #[test]
    fn oversized_record_is_rejected() {
        let wal = fresh(MemDevice::new(1), 0, 512);
        assert!(wal.append(&[0u8; 512]).is_err());
        assert!(wal.append(&[0u8; 256]).is_ok());
    }

    #[test]
    fn torn_suffix_is_cut_at_the_checksum() {
        let dev = MemDevice::new(1);
        let wal = fresh(dev.clone(), 0, 1 << 16);
        for i in 0..20u64 {
            wal.append(&payload(i)).unwrap();
        }
        wal.wait_durable(20).unwrap();
        drop(wal);
        // Corrupt one byte of record 15's payload directly on the device:
        // replay must stop before it, keeping the valid prefix only.
        let scan = scan_device(&(dev.clone() as Arc<dyn Device>), 1 << 16);
        assert_eq!(scan.records.len(), 20);
        let mut off = 0u64;
        for r in &scan.records[..14] {
            off += (RECORD_HEADER + r.payload.len()) as u64;
        }
        dev.write_blocking(off + RECORD_HEADER as u64, vec![0xFF; 4]).unwrap();

        let (_w, replay) = Wal::recover(
            dev,
            WalConfig::default(),
            Arc::new(WalMetrics::default()),
            0,
        );
        assert_eq!(replay.len(), 14, "scan must stop at the corrupt record");
        assert_eq!(replay.last().unwrap().lsn, 14);
    }

    #[test]
    fn truncation_reclaims_whole_segments_only() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let wal = fresh(dev.clone(), 0, 512);
        for i in 0..100u64 {
            wal.append(&payload(i)).unwrap();
        }
        wal.wait_durable(100).unwrap();
        wal.truncate_below_lsn(50);
        drop(wal);
        let (_w, replay) = Wal::recover(
            dev,
            WalConfig { batch_window: Duration::ZERO, segment_size: 512 },
            Arc::new(WalMetrics::default()),
            50,
        );
        // Every record above the cutoff must survive truncation; records at
        // or below it may or may not (whole segments only).
        assert_eq!(replay.first().map(|r| r.lsn), Some(51));
        assert_eq!(replay.last().map(|r| r.lsn), Some(100));
        assert_eq!(replay.len(), 50);
    }

    #[test]
    fn failed_barrier_never_acks_the_group() {
        let metrics = Arc::new(WalMetrics::default());
        let dev = FaultDevice::wrap(MemDevice::new(1));
        dev.fail_flush_at(0);
        let wal = Wal::with_metrics(
            dev.clone(),
            WalConfig::default(),
            metrics.clone(),
        );
        let lsn = wal.append(b"doomed").unwrap();
        let err = wal.wait_durable(lsn);
        assert!(err.is_err(), "a failed barrier must fail the commit");
        assert_eq!(wal.durable_lsn(), 0, "the group must never be acked");
        assert_eq!(metrics.commits.get(), 0);
        assert_eq!(metrics.commit_failures.get(), 1);
        // The failure is sticky: later appends and polls see it too.
        assert!(wal.append(b"later").is_err());
        assert!(matches!(wal.poll_durable(lsn), Some(Err(_))));
        assert!(wal.failure().is_some());
    }

    #[test]
    fn crashed_flush_cuts_recovery_at_last_acked_group() {
        let inner = MemDevice::new(1);
        let dev = FaultDevice::wrap(inner.clone());
        let wal = fresh(dev.clone(), 0, 1 << 16);
        wal.append(&payload(1)).unwrap();
        wal.wait_durable(1).unwrap(); // group 1 acked (fsn 0)
        dev.arm_crash_at_flush(0); // next barrier = crash point
        let lsn = wal.append(&payload(2)).unwrap();
        assert!(wal.wait_durable(lsn).is_err());
        assert_eq!(wal.durable_lsn(), 1);
        drop(wal);
        // The crash-point group's write persisted (prefix model) but was
        // never acked; replay may surface it — recovery semantics only
        // promise acked records are present. Here the surviving image holds
        // both, and both checksum-verify.
        let (_w, replay) =
            Wal::recover(inner, WalConfig::default(), Arc::new(WalMetrics::default()), 0);
        assert!(replay.iter().any(|r| r.lsn == 1), "acked record must survive");
    }

    #[test]
    fn generation_guards_against_stale_torn_suffix() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let wal = fresh(dev.clone(), 0, 1 << 16);
        wal.append(&payload(1)).unwrap();
        wal.wait_durable(1).unwrap();
        drop(wal);
        // First recovery bumps the generation; new records carry gen 2.
        let (wal2, replay) =
            Wal::recover(dev.clone(), WalConfig::default(), Arc::new(WalMetrics::default()), 0);
        assert_eq!(replay.len(), 1);
        wal2.append(&payload(2)).unwrap();
        wal2.wait_durable(2).unwrap();
        drop(wal2);
        let (_w, replay2) =
            Wal::recover(dev, WalConfig::default(), Arc::new(WalMetrics::default()), 0);
        assert_eq!(replay2.len(), 2, "gen 1 then gen 2 records chain fine");
    }

    #[test]
    fn notify_durable_delivers_cqes_for_acked_groups() {
        let dev: Arc<dyn Device> = MemDevice::new(1);
        let wal = fresh(dev, 2_000, 1 << 16);
        let ring = Arc::new(CompletionRing::new());
        let lsn = wal.append(b"hello").unwrap();
        wal.notify_durable(lsn, 42, &ring);
        // Park on the ring until the group commits — no condvar involved.
        let mut out = Vec::new();
        while out.is_empty() {
            ring.wait_nonempty(Duration::from_millis(50));
            ring.reap(&mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 42);
        assert!(out[0].result.is_ok());
        // Already durable: the CQE is pushed synchronously.
        wal.notify_durable(lsn, 43, &ring);
        out.clear();
        assert_eq!(ring.reap(&mut out), 1);
        assert_eq!(out[0].id, 43);
        // LSN 0 (nothing appended) is trivially durable.
        wal.notify_durable(0, 44, &ring);
        out.clear();
        assert_eq!(ring.reap(&mut out), 1);
    }

    #[test]
    fn notify_durable_fails_notices_on_sticky_failure() {
        let dev = FaultDevice::wrap(MemDevice::new(1));
        dev.fail_flush_at(0);
        let wal = Wal::new(dev, WalConfig { batch_window: Duration::from_millis(20), segment_size: 1 << 16 });
        let ring = Arc::new(CompletionRing::new());
        let lsn = wal.append(b"doomed").unwrap();
        wal.notify_durable(lsn, 7, &ring);
        let mut out = Vec::new();
        while out.is_empty() {
            ring.wait_nonempty(Duration::from_millis(50));
            ring.reap(&mut out);
        }
        assert_eq!(out[0].id, 7);
        assert!(out[0].result.is_err(), "failed group must fail its notices");
        // Registrations after the failure learn it immediately.
        wal.notify_durable(lsn, 8, &ring);
        out.clear();
        assert_eq!(ring.reap(&mut out), 1);
        assert!(out[0].result.is_err());
    }

    #[test]
    fn concurrent_appenders_all_become_durable() {
        let dev: Arc<dyn Device> = MemDevice::new(2);
        let wal = fresh(dev, 200, 1 << 16);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..64u64 {
                    let lsn = wal.append(&payload(t * 1000 + i)).unwrap();
                    wal.wait_durable(lsn).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wal.last_appended_lsn(), 8 * 64);
        assert_eq!(wal.durable_lsn(), 8 * 64);
    }
}
