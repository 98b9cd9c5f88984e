//! # faster-wal
//!
//! A group-committed user-space write-ahead log for per-operation
//! durability.
//!
//! The paper's CPR checkpoints (§6.5) bound loss to "everything after the
//! last checkpoint's t2"; some deployments need the stricter contract that a
//! *acknowledged* operation survives any crash. This crate provides that as a
//! sidecar log: sessions append one record per mutating operation and learn
//! durability when the record's **group** is flushed. There is no commit
//! thread. Whoever waits on records that no group has taken yet *leads*
//! them: it takes everything staged, writes it with one device write, and
//! queues one sync barrier behind it whose completion lands in the leader's
//! own ring — the way the paper's sessions drive their own I/O completions
//! (`CompletePending`, §5.3). One barrier covers every session in the
//! group, which is what makes per-op durability affordable at high session
//! counts.
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
//! ## Append: laid out once, at its final offset
//!
//! [`Wal::append_with`] does all of its work under the one log mutex: it
//! assigns the LSN, decides segment padding, and reserves the record's bytes
//! in the **staging buffer** — the next group's device block, already laid
//! out at its final log offsets. The caller's `fill` writes the payload
//! straight into that reservation and the record is checksummed in place, so
//! a record is copied once, into the block the device will write. Because
//! `fill` runs after the LSN is assigned, anything it reads is ordered after
//! every lower-LSN append.
//!
//! ## Group commit and sector alignment
//!
//! Each group is written as one sector-aligned device write. The tail
//! usually ends mid-sector, so every staging buffer *begins* with the byte
//! image of the partial tail sector and the group write re-writes it. The
//! rewritten prefix is byte-identical to what is already on disk, so a torn
//! group write can never damage previously acked records — the
//! prefix-persisted crash model keeps them intact no matter where the tear
//! lands.
//!
//! A group is **kicked**: the whole staging buffer becomes its block and a
//! spare seeded with the new tail-sector image takes its place; the write
//! goes to the log's own ring and a [`Device::submit_sync`] barrier to the
//! leader's ring, as a [`Wal::SYNC_CQE`]. One group is in flight at a time.
//! The write's CQE hands the block back and it becomes the next spare: two
//! buffers alternate, so in steady state nobody allocates per group. What
//! kicks is [`Wal::notify_durable`] on an idle log (a session's
//! once-per-pass durability request, or a blocking [`Wal::wait_durable`],
//! which first lingers for [`WalConfig::batch_window`]); an append that
//! finds the stage past 64 KiB with no group in flight, so a bulk load that
//! never waits still commits in bounded memory; and dropping the log, so
//! staged records still reach the device.
//!
//! An append has no ring of its own and does not wait: the sync of a group
//! it leads goes to a ring the log owns, and the next full-stage append or
//! the first waiter — whichever comes first — reaps it before anything
//! else. A bulk load's device time therefore overlaps its appends.
//!
//! ## Durability waits
//!
//! What is durable is one watermark, [`Wal::durable_lsn`]: every record at
//! or below it. The leader publishes it. Handing the reaped sync CQE to
//! [`Wal::reap_sync`] stores the group's last LSN, pushes a notice CQE into
//! every other covered waiter's ring, and kicks the next staged group into
//! the ring of a waiter it does not yet cover — so the sync of every group
//! a waiter leads is bound for a ring whose owner is waiting, and a waiter
//! never waits on a group an append leads without reaping it itself. None
//! of this runs in a device completion or a ring waker, and the reaper
//! pushes no notice into the ring it is reaping, so it never wakes itself.
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
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Log sequence number. 1-based; 0 means "nothing" (no record, no coverage).
pub type Lsn = u64;

/// Bytes of the per-record header.
pub const RECORD_HEADER: usize = 24;

/// Capacity each staging buffer is given and keeps between groups (a
/// multiple of any sector size). An append that finds the stage past it
/// with no group in flight kicks one; appends while a group is in flight
/// grow the buffer, and [`Wal::reap_sync`] trims it back before reuse.
const STAGE_CAPACITY: usize = 64 << 10;

/// Re-check bound for a waiter parked on its ring; a CQE wakes it sooner.
const PARK: Duration = Duration::from_millis(100);

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// How long a blocking [`Wal::wait_durable`] lingers before it leads a
    /// group, to let more sessions join before the single sync. Zero =
    /// commit as fast as the device allows (groups still form while a sync
    /// is in flight).
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

/// A registered durability notice ([`Wal::notify_durable`]): when every LSN
/// ≤ `lsn` is durable (or the log fails), a [`Cqe`] carrying `id` is pushed
/// into `ring`.
struct Notice {
    lsn: Lsn,
    id: u64,
    ring: Arc<CompletionRing>,
}

impl Notice {
    fn deliver(&self, result: Result<(), IoError>) {
        self.ring.push(Cqe { id: self.id, result: result.map(|()| Vec::new()) });
    }
}

/// The group on the device: its write completes into the log's own ring,
/// its sync into its leader's.
struct Group {
    last_lsn: Lsn,
    records: u64,
    /// When its first record was appended (commit latency).
    started: Instant,
    /// Led by an append: its sync completes into `Wal::appends`.
    by_append: bool,
}

struct WalState {
    /// Logical end of the log: the byte after the last staged record (or
    /// pad).
    tail: u64,
    next_lsn: Lsn,
    generation: u32,
    /// The next group's device block, covering `[tail - stage.len(), tail)`:
    /// the image of the partial tail sector already on disk (sector-aligned
    /// start, rewritten byte-identically), then every record appended since
    /// the last kick.
    stage: Vec<u8>,
    /// Records in `stage`.
    staged: u64,
    /// When the first record in `stage` was appended.
    group_started: Instant,
    /// The group whose write and sync are outstanding; `None` = idle, and
    /// every record above the watermark is staged.
    in_flight: Option<Group>,
    /// The last group's block, handed back by its write CQE: the next stage.
    spare: Vec<u8>,
    /// `(offset, first lsn)` of every segment that holds records, for
    /// LSN-addressed truncation.
    segment_starts: Vec<(u64, Lsn)>,
    /// Sticky group-commit failure: set once, never cleared.
    failed: Option<IoError>,
    /// Waiters on LSNs not yet durable. Only while a group a waiter leads is
    /// in flight: its reap answers the covered ones and leads the next group
    /// for the rest.
    notices: Vec<Notice>,
}

/// The group-committed write-ahead log. See module docs.
pub struct Wal {
    device: Arc<dyn Device>,
    cfg: WalConfig,
    metrics: Arc<WalMetrics>,
    state: Mutex<WalState>,
    /// Highest LSN known durable (all LSNs ≤ this are durable).
    durable: AtomicU64,
    /// Where group writes complete; read by whoever reaps the group's sync.
    writes: Arc<CompletionRing>,
    /// Where the sync of a group an append led completes.
    appends: Arc<CompletionRing>,
    /// Held while reaping `appends`, whose one CQE only one thread can take.
    append_reaper: Mutex<()>,
}

impl Wal {
    /// The id of a group's sync CQE in its leader's ring: hand that CQE to
    /// [`Wal::reap_sync`].
    pub const SYNC_CQE: u64 = u64::MAX;

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
        Self::start(device, cfg, metrics, ScanResult::default(), 0)
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
        let mut stage = Vec::with_capacity(STAGE_CAPACITY);
        stage.extend_from_slice(&scan.tail_sector);
        Arc::new(Self {
            device,
            cfg,
            metrics,
            state: Mutex::new(WalState {
                tail: scan.tail,
                next_lsn: last + 1,
                generation: scan.max_generation + 1,
                stage,
                staged: 0,
                group_started: Instant::now(),
                in_flight: None,
                spare: Vec::with_capacity(STAGE_CAPACITY),
                segment_starts: scan.segment_starts,
                failed: None,
                notices: Vec::new(),
            }),
            // Everything that survived on disk is durable by definition.
            durable: AtomicU64::new(scan.last_lsn),
            writes: Arc::new(CompletionRing::new()),
            appends: Arc::new(CompletionRing::new()),
            append_reaper: Mutex::new(()),
        })
    }

    /// Appends one record of `len` payload bytes and returns its LSN. Under
    /// the log mutex the record is assigned its LSN and laid out at its
    /// final offset in the next group's block; `fill` then writes the
    /// payload there and the record is checksummed in place.
    ///
    /// `fill` runs under the mutex, **after** the LSN is assigned, so what
    /// it reads is ordered after every lower-LSN append: a caller that reads
    /// shared state inside `fill` logs it in LSN order. Keep it short — every
    /// appender waits behind it.
    ///
    /// The record is **not durable** yet: pair with [`Wal::wait_durable`] /
    /// [`Wal::notify_durable`]. An append that leaves the stage past its
    /// capacity leads it as a group unless one is in flight — first reaping
    /// the previous group an append led, if that is the one. Fails if the
    /// record cannot fit in a segment or the log has already hit a sticky
    /// commit failure.
    pub fn append_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Result<Lsn, IoError> {
        let seg = self.cfg.segment_size;
        let total = RECORD_HEADER + len;
        if total as u64 > seg {
            return Err(IoError::Failed(format!(
                "WAL record of {total} bytes exceeds segment size {seg}"
            )));
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        let room = seg - st.tail % seg;
        if room < total as u64 {
            // Records never span segments: zero-pad to the boundary.
            st.stage.resize(st.stage.len() + room as usize, 0);
            st.tail += room;
        }
        if st.tail.is_multiple_of(seg) {
            st.segment_starts.push((st.tail, lsn));
        }
        if st.staged == 0 {
            st.group_started = Instant::now();
        }
        st.staged += 1;
        st.tail += total as u64;
        let start = st.stage.len();
        st.stage.resize(start + total, 0);
        let rec = &mut st.stage[start..];
        rec[8..16].copy_from_slice(&lsn.to_le_bytes());
        rec[16..20].copy_from_slice(&(len as u32).to_le_bytes());
        rec[20..24].copy_from_slice(&st.generation.to_le_bytes());
        fill(&mut rec[RECORD_HEADER..]);
        let sum = faster_util::hash_bytes(&rec[8..]);
        rec[..8].copy_from_slice(&sum.to_le_bytes());
        self.metrics.appends.inc();
        self.metrics.bytes.add(total as u64);
        let full = st.stage.len() > STAGE_CAPACITY;
        drop(guard);
        if full {
            self.reap_append_led();
            let st = self.state.lock().unwrap();
            if st.in_flight.is_none() && st.failed.is_none() {
                self.kick(st, &self.appends, true);
            }
        }
        Ok(lsn)
    }

    /// Waits for the sync of the group in flight and publishes it, if an
    /// append led that group: whoever touches the log next owns it.
    fn reap_append_led(&self) {
        let _reaper = self.append_reaper.lock().unwrap();
        if self.state.lock().unwrap().in_flight.as_ref().is_some_and(|g| g.by_append) {
            // A failed group is sticky: every later wait reports it.
            let _ = self.reap_sync(self.appends.wait_one(), &self.appends);
        }
    }

    /// Appends one record holding `payload`; see [`Wal::append_with`].
    pub fn append(&self, payload: &[u8]) -> Result<Lsn, IoError> {
        self.append_with(payload.len(), |out| out.copy_from_slice(payload))
    }

    /// Blocks until every record with LSN ≤ `lsn` is durable, or the log
    /// fails. An `Err` means the record's group was **never acknowledged**.
    /// Lingers for the batch window, then waits on a private ring — leading
    /// the staged group itself if the log is idle.
    pub fn wait_durable(&self, lsn: Lsn) -> Result<(), IoError> {
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        std::thread::sleep(self.cfg.batch_window); // a zero window does not sleep
        self.wait_on(lsn, &Arc::new(CompletionRing::new()))
    }

    /// Parks on the private `ring` until `lsn` is durable or the log fails,
    /// reaping the sync of any group the wait leads.
    fn wait_on(&self, lsn: Lsn, ring: &Arc<CompletionRing>) -> Result<(), IoError> {
        self.notify_durable(lsn, 0, ring);
        let mut cqes = Vec::new();
        while self.durable_lsn() < lsn {
            while ring.reap(&mut cqes) == 0 {
                ring.wait_nonempty(PARK);
            }
            for cqe in cqes.drain(..) {
                match cqe.id {
                    Self::SYNC_CQE => self.reap_sync(cqe.result, ring)?,
                    _ => cqe.result.map(drop)?,
                }
            }
        }
        Ok(())
    }

    /// Asks for one CQE in `ring` once every record with LSN ≤ `lsn` is
    /// durable: a [`Cqe`] echoing `id` (empty bytes), or the error if the
    /// log fails first. It is pushed at once when the answer is known (the
    /// LSN is durable, or the log has failed); while a group is in flight it
    /// waits as a notice. On an idle log — every record above the watermark
    /// staged — the caller instead **leads** the staged group, which covers
    /// `lsn`: its sync CQE lands in `ring` as [`Wal::SYNC_CQE`].
    ///
    /// A notice can also become a lead: the reap of the group in flight
    /// kicks the next group into the ring of a waiter it does not cover. So
    /// whoever passes a ring here must keep reaping it and hand any
    /// `SYNC_CQE` to [`Wal::reap_sync`] — every later group waits on that.
    /// This is the log's one durability route: a consumer multiplexing a
    /// [`CompletionRing`] (disk reads, socket readiness) learns group-commit
    /// durability through the same reap loop, and [`Wal::wait_durable`]
    /// parks on a private ring for it.
    pub fn notify_durable(&self, lsn: Lsn, id: u64, ring: &Arc<CompletionRing>) {
        let mut st = self.state.lock().unwrap();
        // Checked under the lock, so no reap can answer its notices between
        // the check and the registration.
        let answer = loop {
            if self.durable_lsn() >= lsn {
                break Ok(());
            }
            if let Some(e) = st.failed.clone() {
                break Err(e);
            }
            match &st.in_flight {
                None => return self.kick(st, ring, false),
                // Nobody is woken by the sync of a group an append leads:
                // the first waiter reaps it before it waits on anything.
                Some(g) if g.by_append => {
                    drop(st);
                    self.reap_append_led();
                    st = self.state.lock().unwrap();
                }
                Some(_) => return st.notices.push(Notice { lsn, id, ring: Arc::clone(ring) }),
            }
        };
        drop(st);
        ring.push(Cqe { id, result: answer.map(|()| Vec::new()) });
    }

    /// Kicks the staged group: takes the stage as its block under the lock,
    /// then submits the write into the log's own ring and the sync behind
    /// it into the leader's `ring`.
    fn kick(&self, mut st: MutexGuard<'_, WalState>, ring: &Arc<CompletionRing>, by_append: bool) {
        let sector = self.device.sector_size() as u64;
        let tail = st.tail;
        let write_off = tail - st.stage.len() as u64;
        debug_assert_eq!(write_off % sector, 0);
        // The spare replaces the stage, seeded with the new partial tail
        // sector — the identical prefix the next group rewrites, so tearing
        // that write cannot damage this group.
        let spare = std::mem::take(&mut st.spare);
        let mut block = std::mem::replace(&mut st.stage, spare);
        let sector_start = (tail / sector * sector - write_off) as usize;
        st.stage.extend_from_slice(&block[sector_start..]);
        let records = std::mem::take(&mut st.staged);
        let started = st.group_started;
        st.in_flight = Some(Group { last_lsn: st.next_lsn - 1, records, started, by_append });
        drop(st);
        block.resize(block.len().next_multiple_of(sector as usize), 0);
        self.device.submit(Sqe::write(0, write_off, block, &self.writes));
        self.device.submit_sync(Self::SYNC_CQE, ring);
    }

    /// Publishes the group a reaped [`Wal::SYNC_CQE`] answers; its leader,
    /// the owner of `ring`, hands the CQE's result here. The group's write
    /// has completed by then. On success the group's last LSN becomes the
    /// watermark, every other ring with a covered notice gets its CQE, and
    /// the next staged group is led into the ring of the first waiter it
    /// does not cover. On failure the log fails for good, every other
    /// waiter learns it, and the error is returned.
    pub fn reap_sync(
        &self,
        synced: Result<Vec<u8>, IoError>,
        ring: &Arc<CompletionRing>,
    ) -> Result<(), IoError> {
        let written = self.writes.wait_one();
        let mut st = self.state.lock().unwrap();
        let group = st.in_flight.take().expect("a sync CQE answers the group in flight");
        let mine = |n: &Notice| Arc::ptr_eq(&n.ring, ring);
        let mut block = match written.and_then(|block| synced.map(|_| block)) {
            Ok(block) => block,
            Err(e) => {
                // Sticky: the group (and everything after) is never acked.
                self.metrics.commit_failures.inc();
                st.failed = Some(e.clone());
                for n in std::mem::take(&mut st.notices).iter().filter(|n| !mine(n)) {
                    n.deliver(Err(e.clone()));
                }
                return Err(e);
            }
        };
        block.clear();
        block.shrink_to(STAGE_CAPACITY);
        block.reserve(STAGE_CAPACITY);
        st.spare = block;
        self.durable.store(group.last_lsn, Ordering::SeqCst);
        self.metrics.commits.inc();
        self.metrics.group_size.record(group.records);
        self.metrics.commit_latency.record(group.started.elapsed().as_nanos() as u64);
        // Everything above the watermark is staged, so the group kicked into
        // the first uncovered waiter's ring covers every notice left.
        let next = st.notices.iter().find(|n| n.lsn > group.last_lsn).map(|n| n.ring.clone());
        st.notices.retain(|n| {
            let covered = n.lsn <= group.last_lsn;
            if covered && !mine(n) {
                n.deliver(Ok(()));
            }
            !covered
        });
        if let Some(leader) = next {
            self.kick(st, &leader, false);
        }
        Ok(())
    }

    /// Highest LSN known durable (0 = none).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable.load(Ordering::SeqCst)
    }

    /// Highest LSN handed out by [`Wal::append_with`] (0 = none).
    pub fn last_appended_lsn(&self) -> Lsn {
        self.state.lock().unwrap().next_lsn - 1
    }

    /// The sticky failure, if the log has hit one.
    pub fn failure(&self) -> Option<IoError> {
        self.state.lock().unwrap().failed.clone()
    }

    /// Reclaims whole segments whose records are all ≤ `lsn` (typically a
    /// checkpoint's recorded WAL truncation point). Conservative: a segment
    /// survives unless every byte below its start is covered.
    pub fn truncate_below_lsn(&self, lsn: Lsn) {
        let mut st = self.state.lock().unwrap();
        let mut cut = 0u64;
        for &(off, first) in &st.segment_starts {
            // Records strictly below `off` all have LSN < `first`.
            if first <= lsn + 1 {
                cut = cut.max(off);
            }
        }
        if cut > 0 {
            st.segment_starts.retain(|&(off, _)| off >= cut);
            self.device.truncate_below(cut);
        }
    }

    /// The device this log writes to.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }
}

impl Drop for Wal {
    /// Staged records still reach the device: the drop leads them. A group a
    /// waiter leads that is still in flight lost its leader with the last
    /// handle on the log, and is left to the device.
    fn drop(&mut self) {
        if self.state.lock().is_ok_and(|st| st.in_flight.as_ref().is_none_or(|g| g.by_append)) {
            let _ = self.wait_on(self.last_appended_lsn(), &Arc::new(CompletionRing::new()));
        }
    }
}

/// What [`scan_device`] found; the default is a fresh, empty log.
#[derive(Default)]
struct ScanResult {
    records: Vec<WalRecord>,
    tail: u64,
    last_lsn: Lsn,
    max_generation: u32,
    tail_sector: Vec<u8>,
    segment_starts: Vec<(u64, Lsn)>,
}

/// Walks the surviving log: skips truncated front segments, validates each
/// record (checksum, LSN continuity, generation monotonicity), stops at the
/// first invalid one — the torn-record cutoff.
fn scan_device(device: &Arc<dyn Device>, seg: u64) -> ScanResult {
    let sector = device.sector_size() as u64;
    let mut out = ScanResult::default();

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
        // Rebuild the partial-tail-sector image the next group rewrites.
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

    /// Parks on `ring` until exactly one CQE is in it, and returns it.
    fn reap_one(ring: &CompletionRing) -> Cqe {
        let mut out = Vec::new();
        while ring.reap(&mut out) == 0 {
            ring.wait_nonempty(Duration::from_millis(50));
        }
        assert_eq!(out.len(), 1, "one CQE expected");
        out.pop().unwrap()
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
        // The failure is sticky: later appends and waits see it too.
        assert!(wal.append(b"later").is_err());
        assert!(wal.failure().is_some());
        assert!(wal.wait_durable(lsn).is_err());
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

    /// On an idle log a notice leads: the staged group's sync CQE lands in
    /// the caller's ring, and only handing it to `reap_sync` publishes the
    /// watermark and answers the other waiters.
    #[test]
    fn notify_durable_delivers_cqes_for_acked_groups() {
        let wal = fresh(MemDevice::new(1), 0, 1 << 16);
        let (leader, other) = (Arc::new(CompletionRing::new()), Arc::new(CompletionRing::new()));
        let lsn = wal.append(b"hello").unwrap();
        wal.notify_durable(lsn, 42, &leader);
        // A group is in flight now: this registration waits as a notice.
        wal.notify_durable(lsn, 43, &other);
        let sync = reap_one(&leader);
        assert_eq!(sync.id, Wal::SYNC_CQE);
        assert_eq!(wal.durable_lsn(), 0, "the device alone publishes nothing");
        wal.reap_sync(sync.result, &leader).unwrap();
        assert_eq!(wal.durable_lsn(), lsn);
        let notice = reap_one(&other);
        assert_eq!((notice.id, notice.result), (43, Ok(Vec::new())));
        // Already durable: the CQE is pushed synchronously.
        wal.notify_durable(lsn, 44, &other);
        assert_eq!(reap_one(&other).id, 44);
        // LSN 0 (nothing appended) is trivially durable.
        wal.notify_durable(0, 45, &other);
        assert_eq!(reap_one(&other).id, 45);
        assert!(leader.is_empty(), "the reaper pushes no notice into its own ring");
    }

    /// A reaped group leads the next one into the ring of a waiter it does
    /// not cover, in place of that waiter's notice.
    #[test]
    fn reap_leads_the_next_group_into_an_uncovered_waiter() {
        let wal = fresh(MemDevice::new(1), 0, 1 << 16);
        let (a, b) = (Arc::new(CompletionRing::new()), Arc::new(CompletionRing::new()));
        let first = wal.append(b"first").unwrap();
        wal.notify_durable(first, 1, &a);
        let second = wal.append(b"second").unwrap();
        wal.notify_durable(second, 2, &b);
        let sync = reap_one(&a);
        wal.reap_sync(sync.result, &a).unwrap();
        assert_eq!(wal.durable_lsn(), first);
        let sync = reap_one(&b);
        assert_eq!(sync.id, Wal::SYNC_CQE, "b leads the group holding its record");
        wal.reap_sync(sync.result, &b).unwrap();
        assert_eq!(wal.durable_lsn(), second);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn notify_durable_fails_notices_on_sticky_failure() {
        let dev = FaultDevice::wrap(MemDevice::new(1));
        dev.fail_flush_at(0);
        let wal = Wal::new(dev, WalConfig::default());
        let (leader, other) = (Arc::new(CompletionRing::new()), Arc::new(CompletionRing::new()));
        let lsn = wal.append(b"doomed").unwrap();
        wal.notify_durable(lsn, 7, &leader);
        wal.notify_durable(lsn, 8, &other);
        let sync = reap_one(&leader);
        assert!(wal.reap_sync(sync.result, &leader).is_err(), "the leader learns the failure");
        let notice = reap_one(&other);
        assert_eq!(notice.id, 8);
        assert!(notice.result.is_err(), "failed group must fail its notices");
        // Registrations after the failure learn it immediately.
        wal.notify_durable(lsn, 9, &other);
        assert!(reap_one(&other).result.is_err());
    }

    /// Groups are cut by kicks, not by scheduling: each round's one wait
    /// commits exactly the round's 64 appends.
    #[test]
    fn one_wait_commits_one_group() {
        let metrics = Arc::new(WalMetrics::default());
        let wal = Wal::with_metrics(MemDevice::new(1), WalConfig::default(), metrics.clone());
        for group in 0..1_000u64 {
            let mut lsn = 0;
            for i in 0..64 {
                lsn = wal.append(&payload(group * 64 + i)).unwrap();
            }
            wal.wait_durable(lsn).unwrap();
        }
        assert_eq!(metrics.appends.get(), 64_000);
        assert_eq!(metrics.commits.get(), 1_000);
    }

    /// Appends that never wait still commit, a stage's worth at a time: each
    /// full stage reaps the group the previous one led and leads its own.
    #[test]
    fn a_full_stage_leads_a_group() {
        let metrics = Arc::new(WalMetrics::default());
        let wal = Wal::with_metrics(MemDevice::new(1), WalConfig::default(), metrics.clone());
        let records = 5 * STAGE_CAPACITY as u64 / 64;
        for i in 0..records {
            wal.append(&[i as u8; 40]).unwrap();
        }
        let commits = metrics.commits.get();
        assert!(commits >= 3, "{commits} groups committed for five stages of appends");
        assert!(wal.durable_lsn() > 0);
        // A waiter reaps the group the last full stage led, then leads the rest.
        wal.wait_durable(records).unwrap();
        assert_eq!(wal.durable_lsn(), records);
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
