//! Fault-injection device for crash-consistency testing.
//!
//! [`FaultDevice`] wraps any [`Device`] with a *scripted fault plan*: crash
//! points indexed by write sequence number, torn (prefix-persisted) page
//! writes, acknowledged-but-dropped flushes, and transient read failures —
//! the failure modes a real SSD exhibits at power loss (§5.3's async I/O
//! stack meets an unplugged machine).
//!
//! ## Persistence model
//!
//! The model is **prefix-persisted at write granularity**: every write the
//! device accepted before the crash point survives in full, the crash-point
//! write itself survives only a leading prefix (possibly empty — see
//! [`TornWrite`]), and nothing after the crash point survives at all. After
//! the crash the device refuses every further write, read, and barrier with
//! [`IoError::Failed`], exactly like a controller that dropped off the bus.
//! The wrapped inner device therefore holds, at all times, *exactly* the
//! byte image a post-crash recovery would find on disk — recover from it
//! directly.
//!
//! Dropped flushes ([`FaultDomain::drop_write_at`]) model a volatile write
//! cache that lies: the write is acknowledged `Ok` to the caller but never
//! reaches the inner device. Transient read faults model bus resets / ECC
//! hiccups: the scripted read attempt fails with [`IoError::Failed`], while
//! a retry (a later read sequence number) succeeds. Transient **write**
//! faults ([`FaultDomain::fail_write_at`] / [`FaultDomain::fail_next_writes`]
//! / [`FaultDomain::set_write_fault_rate`]) are the write-side mirror: the
//! scripted write fails with [`IoError::Failed`] and persists nothing, but
//! the device stays alive and a resubmission (a later write sequence
//! number) succeeds — the `EIO`-then-fine behavior the flush-retry path
//! must survive. A scripted capacity limit
//! ([`FaultDomain::set_full_after_bytes`]) fails every write that would
//! push the forwarded byte total past the limit with [`IoError::Full`]
//! (permanent until the limit is raised), modelling a disk running out of
//! space mid-flush.
//!
//! Every decision is keyed on a monotone sequence number (writes, reads,
//! and flush barriers counted separately, in submission order), so a fault
//! schedule is a pure value: seed + crash point fully determine which bytes
//! survive, which is what lets the recovery test framework sweep crash
//! points and replay any failure.
//!
//! ## Fault domains
//!
//! A power failure takes down every device in the machine at once. When a
//! store spreads its bytes over more than one device (the HybridLog file
//! plus the checkpoint manifest/blob file), wrap each in a [`FaultDevice`]
//! sharing one [`FaultDomain`]: the domain owns a single write/read/flush
//! sequence space and a single crashed flag, so "crash at the k-th write"
//! sweeps the *interleaved* write stream of all member devices, and the
//! crash halts all of them together. [`FaultDevice::wrap`] creates a
//! private single-device domain, which preserves the original behavior.
//!
//! Crashes can also be armed on **flush boundaries**
//! ([`FaultDomain::arm_crash_at_flush`]): the k-th barrier from now (a
//! `submit_sync` or a `flush_barrier`, counted when submitted) marks the
//! domain crashed — every write acknowledged before it persists,
//! every operation after it is refused — modelling power loss at the exact
//! fsync edge of a commit protocol. A crash-point barrier reports `Err`:
//! the sync never completed, so a commit protocol waiting on it must not
//! acknowledge its group.
//!
//! Barriers can additionally *fail without crashing*
//! ([`FaultDomain::fail_flush_at`]): the scripted `flush_barrier` returns
//! `Err` while the device stays alive — modelling a transient fsync error
//! (EIO from a full journal, a controller reset). Commit protocols must
//! treat such a barrier exactly like a crash for acking purposes: the
//! group's durability is unknown, so it must never be acknowledged.

use crate::ring::{CompletionRing, Cqe, Sqe, SqeOp};
use crate::{Device, DeviceStats, IoError, StatCells};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How much of the crash-point write survives (the prefix-persisted model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TornWrite {
    /// The crash-point write persists nothing: the crash hit just before
    /// the controller touched the medium.
    #[default]
    Nothing,
    /// The crash-point write persists exactly `min(n, len)` leading bytes —
    /// byte-granular tearing, harsher than real sector-atomic hardware.
    Bytes(usize),
    /// The crash-point write persists a whole number of leading sectors,
    /// chosen deterministically from `seed` and the write sequence number
    /// (any count in `0..=sectors` is possible). This is the realistic
    /// sector-atomic torn-write model.
    SeededSectors { seed: u64 },
}

/// Deterministic transient read-fault schedule: read sequence number `rsn`
/// fails iff `mix(seed, rsn) % den < num`. Retries draw fresh sequence
/// numbers, so a retried read eventually succeeds with probability 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFaultRate {
    pub seed: u64,
    pub num: u32,
    pub den: u32,
}

impl ReadFaultRate {
    fn hits(&self, rsn: u64) -> bool {
        debug_assert!(self.den > 0);
        let mixed = faster_util::hash_u64(self.seed ^ rsn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mixed % (self.den as u64) < self.num as u64
    }
}

/// The scripted fault plan. Sequence numbers are absolute (0-based, counted
/// from domain creation, in submission order).
#[derive(Debug, Default)]
struct FaultPlan {
    /// Write sequence number at which the domain crashes.
    crash_at_write: Option<u64>,
    /// Flush-barrier sequence number at which the domain crashes.
    crash_at_flush: Option<u64>,
    /// Surviving prefix of the crash-point write.
    torn: TornWrite,
    /// Writes acknowledged `Ok` but never persisted.
    drop_writes: HashSet<u64>,
    /// Individual reads that fail transiently.
    fail_reads: HashSet<u64>,
    /// Seeded transient read-fault rate.
    read_fault: Option<ReadFaultRate>,
    /// Unconditionally fail this many upcoming reads (parity with
    /// `MemDevice::fail_next_reads`).
    fail_next_reads: u32,
    /// Flush barriers that fail (return `Err`) without crashing the domain.
    fail_flushes: HashSet<u64>,
    /// Individual writes that fail transiently (error-returning, non-crash,
    /// nothing persisted).
    fail_writes: HashSet<u64>,
    /// Unconditionally fail this many upcoming writes (transient).
    fail_next_writes: u32,
    /// Seeded transient write-fault rate (same schedule math as reads,
    /// keyed on the write sequence number).
    write_fault: Option<ReadFaultRate>,
    /// Capacity limit: a write that would push the forwarded byte total
    /// past this fails with [`IoError::Full`].
    full_after_bytes: Option<u64>,
}

enum WriteDecision {
    Forward,
    /// Acknowledge `Ok` without persisting.
    AckDrop,
    /// Persist a prefix of this many bytes, then crash.
    Crash(usize),
    /// Fail with this error without persisting; the device stays alive.
    Fail(IoError),
    /// Already crashed: refuse.
    Refuse,
}

/// Shared crash state: one plan, one sequence space, one crashed flag for
/// every [`FaultDevice`] wrapped in it (see module docs, "Fault domains").
/// Cheap to clone.
#[derive(Clone)]
pub struct FaultDomain {
    state: Arc<DomainState>,
}

struct DomainState {
    plan: Mutex<FaultPlan>,
    wsn: AtomicU64,
    rsn: AtomicU64,
    fsn: AtomicU64,
    crashed: AtomicBool,
    /// Bytes forwarded to inner devices (the capacity-limit accumulator;
    /// dropped and failed writes don't count — they never hit the medium).
    bytes_forwarded: AtomicU64,
}

impl Default for FaultDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultDomain {
    /// A fresh domain with an empty (fault-free) plan.
    pub fn new() -> Self {
        Self {
            state: Arc::new(DomainState {
                plan: Mutex::new(FaultPlan::default()),
                wsn: AtomicU64::new(0),
                rsn: AtomicU64::new(0),
                fsn: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                bytes_forwarded: AtomicU64::new(0),
            }),
        }
    }

    /// Arms a crash at the `after`-th write *from now* (0 = the very next
    /// write, counted across every device in the domain), tearing that
    /// write per `torn`.
    pub fn arm_crash(&self, after: u64, torn: TornWrite) {
        let mut plan = self.state.plan.lock();
        plan.crash_at_write = Some(self.state.wsn.load(Ordering::SeqCst) + after);
        plan.torn = torn;
    }

    /// Arms a crash at the `after`-th flush barrier *from now* (0 = the
    /// very next barrier). Every write acknowledged before that barrier
    /// persists in full; the barrier itself and everything after is lost.
    pub fn arm_crash_at_flush(&self, after: u64) {
        self.state.plan.lock().crash_at_flush =
            Some(self.state.fsn.load(Ordering::SeqCst) + after);
    }

    /// Scripts the write `after` submissions from now to be acknowledged
    /// `Ok` but silently dropped (volatile-cache lie).
    pub fn drop_write_at(&self, after: u64) {
        self.state.plan.lock().drop_writes.insert(self.state.wsn.load(Ordering::SeqCst) + after);
    }

    /// Scripts the read `after` submissions from now to fail transiently.
    pub fn fail_read_at(&self, after: u64) {
        self.state.plan.lock().fail_reads.insert(self.state.rsn.load(Ordering::SeqCst) + after);
    }

    /// Scripts the flush barrier `after` barriers from now (0 = the very
    /// next one) to return `Err` without crashing the domain — a transient
    /// fsync failure. The barrier's group must never be acknowledged.
    pub fn fail_flush_at(&self, after: u64) {
        self.state.plan.lock().fail_flushes.insert(self.state.fsn.load(Ordering::SeqCst) + after);
    }

    /// Fails the next `n` reads unconditionally (transient).
    pub fn fail_next_reads(&self, n: u32) {
        self.state.plan.lock().fail_next_reads = n;
    }

    /// Installs (or clears) a seeded transient read-fault rate.
    pub fn set_read_fault_rate(&self, rate: Option<ReadFaultRate>) {
        self.state.plan.lock().read_fault = rate;
    }

    /// Scripts the write `after` submissions from now to fail transiently
    /// (error returned, nothing persisted, device stays alive).
    pub fn fail_write_at(&self, after: u64) {
        self.state.plan.lock().fail_writes.insert(self.state.wsn.load(Ordering::SeqCst) + after);
    }

    /// Fails the next `n` writes unconditionally (transient).
    pub fn fail_next_writes(&self, n: u32) {
        self.state.plan.lock().fail_next_writes = n;
    }

    /// Installs (or clears) a seeded transient write-fault rate (the same
    /// schedule math as [`ReadFaultRate`], keyed on write sequence numbers).
    pub fn set_write_fault_rate(&self, rate: Option<ReadFaultRate>) {
        self.state.plan.lock().write_fault = rate;
    }

    /// Scripts the device to run out of space after `n` more forwarded
    /// bytes: a write that would push the forwarded byte total past the
    /// limit fails with [`IoError::Full`]. `None` clears the limit.
    pub fn set_full_after_bytes(&self, n: Option<u64>) {
        let mut plan = self.state.plan.lock();
        plan.full_after_bytes =
            n.map(|n| self.state.bytes_forwarded.load(Ordering::SeqCst).saturating_add(n));
    }

    /// True once a crash point has been hit.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Writes submitted so far across the domain.
    pub fn writes_issued(&self) -> u64 {
        self.state.wsn.load(Ordering::SeqCst)
    }

    /// Reads submitted so far across the domain.
    pub fn reads_issued(&self) -> u64 {
        self.state.rsn.load(Ordering::SeqCst)
    }

    /// Flush barriers issued so far across the domain.
    pub fn flushes_issued(&self) -> u64 {
        self.state.fsn.load(Ordering::SeqCst)
    }

    fn decide_write(&self, wsn: u64, offset: u64, len: usize, sector: usize) -> WriteDecision {
        if self.crashed() {
            return WriteDecision::Refuse;
        }
        let mut plan = self.state.plan.lock();
        match plan.crash_at_write {
            Some(c) if wsn > c => return WriteDecision::Refuse,
            Some(c) if wsn == c => {
                let keep = match plan.torn {
                    TornWrite::Nothing => 0,
                    TornWrite::Bytes(n) => n.min(len),
                    TornWrite::SeededSectors { seed } => {
                        let sector = sector.max(1);
                        let sectors = (len / sector) as u64;
                        let kept = faster_util::hash_u64(seed ^ wsn) % (sectors + 1);
                        (kept as usize) * sector
                    }
                };
                return WriteDecision::Crash(keep);
            }
            _ => {}
        }
        if plan.fail_next_writes > 0 {
            plan.fail_next_writes -= 1;
            return WriteDecision::Fail(IoError::Failed("injected transient write fault".into()));
        }
        if plan.fail_writes.remove(&wsn) {
            return WriteDecision::Fail(IoError::Failed("scripted transient write fault".into()));
        }
        if let Some(rate) = plan.write_fault {
            if rate.hits(wsn) {
                return WriteDecision::Fail(IoError::Failed("seeded transient write fault".into()));
            }
        }
        if let Some(limit) = plan.full_after_bytes {
            if self.state.bytes_forwarded.load(Ordering::SeqCst) + len as u64 > limit {
                return WriteDecision::Fail(IoError::Full { offset });
            }
        }
        if plan.drop_writes.remove(&wsn) {
            WriteDecision::AckDrop
        } else {
            self.state.bytes_forwarded.fetch_add(len as u64, Ordering::SeqCst);
            WriteDecision::Forward
        }
    }

    fn decide_read_fault(&self, rsn: u64) -> Option<IoError> {
        if self.crashed() {
            return Some(IoError::Failed("device crashed".into()));
        }
        let mut plan = self.state.plan.lock();
        if plan.fail_next_reads > 0 {
            plan.fail_next_reads -= 1;
            return Some(IoError::Failed("injected transient read fault".into()));
        }
        if plan.fail_reads.remove(&rsn) {
            return Some(IoError::Failed("scripted transient read fault".into()));
        }
        if let Some(rate) = plan.read_fault {
            if rate.hits(rsn) {
                return Some(IoError::Failed("seeded transient read fault".into()));
            }
        }
        None
    }

    /// The scripted outcome of barrier `fsn`: the crash point (marking the
    /// domain crashed) or a one-shot transient failure; `None` forwards it.
    fn decide_flush(&self, fsn: u64) -> Option<IoError> {
        if self.crashed() {
            return Some(IoError::Failed("device crashed at flush barrier".into()));
        }
        let mut plan = self.state.plan.lock();
        if plan.crash_at_flush.is_some_and(|c| fsn >= c) {
            self.state.crashed.store(true, Ordering::SeqCst);
            // The sync never completed; a commit protocol waiting on this
            // barrier must not acknowledge its group.
            return Some(IoError::Failed("device crashed at flush barrier".into()));
        }
        plan.fail_flushes.remove(&fsn).then(|| IoError::Failed("injected flush failure".into()))
    }
}

/// A [`Device`] wrapper that injects scripted faults. See module docs for
/// the persistence model.
pub struct FaultDevice {
    inner: Arc<dyn Device>,
    domain: FaultDomain,
    stats: StatCells,
}

impl FaultDevice {
    /// Wraps `inner` with an empty (fault-free) plan in its own private
    /// fault domain.
    pub fn wrap(inner: Arc<dyn Device>) -> Arc<Self> {
        Self::wrap_in_domain(inner, &FaultDomain::new())
    }

    /// Wraps `inner` as a member of `domain`: it shares the domain's
    /// sequence space and crashes together with every other member.
    pub fn wrap_in_domain(inner: Arc<dyn Device>, domain: &FaultDomain) -> Arc<Self> {
        Arc::new(Self { inner, domain: domain.clone(), stats: StatCells::default() })
    }

    /// The wrapped device: after a crash it holds exactly the surviving
    /// byte image — recover from it directly.
    pub fn inner(&self) -> Arc<dyn Device> {
        self.inner.clone()
    }

    /// The fault domain this device belongs to.
    pub fn domain(&self) -> FaultDomain {
        self.domain.clone()
    }
}

impl Device for FaultDevice {
    fn sector_size(&self) -> usize {
        self.inner.sector_size()
    }

    fn submit(&self, sqe: Sqe) {
        let (op, completion) = sqe.into_parts();
        match op {
            SqeOp::Write { offset, data } => {
                self.stats.record_write(data.len());
                let wsn = self.domain.state.wsn.fetch_add(1, Ordering::SeqCst);
                match self.domain.decide_write(wsn, offset, data.len(), self.inner.sector_size()) {
                    WriteDecision::Forward => {
                        self.inner.submit(Sqe::from_parts(SqeOp::Write { offset, data }, completion))
                    }
                    WriteDecision::AckDrop => completion.complete(Ok(data)),
                    WriteDecision::Fail(err) => completion.complete(Err(err)),
                    WriteDecision::Crash(keep) => {
                        // Order matters: mark crashed before persisting the torn
                        // prefix so every concurrent submission already refuses.
                        self.domain.state.crashed.store(true, Ordering::SeqCst);
                        let torn = IoError::Failed("crash point: torn write".into());
                        if keep == 0 {
                            completion.complete(Err(torn));
                        } else {
                            // The surviving prefix lands on the inner device;
                            // the caller still sees a failed (unacknowledged)
                            // write.
                            let prefix = SqeOp::Write { offset, data: data[..keep].to_vec() };
                            self.inner.submit(Sqe::from_parts(prefix, completion.fail_with(torn)));
                        }
                    }
                    WriteDecision::Refuse => {
                        completion.complete(Err(IoError::Failed("device crashed".into())))
                    }
                }
            }
            SqeOp::Read { offset, len } => {
                self.stats.record_read(len);
                let rsn = self.domain.state.rsn.fetch_add(1, Ordering::SeqCst);
                match self.domain.decide_read_fault(rsn) {
                    Some(err) => completion.complete(Err(err)),
                    None => {
                        self.inner.submit(Sqe::from_parts(SqeOp::Read { offset, len }, completion))
                    }
                }
            }
        }
    }

    /// The one barrier path: a blocking barrier is a sync on a private ring.
    fn flush_barrier(&self) -> Result<(), IoError> {
        let ring = Arc::new(CompletionRing::new());
        self.submit_sync(0, &ring);
        ring.wait_one().map(|_| ())
    }

    /// Draws the flush sequence number at submission, like writes: the
    /// scripted barrier fails in submit order, whenever it completes.
    fn submit_sync(&self, id: u64, ring: &Arc<CompletionRing>) {
        let fsn = self.domain.state.fsn.fetch_add(1, Ordering::SeqCst);
        match self.domain.decide_flush(fsn) {
            Some(err) => ring.push(Cqe { id, result: Err(err) }),
            None => self.inner.submit_sync(id, ring),
        }
    }

    fn truncate_below(&self, offset: u64) {
        if !self.domain.crashed() {
            self.inner.truncate_below(offset);
        }
    }

    fn stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn fault_free_plan_is_transparent() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner);
        d.write_blocking(0, vec![7u8; 256]).unwrap();
        assert_eq!(d.read_blocking(0, 256).unwrap(), vec![7u8; 256]);
        assert!(!d.domain().crashed());
        assert_eq!(d.domain().writes_issued(), 1);
        assert_eq!(d.domain().reads_issued(), 1);
        let s = d.stats();
        assert_eq!((s.writes, s.reads, s.bytes_written, s.bytes_read), (1, 1, 256, 256));
    }

    #[test]
    fn crash_point_severs_the_suffix() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![1u8; 512]).unwrap();
        d.domain().arm_crash(1, TornWrite::Nothing); // survives: write 1; crashes: write 2
        d.write_blocking(512, vec![2u8; 512]).unwrap();
        assert!(d.write_blocking(1024, vec![3u8; 512]).is_err());
        assert!(d.domain().crashed());
        assert!(d.write_blocking(1536, vec![4u8; 512]).is_err());
        // Surviving image: writes 0 and 1 in full, nothing of 2 or 3.
        assert_eq!(inner.read_blocking(0, 512).unwrap(), vec![1u8; 512]);
        assert_eq!(inner.read_blocking(512, 512).unwrap(), vec![2u8; 512]);
        assert!(matches!(
            inner.read_blocking(1024, 512),
            Err(IoError::OutOfRange { .. })
        ));
        // The crashed device refuses reads too.
        assert!(matches!(d.read_blocking(0, 8), Err(IoError::Failed(_))));
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![0xAA; 1024]).unwrap();
        d.domain().arm_crash(0, TornWrite::Bytes(100));
        assert!(d.write_blocking(0, vec![0xBB; 1024]).is_err());
        let bytes = inner.read_blocking(0, 1024).unwrap();
        assert!(bytes[..100].iter().all(|&b| b == 0xBB), "prefix persisted");
        assert!(bytes[100..].iter().all(|&b| b == 0xAA), "suffix untouched");
    }

    #[test]
    fn seeded_sector_tear_is_sector_aligned_and_deterministic() {
        let keep = |seed: u64| {
            let inner = MemDevice::new(1);
            let d = FaultDevice::wrap(inner.clone());
            d.write_blocking(0, vec![0x11; 4096]).unwrap();
            d.domain().arm_crash(0, TornWrite::SeededSectors { seed });
            assert!(d.write_blocking(0, vec![0x22; 4096]).is_err());
            let bytes = inner.read_blocking(0, 4096).unwrap();
            let kept = bytes.iter().take_while(|&&b| b == 0x22).count();
            assert!(bytes[kept..].iter().all(|&b| b == 0x11));
            assert_eq!(kept % d.sector_size(), 0, "tear must be sector-aligned");
            kept
        };
        for seed in 0..16 {
            assert_eq!(keep(seed), keep(seed), "same seed, same tear");
        }
        assert!((0..16).map(keep).collect::<HashSet<_>>().len() > 1, "seeds vary the tear");
    }

    #[test]
    fn dropped_write_acks_but_does_not_persist() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![5u8; 128]).unwrap();
        d.domain().drop_write_at(0);
        d.write_blocking(0, vec![6u8; 128]).unwrap(); // acked Ok, dropped
        d.write_blocking(128, vec![7u8; 128]).unwrap(); // later write unaffected
        assert_eq!(inner.read_blocking(0, 128).unwrap(), vec![5u8; 128]);
        assert_eq!(inner.read_blocking(128, 128).unwrap(), vec![7u8; 128]);
    }

    #[test]
    fn scripted_and_rate_read_faults_are_transient() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner);
        d.write_blocking(0, vec![9u8; 64]).unwrap();
        d.domain().fail_read_at(0);
        assert!(matches!(d.read_blocking(0, 8), Err(IoError::Failed(_))));
        assert_eq!(d.read_blocking(0, 8).unwrap(), vec![9u8; 8]);
        d.domain().fail_next_reads(2);
        assert!(d.read_blocking(0, 8).is_err());
        assert!(d.read_blocking(0, 8).is_err());
        assert!(d.read_blocking(0, 8).is_ok());
        // An always-failing rate fails every attempt; a zero rate none.
        d.domain().set_read_fault_rate(Some(ReadFaultRate { seed: 1, num: 1, den: 1 }));
        assert!(d.read_blocking(0, 8).is_err());
        d.domain().set_read_fault_rate(Some(ReadFaultRate { seed: 1, num: 0, den: 1 }));
        assert!(d.read_blocking(0, 8).is_ok());
        d.domain().set_read_fault_rate(None);
    }

    #[test]
    fn shared_domain_interleaves_sequence_numbers_and_crashes_together() {
        let domain = FaultDomain::new();
        let log_inner = MemDevice::new(1);
        let ckpt_inner = MemDevice::new(1);
        let log = FaultDevice::wrap_in_domain(log_inner.clone(), &domain);
        let ckpt = FaultDevice::wrap_in_domain(ckpt_inner.clone(), &domain);
        log.write_blocking(0, vec![1u8; 128]).unwrap(); // wsn 0
        ckpt.write_blocking(0, vec![2u8; 128]).unwrap(); // wsn 1
        assert_eq!(domain.writes_issued(), 2);
        // Crash at wsn 3: the ckpt write at wsn 2 survives, the log write at
        // wsn 3 is the crash point, and both devices refuse afterwards.
        domain.arm_crash(1, TornWrite::Nothing);
        ckpt.write_blocking(128, vec![3u8; 128]).unwrap(); // wsn 2
        assert!(log.write_blocking(128, vec![4u8; 128]).is_err()); // wsn 3: crash
        assert!(log.domain().crashed() && ckpt.domain().crashed() && domain.crashed());
        assert!(ckpt.write_blocking(256, vec![5u8; 128]).is_err());
        assert!(matches!(log.read_blocking(0, 8), Err(IoError::Failed(_))));
        // Surviving images: everything acked before the crash point.
        assert_eq!(log_inner.read_blocking(0, 128).unwrap(), vec![1u8; 128]);
        assert_eq!(ckpt_inner.read_blocking(128, 128).unwrap(), vec![3u8; 128]);
        assert!(log_inner.read_blocking(128, 128).is_err());
    }

    #[test]
    fn flush_boundary_crash_preserves_acked_writes() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![7u8; 64]).unwrap();
        d.flush_barrier().unwrap(); // fsn 0
        d.domain().arm_crash_at_flush(1); // fsn 1 from now = the second barrier below
        d.write_blocking(64, vec![8u8; 64]).unwrap();
        d.flush_barrier().unwrap(); // fsn 1: survives
        d.write_blocking(128, vec![9u8; 64]).unwrap();
        // fsn 2: crash point — the sync never happened, so the barrier must
        // report failure (its group can never be acked).
        assert!(d.flush_barrier().is_err());
        assert!(d.domain().crashed());
        assert!(d.write_blocking(192, vec![1u8; 64]).is_err());
        // Every write acked before the crash-point barrier persisted.
        assert_eq!(inner.read_blocking(0, 64).unwrap(), vec![7u8; 64]);
        assert_eq!(inner.read_blocking(64, 64).unwrap(), vec![8u8; 64]);
        assert_eq!(inner.read_blocking(128, 64).unwrap(), vec![9u8; 64]);
        assert_eq!(d.domain().flushes_issued(), 3);
    }

    #[test]
    fn injected_flush_failure_is_transient_and_does_not_crash() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![3u8; 64]).unwrap();
        d.flush_barrier().unwrap(); // fsn 0
        d.domain().fail_flush_at(1); // fsn 2 = the second barrier from now
        d.flush_barrier().unwrap(); // fsn 1
        assert!(matches!(d.flush_barrier(), Err(IoError::Failed(_)))); // fsn 2
        // Unlike a crash, the device stays alive and later barriers succeed.
        assert!(!d.domain().crashed());
        d.flush_barrier().unwrap(); // fsn 3
        d.write_blocking(64, vec![4u8; 64]).unwrap();
        assert_eq!(d.read_blocking(64, 64).unwrap(), vec![4u8; 64]);
        assert_eq!(d.domain().flushes_issued(), 4);
    }

    /// The scripted barrier fails by its place in submission order: here it
    /// completes first (refused at submit) while the two around it wait
    /// behind a slow write.
    #[test]
    fn syncs_fail_at_the_scripted_fsn_in_submit_order() {
        let latency = crate::LatencyModel {
            fixed: std::time::Duration::from_millis(5),
            bytes_per_sec: 0,
        };
        let d = FaultDevice::wrap(MemDevice::with_latency(2, latency));
        let ring = Arc::new(CompletionRing::new());
        d.domain().fail_flush_at(1);
        d.submit(Sqe::write(9, 0, vec![1u8; 512], &ring));
        for id in 0..3 {
            d.submit_sync(id, &ring);
        }
        let mut cqes = Vec::new();
        while cqes.len() < 4 {
            if ring.reap(&mut cqes) == 0 {
                ring.wait_nonempty(std::time::Duration::from_millis(100));
            }
        }
        assert_eq!(cqes[0].id, 1, "the refused sync completes first");
        for c in &cqes {
            assert_eq!(c.result.is_err(), c.id == 1, "CQE {}: {:?}", c.id, c.result);
        }
        assert_eq!(d.domain().flushes_issued(), 3);
        assert!(!d.domain().crashed());
    }

    #[test]
    fn scripted_write_faults_are_transient_and_persist_nothing() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![1u8; 128]).unwrap();
        d.domain().fail_write_at(0);
        assert!(matches!(
            d.write_blocking(0, vec![2u8; 128]),
            Err(IoError::Failed(_))
        ));
        // The failed write never reached the medium; the device stays alive
        // and the resubmission (a later wsn) succeeds.
        assert!(!d.domain().crashed());
        assert_eq!(inner.read_blocking(0, 128).unwrap(), vec![1u8; 128]);
        d.write_blocking(0, vec![2u8; 128]).unwrap();
        assert_eq!(inner.read_blocking(0, 128).unwrap(), vec![2u8; 128]);

        d.domain().fail_next_writes(2);
        assert!(d.write_blocking(128, vec![3u8; 64]).is_err());
        assert!(d.write_blocking(128, vec![3u8; 64]).is_err());
        d.write_blocking(128, vec![3u8; 64]).unwrap();

        d.domain().set_write_fault_rate(Some(ReadFaultRate { seed: 9, num: 1, den: 1 }));
        assert!(d.write_blocking(256, vec![4u8; 64]).is_err());
        d.domain().set_write_fault_rate(Some(ReadFaultRate { seed: 9, num: 0, den: 1 }));
        d.write_blocking(256, vec![4u8; 64]).unwrap();
        d.domain().set_write_fault_rate(None);
    }

    #[test]
    fn device_full_fails_the_overflowing_write_permanently() {
        let inner = MemDevice::new(1);
        let d = FaultDevice::wrap(inner.clone());
        d.write_blocking(0, vec![1u8; 256]).unwrap();
        d.domain().set_full_after_bytes(Some(512));
        d.write_blocking(256, vec![2u8; 512]).unwrap(); // exactly at the limit
        assert_eq!(
            d.write_blocking(768, vec![3u8; 1]),
            Err(IoError::Full { offset: 768 })
        );
        // Full is sticky until the limit is raised; the device never crashed.
        assert_eq!(
            d.write_blocking(768, vec![3u8; 1]),
            Err(IoError::Full { offset: 768 })
        );
        assert!(!d.domain().crashed());
        assert_eq!(d.read_blocking(256, 512).unwrap(), vec![2u8; 512]);
        d.domain().set_full_after_bytes(None);
        d.write_blocking(768, vec![3u8; 64]).unwrap();
    }

    #[test]
    fn read_fault_rate_is_deterministic_per_seed() {
        let r = ReadFaultRate { seed: 42, num: 1, den: 4 };
        let pattern: Vec<bool> = (0..64).map(|rsn| r.hits(rsn)).collect();
        assert_eq!(pattern, (0..64).map(|rsn| r.hits(rsn)).collect::<Vec<_>>());
        let hits = pattern.iter().filter(|&&b| b).count();
        assert!(hits > 0 && hits < 40, "rate 1/4 over 64 draws, got {hits}");
    }
}
