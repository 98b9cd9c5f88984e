//! # faster-storage
//!
//! The storage substrate under the FASTER log.
//!
//! The paper runs HybridLog over a FusionIO NVMe SSD accessed with unbuffered
//! asynchronous I/O (§5.1, §7.1). This crate reproduces that *interface* — a
//! fully asynchronous, sector-aligned block device whose every result is a
//! completion queue entry on the submitter's [`CompletionRing`] (see
//! [`ring`]) — with interchangeable implementations:
//!
//! * [`MemDevice`] — an in-RAM device serviced by background I/O worker
//!   threads with a configurable latency + bandwidth model. This is the
//!   default substrate for tests and benchmarks: it exercises exactly the
//!   same code paths as a real disk (async read contexts, pending queues,
//!   epoch-triggered flushes) while keeping experiments reproducible. It also
//!   supports fault injection for failure tests.
//! * [`FileDevice`] — a real file-backed device using positioned reads and
//!   writes, for runs against an actual filesystem.
//! * [`NullDevice`] — discards writes and fails reads; used to measure the
//!   in-memory ceiling of the log without storage costs.
//! * [`FaultDevice`] — wraps any of the above with a scripted fault plan
//!   (crash points, torn writes, dropped flushes, transient read faults)
//!   for the crash-consistency test framework.
//!
//! All devices report [`DeviceStats`] (bytes/ops in each direction), which the
//! benchmark harness uses to measure log growth rate (Fig 12a) and sequential
//! write bandwidth (§7.3).

#![deny(clippy::undocumented_unsafe_blocks)]

mod fault;
mod file;
mod mem;
pub mod ring;
mod worker;

pub use fault::{FaultDevice, FaultDomain, ReadFaultRate, TornWrite};
pub use file::FileDevice;
pub use mem::MemDevice;
pub use ring::{CompletionRing, Cqe, Sqe, SqeCompletion, SqeOp};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by asynchronous device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Read past the device's written extent.
    OutOfRange { offset: u64, len: usize },
    /// The region was truncated away by log garbage collection.
    Truncated { offset: u64 },
    /// Injected fault (tests) or underlying OS error.
    Failed(String),
    /// The bytes at `offset` failed checksum verification: the device
    /// returned data, but it is not what was written (torn write, bit rot,
    /// or a quarantined page whose contents were never persisted).
    Corrupt { offset: u64 },
    /// The device ran out of space; the write at `offset` was not persisted.
    Full { offset: u64 },
    /// Reads are unsupported on this device (e.g. [`NullDevice`]).
    Unsupported,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfRange { offset, len } => {
                write!(f, "read of {len} bytes at {offset} is out of range")
            }
            IoError::Truncated { offset } => write!(f, "offset {offset} was truncated away"),
            IoError::Failed(msg) => write!(f, "I/O failed: {msg}"),
            IoError::Corrupt { offset } => {
                write!(f, "data at offset {offset} failed checksum verification")
            }
            IoError::Full { offset } => write!(f, "device full: write at {offset} not persisted"),
            IoError::Unsupported => write!(f, "operation unsupported by this device"),
        }
    }
}

impl std::error::Error for IoError {}

/// Cumulative device counters.
///
/// These counters are how the bench harness derives the log growth rate
/// (MB/s written) that Fig 12a plots on its secondary axis, and the
/// sequential write bandwidth row of §7.3.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub reads: u64,
}

/// An asynchronous block device with a submission/completion-ring interface.
///
/// Offsets are byte offsets into a flat address space (the log's stable
/// region maps logical addresses directly to device offsets). The one
/// required I/O method is [`Device::submit`]: the device services the SQE
/// and publishes its result as a CQE into the SQE's [`CompletionRing`], on
/// whatever thread finished the I/O.
///
/// [`Device::read_blocking`] / [`Device::write_blocking`] are the one
/// blocking wait, for maintenance and recovery paths that have nothing to
/// overlap the I/O with. A durability barrier is either blocking
/// ([`Device::flush_barrier`]) or a CQE of its own ([`Device::submit_sync`]).
pub trait Device: Send + Sync + 'static {
    /// Sector size; write offsets and lengths should be multiples of this
    /// (the circular buffer allocates frames sector-aligned, §5.1).
    fn sector_size(&self) -> usize {
        512
    }

    /// Queues one submission queue entry. Exactly-once completion into the
    /// SQE's ring, on success or failure.
    fn submit(&self, sqe: Sqe);

    /// Batched submission handoff: drains `sqes` into the device. The
    /// default forwards one by one. [`MemDevice`] overrides it with one
    /// doorbell per batch: the batch's reads execute, then their timed CQEs
    /// reach its deadline timer under one lock and one wake.
    fn submit_all(&self, sqes: &mut Vec<Sqe>) {
        for sqe in sqes.drain(..) {
            self.submit(sqe);
        }
    }

    /// Writes `data` at byte `offset` and parks until the device reports
    /// the outcome.
    fn write_blocking(&self, offset: u64, data: Vec<u8>) -> Result<(), IoError> {
        let ring = Arc::new(CompletionRing::new());
        self.submit(Sqe::write(0, offset, data, &ring));
        ring.wait_one().map(|_| ())
    }

    /// Reads `len` bytes at byte `offset`, parking until they arrive.
    fn read_blocking(&self, offset: u64, len: usize) -> Result<Vec<u8>, IoError> {
        let ring = Arc::new(CompletionRing::new());
        self.submit(Sqe::read(0, offset, len, &ring));
        ring.wait_one()
    }

    /// Blocks until every operation queued before this call has completed
    /// *and is durable*, reporting any synchronization failure. Used by
    /// checkpointing and orderly shutdown. An `Err` means durability of
    /// previously acknowledged writes is unknown — a commit protocol must
    /// treat the barrier's group as not persisted and must never
    /// acknowledge it.
    fn flush_barrier(&self) -> Result<(), IoError>;

    /// Queues a barrier whose CQE (echoing `id`, empty bytes) lands in
    /// `ring` once every write submitted before it is durable — or carries
    /// the error that leaves their durability unknown, with the same
    /// contract as [`Device::flush_barrier`]. WAL group commit submits one
    /// behind each group write. The default runs the blocking barrier on
    /// the caller's thread and pushes the CQE; pooled devices queue it
    /// behind their writes instead.
    fn submit_sync(&self, id: u64, ring: &Arc<CompletionRing>) {
        ring.push(Cqe { id, result: self.flush_barrier().map(|()| Vec::new()) });
    }

    /// Drops all data below `offset` (log GC / expiration, Appendix C).
    /// Subsequent reads below `offset` fail with [`IoError::Truncated`].
    fn truncate_below(&self, _offset: u64) {}

    /// Cumulative counters.
    fn stats(&self) -> DeviceStats;
}

/// Shared atomic counters behind [`DeviceStats`].
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
}

impl StatCells {
    pub fn record_write(&self, bytes: usize) {
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    pub fn record_read(&self, bytes: usize) {
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
    }
    pub fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
        }
    }
}

/// Latency/bandwidth model for [`MemDevice`], approximating an NVMe SSD.
///
/// Each operation is delayed by `fixed + bytes / bandwidth` before its
/// CQE is published. [`LatencyModel::nvme`] models a fast NVMe drive (~20 µs,
/// 2 GB/s — the paper's device tops out at 2 GB/s sequential, §7.3). Use
/// [`LatencyModel::ZERO`] for pure functional tests.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Per-operation fixed latency.
    pub fixed: std::time::Duration,
    /// Sustained bandwidth in bytes/second (0 = infinite).
    pub bytes_per_sec: u64,
}

impl LatencyModel {
    /// No simulated delay at all.
    pub const ZERO: LatencyModel =
        LatencyModel { fixed: std::time::Duration::ZERO, bytes_per_sec: 0 };

    /// NVMe-ish defaults: 20 µs fixed, 2 GB/s.
    pub fn nvme() -> Self {
        Self { fixed: std::time::Duration::from_micros(20), bytes_per_sec: 2_000_000_000 }
    }

    /// Delay for an operation touching `bytes` bytes.
    pub fn delay_for(&self, bytes: usize) -> std::time::Duration {
        let bw = if self.bytes_per_sec == 0 {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_nanos(
                (bytes as u128 * 1_000_000_000 / self.bytes_per_sec as u128) as u64,
            )
        };
        self.fixed + bw
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::ZERO
    }
}

/// A device that discards writes and rejects reads.
///
/// Models the "infinitely fast disk" bound: the log's flush path runs (frames
/// are still retired through the epoch machinery) but storage costs nothing
/// and evicted data is unrecoverable.
#[derive(Debug, Default)]
pub struct NullDevice {
    stats: StatCells,
}

impl NullDevice {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl Device for NullDevice {
    fn submit(&self, sqe: Sqe) {
        let (op, completion) = sqe.into_parts();
        match op {
            SqeOp::Write { data, .. } => {
                self.stats.record_write(data.len());
                completion.complete(Ok(data));
            }
            SqeOp::Read { .. } => completion.complete(Err(IoError::Unsupported)),
        }
    }

    fn flush_barrier(&self) -> Result<(), IoError> {
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_math() {
        let m = LatencyModel {
            fixed: std::time::Duration::from_micros(10),
            bytes_per_sec: 1_000_000,
        };
        // 1_000 bytes at 1 MB/s = 1 ms, plus 10 µs fixed.
        assert_eq!(m.delay_for(1000), std::time::Duration::from_micros(1010));
        assert_eq!(LatencyModel::ZERO.delay_for(1 << 20), std::time::Duration::ZERO);
    }

    #[test]
    fn null_device_counts_and_rejects() {
        let d = NullDevice::new();
        assert_eq!(d.write_blocking(0, vec![0u8; 128]), Ok(()));
        assert_eq!(d.read_blocking(0, 128), Err(IoError::Unsupported));
        assert_eq!(d.stats().bytes_written, 128);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn io_error_display() {
        assert!(IoError::OutOfRange { offset: 5, len: 10 }.to_string().contains("out of range"));
        assert!(IoError::Truncated { offset: 9 }.to_string().contains("truncated"));
        assert!(IoError::Failed("boom".into()).to_string().contains("boom"));
        assert!(IoError::Corrupt { offset: 4096 }.to_string().contains("checksum"));
        assert!(IoError::Full { offset: 8192 }.to_string().contains("full"));
    }
}
