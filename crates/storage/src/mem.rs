//! In-memory simulated SSD.
//!
//! Data lives in fixed-size chunks behind an `RwLock`ed map. Writes and
//! syncs are serviced asynchronously by an [`IoPool`](crate::worker::IoPool)
//! applying a [`LatencyModel`]; reads execute at submission and a
//! [`DeadlineTimer`] publishes their CQEs at the model's deadline, one
//! doorbell per [`Device::submit_all`] batch. Fault injection
//! (`fail_next_reads`) lets failure tests exercise the pending-operation
//! error path without a flaky filesystem.

use crate::ring::{CompletionRing, Sqe, SqeCompletion, SqeOp};
use crate::worker::{precise_sleep, DeadlineTimer, Deferred, IoPool};
use crate::{Device, DeviceStats, IoError, LatencyModel, StatCells};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Chunk granularity of the backing store. Chosen larger than any log page
/// so most writes touch one or two chunks.
const CHUNK_BITS: u32 = 20; // 1 MiB
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;

/// Shared backing state; I/O jobs hold an `Arc` to it, so the data can never
/// be freed out from under an in-flight request.
struct State {
    chunks: RwLock<HashMap<u64, Box<[u8]>>>,
    /// Exclusive upper bound of bytes ever written (reads beyond fail).
    extent: AtomicU64,
    /// Inclusive lower bound of valid data ([`Device::truncate_below`]).
    begin: AtomicU64,
    latency: LatencyModel,
    stats: StatCells,
    fail_next_reads: AtomicU32,
}

impl State {
    fn write_sync(&self, offset: u64, data: &[u8]) {
        let mut chunks = self.chunks.write();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let chunk_idx = abs >> CHUNK_BITS;
            let within = (abs & (CHUNK_SIZE as u64 - 1)) as usize;
            let n = (CHUNK_SIZE - within).min(data.len() - pos);
            let chunk = chunks
                .entry(chunk_idx)
                .or_insert_with(|| vec![0u8; CHUNK_SIZE].into_boxed_slice());
            chunk[within..within + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
        self.extent.fetch_max(offset + data.len() as u64, Ordering::SeqCst);
    }

    /// One read attempt: injected-fault check, then the chunk-map copy.
    fn service_read(&self, offset: u64, len: usize) -> Result<Vec<u8>, IoError> {
        if self
            .fail_next_reads
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(IoError::Failed("injected read fault".into()));
        }
        self.read_sync(offset, len)
    }

    fn read_sync(&self, offset: u64, len: usize) -> Result<Vec<u8>, IoError> {
        if offset < self.begin.load(Ordering::SeqCst) {
            return Err(IoError::Truncated { offset });
        }
        if offset + len as u64 > self.extent.load(Ordering::SeqCst) {
            return Err(IoError::OutOfRange { offset, len });
        }
        let chunks = self.chunks.read();
        let mut out = vec![0u8; len];
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let chunk_idx = abs >> CHUNK_BITS;
            let within = (abs & (CHUNK_SIZE as u64 - 1)) as usize;
            let n = (CHUNK_SIZE - within).min(len - pos);
            match chunks.get(&chunk_idx) {
                Some(chunk) => out[pos..pos + n].copy_from_slice(&chunk[within..within + n]),
                None => { /* never-written hole reads as zeros */ }
            }
            pos += n;
        }
        Ok(out)
    }
}

/// An in-memory asynchronous block device with a latency model.
pub struct MemDevice {
    state: Arc<State>,
    pool: IoPool,
    /// Deadline scheduler for reads under a non-zero latency model: the
    /// read executes at submission and its CQE is published at the latency
    /// deadline, so in-flight depth is unbounded by the worker pool width
    /// (`None` for zero-latency devices — those complete inline). A
    /// `submit_all` batch reaches it with one lock and one wake.
    timer: Option<DeadlineTimer>,
}

impl MemDevice {
    /// A zero-latency device with `io_threads` background workers.
    pub fn new(io_threads: usize) -> Arc<Self> {
        Self::with_latency(io_threads, LatencyModel::ZERO)
    }

    /// A device whose completions are delayed per `latency`.
    pub fn with_latency(io_threads: usize, latency: LatencyModel) -> Arc<Self> {
        let timed = !latency.fixed.is_zero() || latency.bytes_per_sec > 0;
        Arc::new(Self {
            state: Arc::new(State {
                chunks: RwLock::new(HashMap::new()),
                extent: AtomicU64::new(0),
                begin: AtomicU64::new(0),
                latency,
                stats: StatCells::default(),
                fail_next_reads: AtomicU32::new(0),
            }),
            pool: IoPool::new(io_threads),
            timer: timed.then(DeadlineTimer::new),
        })
    }

    /// Injects failures into the next `n` reads (tests only).
    pub fn fail_next_reads(&self, n: u32) {
        self.state.fail_next_reads.store(n, Ordering::SeqCst);
    }

    /// Bytes currently retained (for memory accounting in benches).
    pub fn resident_bytes(&self) -> u64 {
        (self.state.chunks.read().len() * CHUNK_SIZE) as u64
    }

    /// Starts one SQE submitted at `now`. A write is queued on the pool,
    /// which sleeps out its delay before it lands. A read executes now and
    /// its CQE is due at `now` plus its delay — overlap is unbounded by pool
    /// width. A read therefore sees exactly the writes whose CQE was
    /// published before it was submitted; it does not queue behind one still
    /// in flight. A timed read's CQE is returned for the caller to defer; an
    /// untimed one completes inline.
    fn start(&self, sqe: Sqe, now: Instant) -> Option<Deferred> {
        let (op, completion) = sqe.into_parts();
        match op {
            SqeOp::Write { offset, data } => {
                self.state.stats.record_write(data.len());
                let delay = self.state.latency.delay_for(data.len());
                let state = self.state.clone();
                self.pool.submit(move || {
                    precise_sleep(delay);
                    state.write_sync(offset, &data);
                    completion.complete(Ok(data));
                });
                None
            }
            SqeOp::Read { offset, len } => {
                self.state.stats.record_read(len);
                let delay = self.state.latency.delay_for(len);
                let res = self.state.service_read(offset, len);
                if self.timer.is_some() && !delay.is_zero() {
                    return Some((now + delay, completion, res));
                }
                completion.complete(res);
                None
            }
        }
    }
}

impl Device for MemDevice {
    fn submit(&self, sqe: Sqe) {
        if let (Some(d), Some(t)) = (self.start(sqe, Instant::now()), &self.timer) {
            t.defer_all([d]);
        }
    }

    /// One doorbell per batch: every SQE counts as submitted when the call
    /// begins, so no CQE publishes before that instant plus its delay. The
    /// reads execute first, then their CQEs reach the timer under one queue
    /// lock and one wake, whatever their deadlines.
    fn submit_all(&self, sqes: &mut Vec<Sqe>) {
        let Some(timer) = &self.timer else {
            return sqes.drain(..).for_each(|sqe| self.submit(sqe));
        };
        let now = Instant::now();
        let mut deferred = Vec::with_capacity(sqes.len());
        deferred.extend(sqes.drain(..).filter_map(|sqe| self.start(sqe, now)));
        if !deferred.is_empty() {
            timer.defer_all(deferred);
        }
    }

    fn flush_barrier(&self) -> Result<(), IoError> {
        self.pool.barrier();
        if let Some(t) = &self.timer {
            t.barrier();
        }
        Ok(())
    }

    /// A write is stable once its pool job has run, so a sync is a pool job
    /// queued behind every earlier write, with no latency of its own.
    fn submit_sync(&self, id: u64, ring: &Arc<CompletionRing>) {
        let completion = SqeCompletion::new(id, ring);
        self.pool.submit_ordered(move || completion.complete(Ok(Vec::new())));
    }

    fn truncate_below(&self, offset: u64) {
        self.state.begin.fetch_max(offset, Ordering::SeqCst);
        // Drop whole chunks strictly below the new begin.
        let cutoff_chunk = offset >> CHUNK_BITS;
        self.state.chunks.write().retain(|&idx, _| idx >= cutoff_chunk);
    }

    fn stats(&self) -> DeviceStats {
        self.state.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cqe;
    use std::time::Duration;

    #[test]
    fn write_read_round_trip() {
        let d = MemDevice::new(2);
        let data: Vec<u8> = (0..=255).collect();
        d.write_blocking(0, data.clone()).unwrap();
        assert_eq!(d.read_blocking(0, 256).unwrap(), data);
        assert_eq!(d.read_blocking(10, 5).unwrap(), &data[10..15]);
    }

    #[test]
    fn write_cqe_hands_the_buffer_back() {
        let d = MemDevice::new(1);
        let ring = Arc::new(crate::CompletionRing::new());
        let data = vec![7u8; 512];
        let alloc = data.as_ptr();
        d.submit(Sqe::write(0, 0, data, &ring));
        let back = ring.wait_one().unwrap();
        assert_eq!(back, vec![7u8; 512]);
        assert_eq!(back.as_ptr(), alloc, "the written allocation itself comes back");
    }

    #[test]
    fn cross_chunk_write_read() {
        let d = MemDevice::new(1);
        let offset = (CHUNK_SIZE - 100) as u64;
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        d.write_blocking(offset, data.clone()).unwrap();
        assert_eq!(d.read_blocking(offset, 200).unwrap(), data);
    }

    #[test]
    fn out_of_range_read_fails() {
        let d = MemDevice::new(1);
        d.write_blocking(0, vec![1; 64]).unwrap();
        assert_eq!(
            d.read_blocking(32, 64),
            Err(IoError::OutOfRange { offset: 32, len: 64 })
        );
    }

    #[test]
    fn truncation_invalidates_prefix() {
        let d = MemDevice::new(1);
        d.write_blocking(0, vec![7; 4096]).unwrap();
        d.truncate_below(2048);
        assert_eq!(d.read_blocking(0, 16), Err(IoError::Truncated { offset: 0 }));
        assert_eq!(d.read_blocking(2048, 16).unwrap(), vec![7; 16]);
    }

    #[test]
    fn fault_injection() {
        let d = MemDevice::new(1);
        d.write_blocking(0, vec![9; 64]).unwrap();
        d.fail_next_reads(2);
        assert!(matches!(d.read_blocking(0, 8), Err(IoError::Failed(_))));
        assert!(matches!(d.read_blocking(0, 8), Err(IoError::Failed(_))));
        assert_eq!(d.read_blocking(0, 8).unwrap(), vec![9; 8]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let d = MemDevice::new(4);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..64u64 {
                    let off = t * 1_000_000 + i * 512;
                    d.write_blocking(off, vec![t as u8; 512]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(d.read_blocking(t * 1_000_000, 512).unwrap(), vec![t as u8; 512]);
        }
    }

    #[test]
    fn latency_is_applied() {
        let d = MemDevice::with_latency(
            1,
            LatencyModel { fixed: std::time::Duration::from_millis(5), bytes_per_sec: 0 },
        );
        let start = std::time::Instant::now();
        d.write_blocking(0, vec![0; 8]).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
    }

    /// Blocking reads are serviced like a session's pending reads: executed
    /// at submit, published at the deadline, so 64 of them overlap on a
    /// one-worker device instead of occupying the worker for a delay each.
    #[test]
    fn blocking_reads_overlap_beyond_pool_width() {
        let latency = std::time::Duration::from_millis(10);
        let d = MemDevice::with_latency(1, LatencyModel { fixed: latency, bytes_per_sec: 0 });
        d.write_blocking(0, vec![3; 64]).unwrap();
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..64 {
                s.spawn(|| assert_eq!(d.read_blocking(0, 64).unwrap(), vec![3; 64]));
            }
        });
        let elapsed = start.elapsed();
        assert!(elapsed >= latency);
        assert!(elapsed < latency * 32, "64 reads took {elapsed:?}: serialised on the pool");
    }

    /// Reaps `n` CQEs from `ring`, each stamped with the time since `start`.
    fn reap_timed(ring: &CompletionRing, n: usize, start: Instant) -> Vec<(Cqe, Duration)> {
        let mut out = Vec::new();
        let mut cqes = Vec::new();
        while out.len() < n {
            if ring.reap(&mut cqes) == 0 {
                ring.wait_nonempty(Duration::from_millis(100));
            }
            let at = start.elapsed();
            out.extend(cqes.drain(..).map(|c| (c, at)));
        }
        out
    }

    /// Batching changes when the doorbell rings, not the device model: a
    /// batch's reads still wait out the full latency, still overlap, and
    /// reap in submission order when their deadlines tie.
    #[test]
    fn submit_all_keeps_the_latency_model() {
        let latency = Duration::from_millis(2);
        let d = MemDevice::with_latency(1, LatencyModel { fixed: latency, bytes_per_sec: 0 });
        d.write_blocking(0, (0..64u8).collect()).unwrap();
        let ring = Arc::new(CompletionRing::new());
        let mut sqes: Vec<Sqe> = (0..64u64).map(|i| Sqe::read(i, i, 1, &ring)).collect();
        let start = Instant::now();
        d.submit_all(&mut sqes);
        assert!(sqes.is_empty(), "submit_all drains the batch");
        let cqes = reap_timed(&ring, 64, start);
        for (cqe, at) in &cqes {
            assert!(
                *at >= latency,
                "CQE {} reaped {at:?} after submit, before the latency",
                cqe.id
            );
            assert_eq!(cqe.result, Ok(vec![cqe.id as u8]));
        }
        let last = cqes.iter().map(|&(_, at)| at).max().unwrap();
        assert!(last < latency * 32, "64 batched reads took {last:?}: serialised");
        let ids: Vec<u64> = cqes.iter().map(|(c, _)| c.id).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>(), "equal deadlines reap in submission order");

        // A write in a batch of reads keeps its pool path; both complete.
        let mut sqes = vec![
            Sqe::read(1, 0, 8, &ring),
            Sqe::write(2, 4096, vec![5; 512], &ring),
            Sqe::read(3, 8, 8, &ring),
        ];
        let start = Instant::now();
        d.submit_all(&mut sqes);
        let mut cqes = reap_timed(&ring, 3, start);
        cqes.sort_by_key(|(c, _)| c.id);
        assert!(cqes.iter().all(|(_, at)| *at >= latency));
        assert_eq!(cqes[0].0.result, Ok((0..8).collect()));
        assert_eq!(cqes[1].0.result, Ok(vec![5; 512]), "the write hands its buffer back");
        assert_eq!(cqes[2].0.result, Ok((8..16).collect()));
        assert_eq!(d.read_blocking(4096, 512).unwrap(), vec![5; 512]);

        // A zero-latency device completes the batch inline.
        let z = MemDevice::new(1);
        z.write_blocking(0, vec![9; 64]).unwrap();
        let mut sqes: Vec<Sqe> = (0..8u64).map(|i| Sqe::read(i, i * 8, 8, &ring)).collect();
        z.submit_all(&mut sqes);
        let mut cqes = Vec::new();
        assert_eq!(ring.reap(&mut cqes), 8, "zero-latency reads complete inline");
        assert!(cqes.iter().all(|c| c.result == Ok(vec![9; 8])));
    }

    /// On a four-worker pool a zero-delay sync job would finish long before
    /// three 2 ms writes queued ahead of it; it must wait them out.
    #[test]
    fn sync_never_completes_before_an_earlier_write() {
        let latency = LatencyModel { fixed: std::time::Duration::from_millis(2), bytes_per_sec: 0 };
        let d = MemDevice::with_latency(4, latency);
        let ring = Arc::new(crate::CompletionRing::new());
        for round in 0..20u64 {
            for w in 0..3u64 {
                d.submit(Sqe::write(w, (round * 3 + w) * 512, vec![w as u8; 512], &ring));
            }
            d.submit_sync(99, &ring);
            let mut cqes = Vec::new();
            while cqes.len() < 4 {
                if ring.reap(&mut cqes) == 0 {
                    ring.wait_nonempty(std::time::Duration::from_millis(100));
                }
            }
            let ids: Vec<u64> = cqes.iter().map(|c| c.id).collect();
            assert_eq!(ids[3], 99, "round {round}: sync completed before a write: {ids:?}");
            assert!(cqes.iter().all(|c| c.result.is_ok()));
        }
    }

    #[test]
    fn stats_accumulate() {
        let d = MemDevice::new(1);
        d.write_blocking(0, vec![0; 100]).unwrap();
        d.write_blocking(100, vec![0; 50]).unwrap();
        let _ = d.read_blocking(0, 30);
        let s = d.stats();
        assert_eq!(s.bytes_written, 150);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_read, 30);
        assert_eq!(s.reads, 1);
    }
}
