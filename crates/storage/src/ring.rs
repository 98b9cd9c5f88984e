//! Submission/completion ring: the io_uring-shaped device interface.
//!
//! Every device result is delivered one way — a completion queue entry
//! ([`Cqe`]) pushed into the [`CompletionRing`] the submission queue entry
//! ([`Sqe`]) named:
//!
//! * the submitter builds SQEs (id + read/write op + destination ring) and
//!   hands a batch to [`Device::submit_all`](crate::Device::submit_all) —
//!   one "doorbell" per batch, not one dispatch per op;
//! * the device services each SQE and publishes a [`Cqe`] into the
//!   submitter's ring, on whatever thread finished the I/O;
//! * the submitter reaps CQEs straight off the ring — a single atomic swap
//!   for the whole batch, no thread hop, no lock — and resumes the
//!   continuation keyed by the echoed id.
//!
//! [`SqeCompletion::complete`] consumes the completion, so a result cannot
//! be delivered twice; a completion dropped without it publishes an error
//! CQE, so a result cannot be lost either — the waiter sees a failed I/O,
//! not a hang.
//!
//! ## Consuming a ring
//!
//! [`CompletionRing::reap`] is the non-blocking grab-all (a Treiber-stack
//! swap, wait-free for the consumer). [`CompletionRing::wait_nonempty`]
//! parks the consumer on a condvar until a producer publishes, with a
//! bounded timeout so callers can keep epoch maintenance alive; the
//! producer side stays lock-free unless a sleeper is registered.
//! [`CompletionRing::set_waker`] runs a hook on the publishing thread after
//! every push: the server uses it to multiplex the ring into a poll set,
//! the log to consume its page-flush CQEs on the I/O thread that produced
//! them.

use crate::IoError;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One completed operation: the submitter's id plus the result bytes — the
/// data read, or for a write the buffer it wrote, handed back so a submitter
/// that writes repeatedly reuses one allocation — or the error.
#[derive(Debug)]
pub struct Cqe {
    pub id: u64,
    pub result: Result<Vec<u8>, IoError>,
}

/// The operation half of an SQE.
#[derive(Debug)]
pub enum SqeOp {
    /// Read `len` bytes at byte `offset`.
    Read { offset: u64, len: usize },
    /// Write `data` at byte `offset`.
    Write { offset: u64, data: Vec<u8> },
}

/// The completion half of an SQE: which ring (and under which id) the
/// result goes to. Devices split an SQE with [`Sqe::into_parts`], perform
/// the I/O, and call [`SqeCompletion::complete`] exactly once.
pub struct SqeCompletion {
    id: u64,
    /// `None` once the CQE has been published.
    ring: Option<Arc<CompletionRing>>,
    /// Set by [`SqeCompletion::fail_with`]: reported instead of the result.
    fail: Option<IoError>,
}

impl SqeCompletion {
    /// A completion with no operation attached: a barrier's
    /// ([`Device::submit_sync`](crate::Device::submit_sync)).
    pub(crate) fn new(id: u64, ring: &Arc<CompletionRing>) -> Self {
        Self { id, ring: Some(Arc::clone(ring)), fail: None }
    }

    /// The submitter's id, echoed in the CQE.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Makes the completion report `err` whatever result it is later given.
    /// For wrapper devices that forward an operation whose outcome they have
    /// already decided (a torn write still lands its surviving prefix).
    pub fn fail_with(mut self, err: IoError) -> Self {
        self.fail = Some(err);
        self
    }

    /// Publishes the CQE. Consumes the completion — exactly-once.
    pub fn complete(mut self, result: Result<Vec<u8>, IoError>) {
        let ring = self.ring.take().expect("ring is held until the CQE is published");
        ring.push(Cqe { id: self.id, result: self.fail.take().map_or(result, Err) });
    }
}

impl Drop for SqeCompletion {
    /// A completion dropped un-completed (a device bug, a panicking pool
    /// job) must not strand whoever is parked on the ring.
    fn drop(&mut self) {
        if let Some(ring) = self.ring.take() {
            ring.push(Cqe { id: self.id, result: Err(IoError::Failed("sqe dropped".into())) });
        }
    }
}

/// A submission queue entry: one asynchronous read or write plus the ring
/// its completion lands in.
pub struct Sqe {
    op: SqeOp,
    completion: SqeCompletion,
}

impl Sqe {
    fn new(id: u64, op: SqeOp, ring: &Arc<CompletionRing>) -> Self {
        Self { op, completion: SqeCompletion::new(id, ring) }
    }

    /// A read: the CQE (echoing `id`) lands in `ring`.
    pub fn read(id: u64, offset: u64, len: usize, ring: &Arc<CompletionRing>) -> Self {
        Self::new(id, SqeOp::Read { offset, len }, ring)
    }

    /// A write: the CQE (carrying `data` back on success) lands in `ring`.
    pub fn write(id: u64, offset: u64, data: Vec<u8>, ring: &Arc<CompletionRing>) -> Self {
        Self::new(id, SqeOp::Write { offset, data }, ring)
    }

    /// The submitter's id.
    pub fn id(&self) -> u64 {
        self.completion.id
    }

    /// The operation, for devices that inspect before splitting.
    pub fn op(&self) -> &SqeOp {
        &self.op
    }

    /// Splits into the op and its completion (device service path).
    pub fn into_parts(self) -> (SqeOp, SqeCompletion) {
        (self.op, self.completion)
    }

    /// Reassembles an SQE (wrapper devices forwarding to an inner device).
    pub fn from_parts(op: SqeOp, completion: SqeCompletion) -> Self {
        Self { op, completion }
    }
}

struct Node {
    cqe: Cqe,
    next: *mut Node,
}

/// Lock-free MPSC completion ring: producers (device workers, or the
/// submitter itself for synchronous completions) push CQEs; the owning
/// consumer reaps them all with one atomic swap. A condvar lets the
/// consumer block for the next completion without spinning.
pub struct CompletionRing {
    head: AtomicPtr<Node>,
    /// Sleeper count; producers skip the mutex entirely while it is zero.
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    wake: Condvar,
    /// Optional external waker, run after every publish. Lets a consumer
    /// multiplex this ring with other event sources (e.g. socket readiness
    /// in a poll set): the waker typically writes a self-pipe byte so one
    /// park observes both CQEs and connection events. `has_waker` keeps the
    /// no-waker fast path to a single relaxed load.
    has_waker: AtomicBool,
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Default for CompletionRing {
    fn default() -> Self {
        Self::new()
    }
}

impl CompletionRing {
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            has_waker: AtomicBool::new(false),
            waker: Mutex::new(None),
        }
    }

    /// Installs (or replaces) the external waker, invoked after every
    /// [`CompletionRing::push`]. The waker runs on the producer's thread —
    /// an I/O worker, or the submitter for an inline completion — and must
    /// not block on that thread's own pending I/O. It may reap this ring
    /// and submit SQEs that complete into it.
    pub fn set_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        *self.waker.lock().unwrap() = Some(Arc::new(waker));
        self.has_waker.store(true, Ordering::SeqCst);
    }

    /// Removes the external waker installed by [`CompletionRing::set_waker`].
    pub fn clear_waker(&self) {
        self.has_waker.store(false, Ordering::SeqCst);
        *self.waker.lock().unwrap() = None;
    }

    /// Publishes one CQE from any thread. Lock-free unless the consumer is
    /// parked, in which case the wake takes the (uncontended) gate mutex.
    pub fn push(&self, cqe: Cqe) {
        let node = Box::into_raw(Box::new(Node { cqe, next: ptr::null_mut() }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: `node` is unpublished — exclusively ours to mutate.
            unsafe { (*node).next = head };
            match self.head.compare_exchange_weak(
                head,
                node,
                Ordering::SeqCst, // publish the CQE; also order before the sleeper check
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the gate orders this wake after the sleeper's own
            // empty-check-then-wait, so the notify cannot be lost.
            let _g = self.gate.lock().unwrap();
            self.wake.notify_all();
        }
        if self.has_waker.load(Ordering::SeqCst) {
            // Called outside the lock: a waker that submits an SQE which
            // completes inline pushes into this ring again.
            let waker = self.waker.lock().unwrap().clone();
            if let Some(w) = waker {
                w();
            }
        }
    }

    /// True when no CQE is currently published.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst).is_null()
    }

    /// Detaches every published CQE and appends them to `out` in submission
    /// (FIFO) order. Wait-free for the consumer: one swap, then private
    /// work. Returns how many were reaped.
    pub fn reap(&self, out: &mut Vec<Cqe>) -> usize {
        // Acquire pairs with the publishing CAS in `push`.
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        if node.is_null() {
            return 0;
        }
        // The detached list is newest-first; reverse in place.
        let mut reversed: *mut Node = ptr::null_mut();
        while !node.is_null() {
            // SAFETY: `node` is a non-null node of the list the swap
            // detached, so no other thread can reach it.
            let next = unsafe { (*node).next };
            // SAFETY: as above: a detached node is exclusively ours.
            unsafe { (*node).next = reversed };
            reversed = node;
            node = next;
        }
        let before = out.len();
        while !reversed.is_null() {
            // SAFETY: every node came from `Box::into_raw` in `push` and is
            // exclusively ours once detached; a `Cqe` owns only `Send` data,
            // so taking it on the reaping thread is sound.
            let boxed = unsafe { Box::from_raw(reversed) };
            reversed = boxed.next;
            out.push(boxed.cqe);
        }
        out.len() - before
    }

    /// Parks until the one completion expected on this private ring arrives
    /// and returns its result: the blocking wait behind
    /// [`Device::read_blocking`](crate::Device::read_blocking) and the WAL's
    /// durability wait.
    pub fn wait_one(&self) -> Result<Vec<u8>, IoError> {
        let mut cqes = Vec::with_capacity(1);
        while self.reap(&mut cqes) == 0 {
            self.wait_nonempty(Duration::from_millis(100));
        }
        cqes.pop().expect("reap reported a CQE").result
    }

    /// Parks the caller until at least one CQE is published or `timeout`
    /// elapses. Returns true when the ring is (probably) non-empty. Never
    /// spins: the wait is a condvar park paired with producer-side wakes.
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        if !self.is_empty() {
            return true;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let guard = self.gate.lock().unwrap();
            // Re-check under the gate: a producer that published before we
            // registered must be observed here (its CAS is SeqCst-ordered
            // before its sleeper check).
            if self.is_empty() {
                let _ = self.wake.wait_timeout(guard, timeout).unwrap();
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        !self.is_empty()
    }
}

impl Drop for CompletionRing {
    fn drop(&mut self) {
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // Safety: sole owner during drop.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_preserves_fifo_per_producer() {
        let ring = CompletionRing::new();
        for i in 0..10 {
            ring.push(Cqe { id: i, result: Ok(Vec::new()) });
        }
        let mut out = Vec::new();
        assert_eq!(ring.reap(&mut out), 10);
        let ids: Vec<u64> = out.iter().map(|c| c.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(ring.reap(&mut out), 0, "second reap finds nothing new");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let ring = Arc::new(CompletionRing::new());
        let producers = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per {
                        ring.push(Cqe { id: p as u64 * per + i, result: Ok(Vec::new()) });
                    }
                })
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < (producers as usize) * per as usize {
            ring.reap(&mut out);
        }
        for h in handles {
            h.join().unwrap();
        }
        ring.reap(&mut out);
        let mut ids: Vec<u64> = out.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..producers as u64 * per).collect::<Vec<_>>());
    }

    #[test]
    fn wait_nonempty_wakes_on_push() {
        let ring = Arc::new(CompletionRing::new());
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r2.push(Cqe { id: 7, result: Ok(Vec::new()) });
        });
        // A generous timeout: the wake, not the timeout, should end the wait.
        let start = std::time::Instant::now();
        assert!(ring.wait_nonempty(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(4), "woken, not timed out");
        t.join().unwrap();
        let mut out = Vec::new();
        assert_eq!(ring.reap(&mut out), 1);
        assert_eq!(out[0].id, 7);
    }

    #[test]
    fn wait_nonempty_times_out_on_silence() {
        let ring = CompletionRing::new();
        let start = std::time::Instant::now();
        assert!(!ring.wait_nonempty(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    /// A device that loses every SQE it is handed.
    struct LossyDevice;

    impl crate::Device for LossyDevice {
        fn submit(&self, sqe: Sqe) {
            drop(sqe);
        }
        fn flush_barrier(&self) -> Result<(), IoError> {
            Ok(())
        }
        fn stats(&self) -> crate::DeviceStats {
            crate::DeviceStats::default()
        }
    }

    #[test]
    fn dropped_sqe_is_an_error_not_a_hang() {
        use crate::Device;
        // On a side thread, so a regression fails the deadline below
        // instead of hanging the suite.
        let waiter = std::thread::spawn(|| {
            (LossyDevice.read_blocking(0, 8), LossyDevice.write_blocking(0, vec![1; 8]))
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(std::time::Instant::now() < deadline, "waiter stranded by a dropped SQE");
            std::thread::sleep(Duration::from_millis(1));
        }
        let dropped = || IoError::Failed("sqe dropped".into());
        assert_eq!(waiter.join().unwrap(), (Err(dropped()), Err(dropped())));
    }

    #[test]
    fn waker_fires_on_every_push_until_cleared() {
        let ring = CompletionRing::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        ring.set_waker(move || {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        ring.push(Cqe { id: 1, result: Ok(Vec::new()) });
        ring.push(Cqe { id: 2, result: Ok(Vec::new()) });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        ring.clear_waker();
        ring.push(Cqe { id: 3, result: Ok(Vec::new()) });
        assert_eq!(fired.load(Ordering::SeqCst), 2, "cleared waker must not fire");
        let mut out = Vec::new();
        assert_eq!(ring.reap(&mut out), 3, "waker is advisory; CQEs still flow");
    }

    #[test]
    fn drop_reclaims_unreaped_cqes() {
        let ring = CompletionRing::new();
        for i in 0..100 {
            ring.push(Cqe { id: i, result: Ok(vec![0u8; 16]) });
        }
        drop(ring); // leak checkers would flag lost nodes here
    }
}
