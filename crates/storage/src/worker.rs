//! Background I/O worker pool shared by the device implementations.
//!
//! Each device owns a small pool of OS threads draining a channel of queued
//! jobs. This mirrors the asynchronous I/O model the paper's log depends on:
//! a flush or record read is *queued*, the issuing FASTER thread keeps
//! processing operations, and the completion later lands on the ring the
//! issuer reaps (§5.3).

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send>;

/// A pool of I/O worker threads. Every job holds a ticket in queue order
/// until it finishes, so the pool knows whether anything queued before a
/// given job is still running: enough for a barrier that waits out
/// everything in flight and for an ordered job that runs only once
/// everything queued before it has.
pub(crate) struct IoPool {
    tx: Option<Sender<Job>>,
    tickets: Arc<Mutex<Tickets>>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Tickets {
    next: u64,
    /// Tickets of the jobs queued or running, oldest first.
    unfinished: VecDeque<u64>,
}

/// Spins until `done(tickets)` holds.
fn wait_for(tickets: &Mutex<Tickets>, done: impl Fn(&Tickets) -> bool) {
    while !done(&tickets.lock().unwrap()) {
        std::thread::yield_now();
    }
}

impl IoPool {
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1);
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("faster-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn I/O worker")
            })
            .collect();
        Self { tx: Some(tx), tickets: Arc::default(), workers }
    }

    /// Queues a job. It counts as finished only once it has returned,
    /// including its CQE push and the ring's waker.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.enqueue(false, job);
    }

    /// Queues a job that runs only once every job queued before it has
    /// finished: a barrier's CQE. Jobs queued earlier were dequeued earlier,
    /// so it waits only on jobs other workers are already running.
    pub fn submit_ordered<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.enqueue(true, job);
    }

    fn enqueue<F: FnOnce() + Send + 'static>(&self, ordered: bool, job: F) {
        let tickets = self.tickets.clone();
        // Ticket and send under one lock: queue order is ticket order.
        let mut t = self.tickets.lock().unwrap();
        let ticket = t.next;
        t.next += 1;
        t.unfinished.push_back(ticket);
        let wrapped: Job = Box::new(move || {
            if ordered {
                wait_for(&tickets, |t| t.unfinished.front() == Some(&ticket));
            }
            job();
            let mut t = tickets.lock().unwrap();
            let at = t.unfinished.iter().position(|&u| u == ticket).expect("queued ticket");
            t.unfinished.remove(at);
        });
        self.tx
            .as_ref()
            .expect("pool not shut down")
            .send(wrapped)
            .expect("I/O workers alive");
    }

    /// Spins until no job is queued or running, including any submitted
    /// while it waits.
    pub fn barrier(&self) {
        wait_for(&self.tickets, |t| t.unfinished.is_empty());
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        self.barrier();
        // Close the channel so workers exit their recv loop.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A deadline-ordered completion scheduler for [`MemDevice`]'s reads.
///
/// The worker pool simulates latency by *occupying a worker* for the
/// duration (`precise_sleep` then execute), which caps concurrent delayed
/// operations at the pool width — io-depth 64 over 4 workers degenerates to
/// depth 4. Reads instead execute at submission (the bytes are
/// copied immediately) and park their completion here; a single timer
/// thread publishes each CQE at its latency deadline, so any number of
/// simulated-latency operations overlap, exactly like a real NVMe queue.
/// A submission batch parks all its CQEs with one lock and one wake
/// ([`DeadlineTimer::defer_all`]).
///
/// Sub-100µs residual waits are spun (mirroring [`precise_sleep`]) so the
/// simulated 20µs NVMe latency is not distorted by OS timer granularity.
///
/// [`MemDevice`]: crate::MemDevice
pub(crate) struct DeadlineTimer {
    shared: Arc<TimerShared>,
    handle: Option<JoinHandle<()>>,
}

/// A CQE parked until its deadline: `(due, completion, result)`.
pub(crate) type Deferred = (Instant, crate::ring::SqeCompletion, Result<Vec<u8>, crate::IoError>);

#[derive(Default)]
struct TimerQueue {
    heap: BinaryHeap<TimerEntry>,
    /// Next submission sequence number (ties among equal deadlines).
    next_seq: u64,
}

struct TimerShared {
    queue: Mutex<TimerQueue>,
    wake: Condvar,
    /// Entries deferred but not yet completed (barrier support).
    pending: AtomicU64,
    /// Parks [`DeadlineTimer::barrier`] callers; the run loop takes this
    /// lock and notifies when the last deferred completion delivers.
    drained_lock: Mutex<()>,
    drained: Condvar,
    shutdown: AtomicBool,
}

struct TimerEntry {
    due: Instant,
    /// Tie-breaker preserving submission order among equal deadlines.
    seq: u64,
    completion: crate::ring::SqeCompletion,
    result: Result<Vec<u8>, crate::IoError>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // (then lowest seq) on top.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

impl DeadlineTimer {
    pub fn new() -> Self {
        let shared = Arc::new(TimerShared {
            queue: Mutex::default(),
            wake: Condvar::new(),
            pending: AtomicU64::new(0),
            drained_lock: Mutex::new(()),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let s = shared.clone();
        let handle = std::thread::Builder::new()
            .name("faster-io-timer".into())
            .spawn(move || s.run())
            .expect("spawn I/O deadline timer");
        Self { shared, handle: Some(handle) }
    }

    /// Schedules each completion to deliver its result at its `due`
    /// instant, equal deadlines in iteration order: one queue lock and one
    /// wake of the run loop for the lot, whatever their deadlines.
    pub fn defer_all(&self, entries: impl IntoIterator<Item = Deferred>) {
        let mut q = self.shared.queue.lock().expect("timer lock poisoned");
        let before = q.heap.len();
        for (due, completion, result) in entries {
            let seq = q.next_seq;
            q.next_seq += 1;
            q.heap.push(TimerEntry { due, seq, completion, result });
        }
        // Counted before the lock drops, so the run loop cannot deliver
        // (and decrement for) an entry not yet counted.
        self.shared.pending.fetch_add((q.heap.len() - before) as u64, Ordering::SeqCst);
        drop(q);
        self.shared.wake.notify_one();
    }

    /// Parks until every deferred completion has been delivered. The run
    /// loop notifies `drained` when `pending` hits zero, so a barrier over
    /// a long deadline sleeps instead of burning a core.
    pub fn barrier(&self) {
        let mut g = self.shared.drained_lock.lock().unwrap();
        while self.shared.pending.load(Ordering::SeqCst) != 0 {
            g = self.shared.drained.wait(g).expect("timer drained lock poisoned");
        }
    }
}

impl Drop for DeadlineTimer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl TimerShared {
    fn run(&self) {
        // Reused across wake-ups: delivering a batch allocates nothing.
        let mut due_now = Vec::new();
        loop {
            let mut draining = false;
            {
                let mut q = self.queue.lock().unwrap();
                if self.shutdown.load(Ordering::SeqCst) {
                    // Orderly teardown: deliver everything immediately.
                    due_now.extend(q.heap.drain());
                    draining = true;
                } else {
                    let now = Instant::now();
                    while q.heap.peek().is_some_and(|e| e.due <= now) {
                        due_now.push(q.heap.pop().expect("peeked"));
                    }
                    if due_now.is_empty() {
                        match q.heap.peek().map(|e| e.due) {
                            Some(next) => {
                                let wait = next.saturating_duration_since(now);
                                if wait < std::time::Duration::from_micros(100) {
                                    // Short residual: spin (outside the lock)
                                    // for deadline precision.
                                    drop(q);
                                    precise_sleep(wait);
                                } else {
                                    let _ = self
                                        .wake
                                        .wait_timeout(q, wait)
                                        .expect("timer lock poisoned");
                                }
                            }
                            None => {
                                let _ = self
                                    .wake
                                    .wait_timeout(q, std::time::Duration::from_millis(50))
                                    .expect("timer lock poisoned");
                            }
                        }
                        continue;
                    }
                }
            }
            // Deadline order within the batch (heap drain is unordered).
            due_now.sort_by(|a, b| a.due.cmp(&b.due).then(a.seq.cmp(&b.seq)));
            let delivered = due_now.len() as u64;
            for e in due_now.drain(..) {
                e.completion.complete(e.result);
            }
            if self.pending.fetch_sub(delivered, Ordering::SeqCst) == delivered {
                // Take the barrier's lock before notifying so a waiter
                // between its pending check and its wait can't miss us.
                drop(self.drained_lock.lock().unwrap());
                self.drained.notify_all();
            }
            if draining {
                return;
            }
        }
    }
}

/// Sleeps for `d`, spinning for sub-100µs waits where OS sleep granularity
/// would distort the latency model.
pub(crate) fn precise_sleep(d: std::time::Duration) {
    if d.is_zero() {
        return;
    }
    if d < std::time::Duration::from_micros(100) {
        let end = std::time::Instant::now() + d;
        while std::time::Instant::now() < end {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_run_and_barrier_waits() {
        let pool = IoPool::new(2);
        let count = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = count.clone();
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.barrier();
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_workers() {
        let count = Arc::new(AtomicU32::new(0));
        {
            let pool = IoPool::new(4);
            for _ in 0..50 {
                let c = count.clone();
                pool.submit(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop: barrier + join
        assert_eq!(count.load(Ordering::SeqCst), 50);
    }

    /// This thread's accumulated CPU time (utime + stime) in clock ticks,
    /// from /proc — the ground truth for "did the barrier spin or park".
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // comm can contain spaces; fields resume after the closing paren.
        // utime/stime are stat fields 14/15, i.e. indices 11/12 past state.
        let rest = &stat[stat.rfind(')').unwrap() + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        f[11].parse::<u64>().unwrap() + f[12].parse::<u64>().unwrap()
    }

    /// Regression for the busy-wait barrier: waiting out a long deadline
    /// must park on the condvar, not burn a core on `yield_now`.
    #[test]
    #[cfg(target_os = "linux")]
    fn timer_barrier_parks_without_spinning() {
        let timer = DeadlineTimer::new();
        let ring = Arc::new(crate::CompletionRing::new());
        let (_op, completion) = crate::Sqe::read(0, 0, 0, &ring).into_parts();
        let wait = std::time::Duration::from_millis(600);
        timer.defer_all(Some((Instant::now() + wait, completion, Ok(Vec::new()))));
        let wall = Instant::now();
        let cpu0 = thread_cpu_ticks();
        timer.barrier();
        let cpu = thread_cpu_ticks() - cpu0;
        assert!(wall.elapsed() >= wait - std::time::Duration::from_millis(10));
        assert_eq!(ring.reap(&mut Vec::new()), 1);
        // Parked: ~0 ticks. The old spin burned the full 600 ms (~60 ticks
        // at 100 Hz). 20 ticks (~200 ms) leaves slack for scheduler noise.
        assert!(cpu <= 20, "barrier consumed {cpu} CPU ticks while waiting");
    }

    #[test]
    fn timer_barrier_with_nothing_pending_returns_immediately() {
        let timer = DeadlineTimer::new();
        let start = Instant::now();
        timer.barrier();
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }

    #[test]
    fn precise_sleep_is_at_least_requested() {
        let d = std::time::Duration::from_micros(50);
        let start = std::time::Instant::now();
        precise_sleep(d);
        assert!(start.elapsed() >= d);
    }
}
