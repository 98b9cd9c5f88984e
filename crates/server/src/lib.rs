//! RESP network front-end (DESIGN.md §13): a TCP server that speaks the
//! Redis serialization protocol over a `FasterKv<u64, u64, CountStore>`,
//! turning client pipelining into the store's batched execution.
//!
//! ## Architecture
//!
//! One acceptor thread round-robins connections over `N` worker threads.
//! Each worker owns exactly one [`Session`] — sessions are the store's unit
//! of thread registration — plus a `poll(2)` set over its connections and a
//! non-blocking self-pipe. The session's completion ring is wired to that
//! pipe via [`Session::set_io_waker`], so **one** `poll` set reports either
//! kind of event:
//!
//! * socket readiness — bytes to parse, or room to flush replies;
//! * ring CQEs — disk-read completions, and the syncs of WAL groups the
//!   worker leads, pushed by the devices' I/O threads (plus durability
//!   notices, when another session publishes the group that covers it).
//!
//! A pass runs **execute → gather → lead → spin → park**:
//!
//! * *execute* reads, parses and executes the windows its `poll` reported;
//! * *gather* — only in a pass about to ask the WAL for a group — waits for
//!   the client's other windows of the round: it polls, with a zero timeout,
//!   each connection that delivered in the previous lead interval (the
//!   passes since the last ask) but not in this one, owes no reply and is
//!   open, and executes what lands, until no one is awaited or the pass's
//!   execute time plus the wait reaches half the worker's last measured
//!   commit (capped at `SPIN`). A silent connection is never awaited, and
//!   one that goes quiet is awaited once;
//! * *lead*: `complete_pending` asks the WAL once for everything gated, so
//!   the round's windows commit as one group;
//! * *spin*: the worker polls its whole set with a zero timeout for one WAL
//!   group commit's length (`SPIN`, 50 µs);
//! * *park*: only then does it block in `poll` with the idle bound.
//!
//! The paper's sessions poll for completions rather than sleep on them
//! (§2.5); here the spin catches the round's sync CQE and the client's next
//! window without the wake-up of a halted CPU, while a worker with nothing
//! to do parks after one spin and never spins after a timed-out park.
//! [`Server::wake_counts`] says how each pass began and what its gather did.
//!
//! ## Pipelining → batching
//!
//! Every complete frame sitting in a connection's input buffer after one
//! read burst is decoded in one pass and driven through
//! [`Session::execute_batch`] as a single [`BatchOp`] slice — a client
//! pipelining at depth 64 gets the store's batched index prefetch and one
//! health check per batch, not 64 scalar calls. Replies are queued in
//! command order and emitted strictly in order; a reply whose op went
//! pending (`OpError::Pending`) or whose durability ack is still in flight
//! holds up the replies behind it, exactly as RESP requires.
//!
//! An `INCR` is answered by the RMW that applied it: `CountStore`'s updaters
//! return the counter's new value. A segment ends after each `INCR`, because
//! its RMW may go pending (Table 2: the key's record is in the fuzzy region
//! or on disk). A pending `INCR` parks its reply as a pending GET does, and
//! **stalls its connection**: nothing pipelined behind it executes until its
//! completion applies, so a later `SET`/`GET`/`INCR` of the key observes it.
//! Its reply is gated on the WAL LSN its completion appended. A fuzzy-region
//! retry has no CQE to wake the worker, so a worker with a stalled (or just
//! resumed) connection wakes itself through its own pipe instead of parking.
//!
//! ## Reply path
//!
//! A command allocates nothing between its bytes and its reply. The parser
//! borrows a frame's arguments from the input buffer into a fixed array and
//! matches the command name in place; a reply slot holds a small value
//! (`+OK`, an integer, a bulk value, nil, or an error message) that is
//! rendered into the output buffer only when emitted, integers formatted on
//! the stack; and the worker's per-segment vectors are cleared, not
//! reallocated. What a pipelined window still allocates is per window —
//! `execute_batch`'s result vectors — which `tests/tests/server_allocs.rs`
//! pins: without a WAL, a depth-64 window costs exactly what a depth-1
//! window does. Only error replies allocate.
//!
//! ## Durability and degradation
//!
//! On a WAL-backed store, every mutation reply (`SET` → `+OK`, `DEL` →
//! `:1`, `INCR` → `:n`) is **held until the WAL's durable watermark covers
//! its LSN**: after each batch the worker takes the session's last appended
//! LSN from [`Session::notify_wal_durable`] and gates the segment's mutation
//! replies on it with [`Session::poll_wal_durable`]. The pass's
//! `complete_pending` asks the WAL for that LSN once: on an idle log the
//! worker leads the staged group — its write and sync go to the WAL device —
//! and reaping the sync's CQE off its own ring, in a later pass, publishes
//! the watermark. No commit thread sits between the worker and its acks. An
//! acked `SET` therefore survives killing the server process — the
//! over-the-wire crash tests recover the store from the WAL and check
//! exactly that. Once the session has latched a WAL failure — a failed group
//! commit, or an append the log refused — a gated reply goes out as
//! `-READONLY`: a refused append poisons the session's LSN, so no group ever
//! covers it and it is never acked. A store degraded to read-only (DESIGN.md
//! §12) refuses mutations with `-READONLY <reason>` while reads keep serving.
//!
//! ## Wire dialect
//!
//! Keys and values are decimal `u64`s (the store is fixed-width).
//! `GET`/`SET`/`DEL`/`INCR`/`INCRBY`/`PING`/`QUIT` are implemented; `DEL`
//! always answers `:1` (the store's tombstone append does not report prior
//! existence), and `INCR` answers the value its own RMW produced — exact
//! under cross-connection races on the same key, since no second read can
//! observe another connection's increment.

#![deny(clippy::undocumented_unsafe_blocks)]

mod resp;

pub use resp::Command;

use faster_core::{BatchOp, CountStore, FasterKv, OpError, Outcome, Session};
use libc::{c_int, c_void, nfds_t, pollfd, O_NONBLOCK, POLLERR, POLLHUP, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The store type this front-end serves: fixed-width counters, RMW = add.
pub type Store = FasterKv<u64, u64, CountStore>;
type WorkerSession = Session<u64, u64, CountStore>;

/// Park bound: every data event has a waker, so a park that runs this long
/// found nothing to do; it bounds only how late an idle worker notices
/// shutdown. After a pass that handled an event, a worker parks only once
/// its spin ([`SPIN`]) has found nothing.
const IDLE_POLL_MS: c_int = 200;

/// How long a worker keeps polling its set with a zero timeout, after a pass
/// that handled an event, before it parks. A pass runs execute → gather →
/// lead → spin → park (module doc), so the next event of a served round is
/// usually the sync CQE of the WAL group the pass led, one group commit
/// later: `wal.commit_us` reads 31–43 µs on the 20 µs NVMe device model.
/// 50 µs covers that with margin. On `mem_a_d1`, 25 µs left the p50 of some
/// runs at the parked value, and 100 µs bought nothing over 50 µs. An event
/// inside the spin starts the next pass without a wake-up of a halted CPU;
/// an idle worker pays the spin once, after its last event. `SPIN` also caps
/// a gather, whose own bound is half the last measured commit.
const SPIN: Duration = Duration::from_micros(50);

// ------------------------------------------------------------ wake causes

/// How the passes of a server's workers began, and what their gathers
/// did, summed by [`Server::wake_counts`]. Every pass begins exactly one
/// way, so `passes == spun + woken + timeouts` once the workers have
/// stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeCounts {
    /// Event-loop passes.
    pub passes: u64,
    /// Passes that a spin's `poll(…, 0)` started: an event came in before
    /// the worker parked.
    pub spun: u64,
    /// Parks that an event ended.
    pub woken: u64,
    /// Parks that ran out `IDLE_POLL_MS` with nothing ready.
    pub timeouts: u64,
    /// Windows that a gather executed: they joined the group the pass was
    /// about to lead.
    pub gathered: u64,
    /// Leads that went ahead while an awaited connection was still silent.
    pub gather_expired: u64,
}

/// One worker's wake causes, shared with the [`Server`] handle.
#[derive(Default)]
struct WakeCounters {
    passes: AtomicU64,
    spun: AtomicU64,
    woken: AtomicU64,
    timeouts: AtomicU64,
    gathered: AtomicU64,
    gather_expired: AtomicU64,
}

impl WakeCounters {
    fn add_to(&self, sum: &mut WakeCounts) {
        sum.passes += self.passes.load(Ordering::Relaxed);
        sum.spun += self.spun.load(Ordering::Relaxed);
        sum.woken += self.woken.load(Ordering::Relaxed);
        sum.timeouts += self.timeouts.load(Ordering::Relaxed);
        sum.gathered += self.gathered.load(Ordering::Relaxed);
        sum.gather_expired += self.gather_expired.load(Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------- self-pipe

/// The write end of a worker's self-pipe, shared by the session's ring
/// waker and the server handle. `armed` dedupes: one byte in the pipe is
/// enough to wake `poll`, so consecutive wakes between two worker passes
/// collapse into one write.
struct Waker {
    wr: c_int,
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let byte = 1u8;
            // A full pipe (EAGAIN) already wakes the worker; ignore errors.
            // SAFETY: `wr` is the pipe's write end, open until this `Waker`
            // drops, and the source is one live byte on the stack.
            unsafe { libc::write(self.wr, &byte as *const u8 as *const c_void, 1) };
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: the `Waker` owns `wr` (from `self_pipe`) and this is its
        // only close; no handle to it outlives the last `Arc`.
        unsafe { libc::close(self.wr) };
    }
}

/// The read end, owned by its worker.
struct PipeReader(c_int);

impl PipeReader {
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `self.0` is the pipe's read end, open until this
            // reader drops, and the kernel writes at most `buf.len()` bytes
            // into the exclusively borrowed stack buffer.
            let n = unsafe { libc::read(self.0, buf.as_mut_ptr() as *mut c_void, buf.len()) };
            if n <= 0 {
                break; // empty (EAGAIN) or closed
            }
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        // SAFETY: the reader owns its fd (from `self_pipe`) and this is its
        // only close.
        unsafe { libc::close(self.0) };
    }
}

fn self_pipe() -> io::Result<(PipeReader, Arc<Waker>)> {
    let mut fds = [0 as c_int; 2];
    // SAFETY: `pipe2` writes exactly two fds into the two-element array.
    if unsafe { libc::pipe2(fds.as_mut_ptr(), O_NONBLOCK) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((PipeReader(fds[0]), Arc::new(Waker { wr: fds[1], armed: AtomicBool::new(false) })))
}

// -------------------------------------------------------------- reply queue

/// What a reply says. It stays a value until it is emitted, and is rendered
/// straight into the connection's output buffer then.
enum Body {
    Ok,
    Pong,
    Int(u64),
    Bulk(u64),
    Nil,
    /// The only variant that owns memory; the success path never builds it.
    Error(String),
}

impl Body {
    fn render(&self, out: &mut Vec<u8>) {
        match self {
            Body::Ok => resp::simple(out, "OK"),
            Body::Pong => resp::simple(out, "PONG"),
            Body::Int(n) => resp::integer(out, *n),
            Body::Bulk(n) => resp::bulk_u64(out, *n),
            Body::Nil => resp::nil(out),
            Body::Error(msg) => resp::error(out, msg),
        }
    }
}

impl Body {
    /// The reply to an executed `op`.
    fn of(op: &BatchOp<u64, u64, u64>, outcome: Result<Outcome<u64>, OpError>) -> Body {
        match (op, outcome) {
            (BatchOp::Read { .. }, Ok(Outcome::Value(v))) => Body::Bulk(v),
            (BatchOp::Read { .. }, Err(OpError::NotFound)) => Body::Nil,
            (BatchOp::Rmw { .. }, Ok(Outcome::Value(v))) => Body::Int(v),
            (BatchOp::Upsert { .. }, Ok(_)) => Body::Ok,
            (BatchOp::Delete { .. }, Ok(_)) => Body::Int(1),
            (_, Err(OpError::Io(e))) => Body::Error(format!("ERR io: {e}")),
            (_, Err(OpError::ReadOnly(r))) => Body::Error(format!("READONLY {r}")),
            (_, Err(e)) => Body::Error(format!("ERR internal: {e}")),
            (_, Ok(_)) => Body::Error("ERR internal: no value to reply with".into()),
        }
    }
}

/// One in-order reply slot. Emittable once `pending` is `None` and the WAL
/// has made `wal` durable (or failed).
struct Reply {
    body: Body,
    /// An op that went pending; its completion renders the reply.
    pending: Option<BatchOp<u64, u64, u64>>,
    /// The LSN a mutation's ack waits for ([`Session::poll_wal_durable`]).
    wal: Option<u64>,
}

impl Reply {
    fn ready(body: Body) -> Self {
        Reply { body, pending: None, wal: None }
    }
}

// --------------------------------------------------------------- connection

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Parsed commands not yet executed; execution drains this in segments.
    queued: VecDeque<Command>,
    /// A protocol error poisoned the stream: once `queued` drains, this
    /// `-ERR` goes out and the connection closes.
    poisoned: Option<String>,
    replies: VecDeque<Reply>,
    /// Sequence number of `replies.front()`; pending-op bookkeeping
    /// addresses replies as `(conn id, seq)` so resolution survives pops.
    seq_base: u64,
    /// Peer closed its write side, or a protocol error poisoned the stream:
    /// stop reading, flush what is owed, then close.
    no_more_input: bool,
    /// Read or write failed outright: drop without flushing.
    broken: bool,
    /// An `INCR` went pending: nothing queued behind it executes until its
    /// completion applies.
    stalled: bool,
    /// The worker's lead interval in which a read last returned bytes.
    delivered: Option<u64>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            queued: VecDeque::new(),
            poisoned: None,
            replies: VecDeque::new(),
            seq_base: 0,
            no_more_input: false,
            broken: false,
            stalled: false,
            delivered: None,
        }
    }

    fn next_seq(&self) -> u64 {
        self.seq_base + self.replies.len() as u64
    }

    fn reply_mut(&mut self, seq: u64) -> Option<&mut Reply> {
        seq.checked_sub(self.seq_base).and_then(|i| self.replies.get_mut(i as usize))
    }

    /// Reads until the socket runs dry; a read that returns bytes marks the
    /// connection as delivered in lead interval `lead`.
    fn fill(&mut self, lead: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.no_more_input = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.delivered = Some(lead);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
    }

    /// Writes the output buffer until the socket pushes back.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
    }

    /// Decodes every complete frame in the input buffer into the command
    /// queue. A protocol error poisons the stream: already-queued commands
    /// still execute, then the stored `-ERR` goes out and the stream
    /// closes. `QUIT` likewise stops parsing; anything pipelined behind it
    /// is discarded.
    fn parse_input(&mut self) {
        if self.broken || self.poisoned.is_some() {
            return;
        }
        let mut consumed = 0usize;
        loop {
            match resp::parse(&self.inbuf[consumed..]) {
                Ok(resp::Parsed::Partial) => break,
                // Bare newlines and `*0` arrays: dropped without a reply,
                // the way Redis treats them.
                Ok(resp::Parsed::Empty(n)) => consumed += n,
                Err(resp::ParseError(msg)) => {
                    self.poisoned = Some(format!("ERR Protocol error: {msg}"));
                    self.no_more_input = true;
                    consumed = self.inbuf.len();
                    break;
                }
                Ok(resp::Parsed::Frame(cmd, n)) => {
                    consumed += n;
                    let quit = cmd == Command::Quit;
                    self.queued.push_back(cmd);
                    if quit {
                        self.no_more_input = true;
                        consumed = self.inbuf.len();
                        break;
                    }
                }
            }
        }
        self.inbuf.drain(..consumed);
    }

    /// Whether the gather before lead interval `lead` ends waits for this
    /// connection: it delivered in the previous interval and not yet in
    /// this one, owes no reply, and is open — so its client is likely
    /// sending the rest of a round.
    fn awaited(&self, lead: u64) -> bool {
        self.delivered == Some(lead - 1)
            && self.replies.is_empty()
            && self.outbuf.is_empty()
            && !self.no_more_input
            && !self.broken
    }

    /// Everything owed has been sent and no more will be produced.
    fn finished(&self) -> bool {
        self.broken
            || (self.no_more_input
                && self.outbuf.is_empty()
                && self.replies.is_empty()
                && self.queued.is_empty()
                && self.poisoned.is_none())
    }
}

// ------------------------------------------------------------------- worker

struct Worker {
    session: WorkerSession,
    pipe: PipeReader,
    waker: Arc<Waker>,
    incoming: mpsc::Receiver<TcpStream>,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Pending op id → the reply it renders.
    ops: HashMap<u64, (u64, u64)>,
    // Scratch reused by every segment: cleared, never reallocated once
    // warm, so a command allocates nothing on its way to its reply.
    /// The segment being executed.
    batch: Vec<BatchOp<u64, u64, u64>>,
    /// The reply seq of each op of `batch`, positionally.
    batched: Vec<u64>,
    /// How this worker's passes began.
    counts: Arc<WakeCounters>,
    /// The current lead interval: the passes since the last one that asked
    /// the WAL for a group. Starts at 1, so no connection has delivered in
    /// the one before it.
    lead: u64,
    /// The highest LSN [`Session::notify_wal_durable`] has promised.
    wanted: u64,
    /// The highest LSN a pass has asked the WAL for.
    asked: u64,
    /// The commit being timed: an asked LSN and when it was asked. The pass
    /// whose `complete_pending` finds it durable sets `commit`.
    probe: Option<(u64, Instant)>,
    /// The last measured commit; zero until one has been.
    commit: Duration,
}

/// `poll(2)` over `pfds`: how many are ready, 0 on timeout, < 0 on error
/// (`EINTR`).
fn poll(pfds: &mut [pollfd], timeout_ms: c_int) -> c_int {
    // SAFETY: `pfds` is an exclusively borrowed slice of initialised
    // `pollfd`s and its length goes with it, so the kernel reads and writes
    // (`revents`) only inside it.
    unsafe { libc::poll(pfds.as_mut_ptr(), pfds.len() as nfds_t, timeout_ms) }
}

impl Worker {
    fn run(mut self) {
        {
            let w = self.waker.clone();
            self.session.set_io_waker(move || w.wake());
        }
        let mut pfds: Vec<pollfd> = Vec::new();
        let mut slots: Vec<u64> = Vec::new();
        // A gather's poll set and the connections it stands for.
        let mut gather_pfds: Vec<pollfd> = Vec::new();
        let mut awaited: Vec<u64> = Vec::new();
        // When the last pass that handled an event ended; `None` after a
        // timed-out park, so an idle worker never spins.
        let mut spin_from = None;
        while !self.shutdown.load(Ordering::Acquire) {
            pfds.clear();
            slots.clear();
            pfds.push(pollfd { fd: self.pipe.0, events: POLLIN, revents: 0 });
            for (&id, c) in &self.conns {
                let mut ev = POLLIN; // HUP/ERR report regardless
                if !c.outbuf.is_empty() {
                    ev |= POLLOUT;
                }
                pfds.push(pollfd { fd: c.stream.as_raw_fd(), events: ev, revents: 0 });
                slots.push(id);
            }
            // Disk reads and WAL acks wake us through the self-pipe.
            let event = self.wait(&mut pfds, spin_from);
            let pass_from = Instant::now();
            self.counts.passes.fetch_add(1, Ordering::Relaxed);
            // Drain BEFORE clearing the dedupe flag. Once `armed` is false,
            // a wake() writes a byte that no drain consumes until after the
            // next poll, so it can never be silently absorbed; clearing
            // first opens a window where a wake's byte lands in the drain
            // while `armed` stays true, suppressing every later wake for a
            // full idle park. (A byte written between the store and the
            // poll just makes that poll return immediately — harmless.)
            self.pipe.drain();
            self.waker.armed.store(false, Ordering::Release);
            // An idle session pins the current epoch, which would stall
            // flushes and evictions store-wide — and with them any sibling
            // worker stuck waiting on an allocation. Refresh every pass.
            self.session.refresh();
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }

            while let Ok(stream) = self.incoming.try_recv() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = self.next_conn;
                self.next_conn += 1;
                self.conns.insert(id, Conn::new(stream));
            }

            for (i, pfd) in pfds.iter().enumerate().skip(1) {
                if pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    if let Some(c) = self.conns.get_mut(&slots[i - 1]) {
                        c.fill(self.lead);
                    }
                }
            }

            // The polled ids serve the whole pass: a connection accepted
            // since the poll has read nothing yet, and is polled next pass.
            for &id in &slots {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.parse_input();
                }
                self.execute_queued(id);
            }

            // A pass about to ask the WAL for a group first takes in the
            // round's other windows, so they share it.
            if self.wanted > self.asked && self.session.poll_wal_durable(self.wanted).is_none() {
                self.gather(&slots, pass_from, &mut gather_pfds, &mut awaited);
                self.asked = self.wanted;
                self.probe.get_or_insert_with(|| (self.asked, Instant::now()));
                self.lead += 1;
            }
            // One non-blocking pass drives continuations, publishes a WAL
            // group whose sync has landed (a failed group latches its error
            // into the session), and asks for this pass's mutations — so
            // they commit as one group, led from this worker.
            let done = self.session.complete_pending(false);
            if let Some((lsn, asked_at)) = self.probe {
                if self.session.poll_wal_durable(lsn).is_some() {
                    self.commit = asked_at.elapsed();
                    self.probe = None;
                }
            }
            // A resumed connection's queue and its INCR's WAL gate need the
            // next pass, and a stalled one may wait on a fuzzy retry, which
            // no CQE announces: either way, wake up instead of parking.
            let mut again = false;
            for comp in done {
                again |= self.resolve(comp.id, comp.result);
            }

            for &id in &slots {
                if let Some(c) = self.conns.get_mut(&id) {
                    Self::emit_ready(c, &self.session);
                    c.flush();
                    again |= c.stalled;
                    if c.finished() {
                        self.conns.remove(&id);
                    }
                }
            }
            if again {
                self.waker.wake();
            }
            spin_from = event.then(Instant::now);
        }
        self.session.clear_io_waker();
    }

    /// Waits for an event on `pfds` and counts how the wait ended. After a
    /// pass that handled an event (`spin_from` is when it ended) it first
    /// polls with a zero timeout until [`SPIN`] has passed; then it parks.
    /// Both poll the one set, so sockets and CQEs keep one readiness path.
    /// Returns whether an event ended the wait.
    fn wait(&self, pfds: &mut [pollfd], spin_from: Option<Instant>) -> bool {
        if let Some(from) = spin_from {
            loop {
                if poll(pfds, 0) != 0 {
                    self.counts.spun.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                if from.elapsed() >= SPIN {
                    break;
                }
            }
        }
        if poll(pfds, IDLE_POLL_MS) == 0 {
            self.counts.timeouts.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.counts.woken.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The gather step of a pass about to lead a group: polls, with a zero
    /// timeout, every connection of `slots` that is [`Conn::awaited`], and
    /// executes the windows that land, until no one is awaited or the pass
    /// (begun at `pass_from`) has run half the last measured commit, capped
    /// at [`SPIN`]. Waiting for a window delays the replies already gated
    /// by its execute time and gives up the overlap of their client's read
    /// with this commit; both grow as the pass's own execute time does, so
    /// waiting pays only while twice that fits in one commit. Before any
    /// commit has been measured the bound is zero, and a log whose commits
    /// take no time never gathers.
    fn gather(
        &mut self,
        slots: &[u64],
        pass_from: Instant,
        pfds: &mut Vec<pollfd>,
        awaited: &mut Vec<u64>,
    ) {
        pfds.clear();
        awaited.clear();
        for &id in slots {
            if let Some(c) = self.conns.get(&id).filter(|c| c.awaited(self.lead)) {
                pfds.push(pollfd { fd: c.stream.as_raw_fd(), events: POLLIN, revents: 0 });
                awaited.push(id);
            }
        }
        let bound = (self.commit / 2).min(SPIN);
        let mut silent = awaited.len();
        while silent > 0 && pass_from.elapsed() < bound {
            if poll(pfds, 0) <= 0 {
                continue;
            }
            for (pfd, &id) in pfds.iter_mut().zip(awaited.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                // A negative fd drops out of later polls.
                pfd.fd = -1;
                silent -= 1;
                let Some(c) = self.conns.get_mut(&id) else { continue };
                c.fill(self.lead);
                if c.delivered == Some(self.lead) {
                    self.counts.gathered.fetch_add(1, Ordering::Relaxed);
                }
                c.parse_input();
                self.execute_queued(id);
            }
        }
        if silent > 0 {
            self.counts.gather_expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains a connection's command queue in **segments**, each one
    /// `execute_batch` call — this is where client pipelining becomes
    /// batched execution. A segment ends either when the queue runs dry or
    /// just after an `INCR`, whose RMW may go pending: then the connection
    /// stalls, and the rest of the window waits until the RMW applies.
    /// Pending reads resolve against the record version captured at issue
    /// time, and every other mutation applies synchronously, so nothing
    /// behind a pending reply can reorder.
    fn execute_queued(&mut self, conn_id: u64) {
        loop {
            let Some(c) = self.conns.get_mut(&conn_id) else { return };
            if c.broken || c.stalled {
                return;
            }
            if c.queued.is_empty() {
                if let Some(msg) = c.poisoned.take() {
                    c.replies.push_back(Reply::ready(Body::Error(msg)));
                }
                return;
            }
            self.batch.clear();
            self.batched.clear();
            while let Some(cmd) = c.queued.pop_front() {
                let seq = c.next_seq();
                let op = match cmd {
                    Command::Ping => {
                        c.replies.push_back(Reply::ready(Body::Pong));
                        continue;
                    }
                    Command::Quit => {
                        c.replies.push_back(Reply::ready(Body::Ok));
                        continue;
                    }
                    Command::Bad(msg) => {
                        c.replies.push_back(Reply::ready(Body::Error(format!("ERR {msg}"))));
                        continue;
                    }
                    Command::Get(k) => BatchOp::Read { key: k, input: 0 },
                    Command::Set(k, v) => BatchOp::Upsert { key: k, value: v },
                    Command::Del(k) => BatchOp::Delete { key: k },
                    Command::Incr(k, n) => BatchOp::Rmw { key: k, input: n },
                };
                let segment_ends = matches!(op, BatchOp::Rmw { .. });
                self.batch.push(op);
                self.batched.push(seq);
                // The slot's body is set by `fill_reply` once the segment
                // has executed, before anything can emit it.
                c.replies.push_back(Reply::ready(Body::Nil));
                if segment_ends {
                    break; // segment boundary: the RMW may go pending
                }
            }
            if self.batch.is_empty() {
                continue; // only immediate commands this pass; re-check
            }

            let outcomes = self.session.execute_batch(&self.batch);
            // Mutations that applied in this segment share one durability
            // gate: the session's last appended LSN, which is ≥ every append
            // the segment made. `None` until the first mutation asks for it.
            let mut gate = None;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let (seq, op) = (self.batched[i], self.batch[i].clone());
                self.fill_reply(conn_id, seq, op, outcome, &mut gate);
            }
        }
    }

    /// Sets one batch outcome as its reply slot's body (or parks it pending,
    /// stalling the connection behind a pending `INCR`), gating an applied
    /// mutation on the segment's durability `gate`.
    fn fill_reply(
        &mut self,
        conn_id: u64,
        seq: u64,
        op: BatchOp<u64, u64, u64>,
        outcome: Result<Outcome<u64>, OpError>,
        gate: &mut Option<Option<u64>>,
    ) {
        // The durability notice touches the session, so ask for it before
        // borrowing the reply slot.
        let wal = match (&op, &outcome) {
            (BatchOp::Read { .. }, _) | (_, Err(_)) => None,
            _ => *gate.get_or_insert_with(|| self.session.notify_wal_durable()),
        };
        self.wanted = self.wanted.max(wal.unwrap_or(0));
        let Some(c) = self.conns.get_mut(&conn_id) else { return };
        let Some(reply) = c.reply_mut(seq) else { return };
        reply.wal = wal;
        if let Err(OpError::Pending(id)) = outcome {
            let incr = matches!(op, BatchOp::Rmw { .. });
            reply.pending = Some(op);
            c.stalled |= incr;
            self.ops.insert(id, (conn_id, seq));
            return;
        }
        reply.body = Body::of(&op, outcome);
    }

    /// Routes a completed pending op into the reply it renders. A completed
    /// `INCR` is gated on the WAL LSN its completion appended and resumes
    /// its connection; returns whether it did.
    fn resolve(&mut self, id: u64, result: Result<Outcome<u64>, OpError>) -> bool {
        let Some((conn_id, seq)) = self.ops.remove(&id) else { return false };
        let Some(c) = self.conns.get_mut(&conn_id) else { return false };
        let Some(reply) = c.reply_mut(seq) else { return false };
        let Some(op) = reply.pending.take() else { return false };
        let incr = matches!(op, BatchOp::Rmw { .. });
        if incr && result.is_ok() {
            reply.wal = self.session.notify_wal_durable();
            self.wanted = self.wanted.max(reply.wal.unwrap_or(0));
        }
        reply.body = Body::of(&op, result);
        c.stalled &= !incr;
        incr
    }

    /// Emits the resolved prefix of a connection's reply queue, checking
    /// each durability gate against the WAL's watermark. A latched WAL
    /// failure turns the gated reply into `-READONLY` — the mutation was
    /// applied in memory but is not (or may not be) in the log, and the
    /// store has already degraded.
    fn emit_ready(c: &mut Conn, session: &WorkerSession) {
        while let Some(front) = c.replies.front_mut() {
            if front.pending.is_some() {
                break;
            }
            if let Some(lsn) = front.wal {
                match session.poll_wal_durable(lsn) {
                    None => break,
                    Some(Ok(())) => {}
                    Some(Err(e)) => front.body = Body::Error(format!("READONLY wal failed: {e}")),
                }
            }
            let reply = c.replies.pop_front().expect("checked");
            c.seq_base += 1;
            reply.body.render(&mut c.outbuf);
        }
    }
}

// ------------------------------------------------------------------- server

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker event-loop threads (one store session each).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 2 }
    }
}

/// A running front-end. Dropping it (or calling [`Server::shutdown`])
/// stops the acceptor and workers and joins them.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    counts: Vec<Arc<WakeCounters>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting RESP connections against `store`.
    pub fn start(store: Store, addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);
        let mut handles = Vec::with_capacity(workers + 1);
        let mut wakers = Vec::with_capacity(workers);
        let mut senders = Vec::with_capacity(workers);
        let mut counts = Vec::with_capacity(workers);
        for w in 0..workers {
            let (pipe, waker) = self_pipe()?;
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let store = store.clone();
            let waker2 = waker.clone();
            let counts2 = Arc::new(WakeCounters::default());
            counts.push(counts2.clone());
            let shutdown2 = shutdown.clone();
            handles.push(std::thread::Builder::new().name(format!("faster-resp-{w}")).spawn(
                move || {
                    // The session registers its thread with the epoch
                    // protector, so it is born on the worker, not moved in.
                    let worker = Worker {
                        session: store.start_session(),
                        pipe,
                        waker: waker2,
                        incoming: rx,
                        shutdown: shutdown2,
                        conns: HashMap::new(),
                        next_conn: 0,
                        ops: HashMap::new(),
                        batch: Vec::new(),
                        batched: Vec::new(),
                        counts: counts2,
                        lead: 1,
                        wanted: 0,
                        asked: 0,
                        probe: None,
                        commit: Duration::ZERO,
                    };
                    worker.run();
                },
            )?);
            wakers.push(waker);
            senders.push(tx);
        }
        {
            let shutdown = shutdown.clone();
            let wakers = wakers.clone();
            handles.push(
                std::thread::Builder::new().name("faster-resp-accept".into()).spawn(move || {
                    let mut next = 0usize;
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if shutdown.load(Ordering::Acquire) {
                                    break;
                                }
                                let w = next % senders.len();
                                next += 1;
                                if senders[w].send(stream).is_ok() {
                                    wakers[w].wake();
                                }
                            }
                            Err(_) => {
                                if shutdown.load(Ordering::Acquire) {
                                    break;
                                }
                                // Transient accept failure (EMFILE, ...).
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                })?,
            );
        }
        Ok(Server { local_addr, shutdown, wakers, counts, handles: Mutex::new(handles) })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How the workers' passes began and what their gathers did, summed
    /// over workers. Read while they run, the fields are each a relaxed load
    /// and need not add up; after [`Server::shutdown`] they are exact.
    pub fn wake_counts(&self) -> WakeCounts {
        let mut sum = WakeCounts::default();
        for c in &self.counts {
            c.add_to(&mut sum);
        }
        sum
    }

    /// Stops the acceptor and every worker, then joins them. Connections
    /// are dropped without draining; acked replies are already durable.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for w in &self.wakers {
            w.wake();
        }
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.local_addr);
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
