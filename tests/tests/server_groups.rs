//! WAL groups per client round on the RESP front-end (DESIGN.md §13).
//!
//! A client that pipelines over several connections sends a *round*: one
//! window on each, then reads the replies. Before a worker leads a WAL
//! group it gathers — it waits, for at most half a commit, for the windows
//! of connections that delivered in the previous lead interval — so a
//! round's windows share one group. These tests count groups and the
//! gather's outcomes over a real socket, on one worker with a WAL on the
//! NVMe latency model, and pin who is awaited: never a silent connection,
//! and a connection that goes quiet only once.

use faster_core::{CountStore, FasterKv, FasterKvConfig, WalConfig};
use faster_server::{Server, ServerConfig, Store};
use faster_storage::{LatencyModel, MemDevice};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Held by each test for its whole run. The tests count WAL groups and
/// gathers, which depend on when a round's windows land: beside another
/// test's server and client, both windows of a round are often already
/// there when the worker polls, and the round test would pass without any
/// gather.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// `cpu`. On a host that lacks the CPU or refuses the call nothing changes,
/// and the test runs unpinned.
fn pin(cpu: usize) {
    // Room for 1024 CPUs, the size glibc's `cpu_set_t` has.
    let mut set = [0u64; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
}

/// The server's CPU; the client and the device models run on the other.
const SERVER_CPU: usize = 0;
const CLIENT_CPU: usize = 1;

/// A one-worker server over a WAL on the NVMe latency model, and a handle
/// on its store for the WAL's counters. Where the scheduler puts the worker
/// decides what these tests count: a worker sharing its CPU with the client
/// only runs once the client blocks, with the whole round already sent. So
/// the worker gets a CPU of its own, as in the benchmark harness, and the
/// calling thread — the client — and the devices' threads take the other.
fn server() -> (Server, Store) {
    pin(CLIENT_CPU);
    let store: Store = FasterKv::new_with_wal(
        FasterKvConfig::small().with_wal(WalConfig::default()),
        CountStore,
        MemDevice::new(2),
        MemDevice::with_latency(1, LatencyModel::nvme()),
    );
    pin(SERVER_CPU);
    let server = Server::start(store.clone(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    pin(CLIENT_CPU);
    (server, store)
}

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to server");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Client { stream }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// Reads exactly `want.len()` bytes and checks they are `want`.
    fn expect(&mut self, want: &[u8]) {
        let mut got = vec![0u8; want.len()];
        self.stream.read_exact(&mut got).expect("read replies");
        assert_eq!(got, want, "unexpected reply");
    }

    /// A PING answered: the worker has taken this connection in.
    fn ping(&mut self) {
        self.send(b"PING\r\n");
        self.expect(b"+PONG\r\n");
    }
}

/// `SET k k` for each key of `keys`, encoded before the timed loop starts.
fn sets(keys: std::ops::Range<u64>) -> Vec<Vec<u8>> {
    keys.map(|k| format!("SET {k} {k}\r\n").into_bytes()).collect()
}

/// Runs one round per frame pair: both windows are written before either
/// reply is read.
fn rounds(a: &mut Client, b: &mut Client, frames: &[Vec<u8>]) {
    for pair in frames.chunks_exact(2) {
        a.send(&pair[0]);
        b.send(&pair[1]);
        a.expect(b"+OK\r\n");
        b.expect(b"+OK\r\n");
    }
}

/// Without a gather, the worker catches the first window of a round as it
/// lands and leads a group for it alone, and the second window commits in
/// a group of its own: two groups per round.
#[test]
fn a_round_of_two_windows_commits_as_one_group() {
    let _serial = one_at_a_time();
    const ROUNDS: u64 = 500;
    let (server, store) = server();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);
    a.ping();
    b.ping();
    let frames = sets(0..2 * ROUNDS);

    let (before, w0) = (store.metrics().wal.commits, server.wake_counts());
    rounds(&mut a, &mut b, &frames);
    let (after, w1) = (store.metrics().wal.commits, server.wake_counts());
    let per_round = (after - before) as f64 / ROUNDS as f64;
    println!(
        "{per_round:.2} WAL groups per round; {} windows gathered, {} leads expired",
        w1.gathered - w0.gathered,
        w1.gather_expired - w0.gather_expired,
    );
    assert!(
        per_round <= 1.5,
        "a round's two windows did not share a group: {per_round:.2} groups per round"
    );
}

/// A connection that never delivers is never awaited: no lead waits for it.
#[test]
fn a_silent_connection_is_never_awaited() {
    let _serial = one_at_a_time();
    const SETS: u64 = 500;
    let (server, _store) = server();
    // Connected first, so the worker takes it in no later than `a`.
    let _silent = Client::connect(&server);
    let mut a = Client::connect(&server);
    a.ping();
    let frames = sets(0..SETS);

    let before = server.wake_counts();
    for frame in &frames {
        a.send(frame);
        a.expect(b"+OK\r\n");
    }
    let after = server.wake_counts();
    assert_eq!(
        after.gather_expired, before.gather_expired,
        "a lead waited for a connection that never sent a byte: {after:?}"
    );
}

/// A connection that goes quiet after a run of rounds is awaited by the
/// next lead and by no later one.
#[test]
fn a_quiet_connection_is_awaited_at_most_once() {
    let _serial = one_at_a_time();
    const ROUNDS: u64 = 100;
    const SOLO: u64 = 200;
    let (server, _store) = server();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);
    a.ping();
    b.ping();
    let frames = sets(0..2 * ROUNDS);
    let solo = sets(2 * ROUNDS..2 * ROUNDS + SOLO);

    rounds(&mut a, &mut b, &frames);
    let before = server.wake_counts();
    for frame in &solo {
        a.send(frame);
        a.expect(b"+OK\r\n");
    }
    let after = server.wake_counts();
    let expired = after.gather_expired - before.gather_expired;
    assert!(expired <= 1, "{expired} leads waited for the quiet connection: {after:?}");
}
