//! A RESP command allocates nothing on the server's way from its bytes to
//! its reply: arguments are borrowed from the input buffer, replies are
//! values rendered straight into the output buffer, and the worker reuses
//! its scratch buffers. What a window of pipelined commands still allocates
//! is per window — `execute_batch`'s two result vectors — so a window of 64
//! commands costs exactly what a window of one does.
//!
//! The counting allocator counts every thread of the process, because the
//! worker runs on a thread `Server::start` spawns. The client therefore
//! encodes every window, and the reply bytes it expects, before counting
//! starts, and reads replies into a preallocated buffer.
//!
//! INCR is left out: every INCR still ends an `execute_batch` segment so
//! its read-back sees the store before later pipelined commands apply, so
//! it pays a segment's two allocations per command by construction.

use faster_core::{CountStore, FasterKv, FasterKvConfig, WalConfig};
use faster_hlog::HLogConfig;
use faster_server::{Server, ServerConfig, Store};
use faster_storage::MemDevice;
use faster_util::XorShift64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping is
// one relaxed atomic add, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: u64 = 256;
const WARM_UP_WINDOWS: usize = 50;
const WINDOWS: usize = 1_000;

/// One 4 MiB page, all of it mutable: every append of the run lands on the
/// page the log starts on, so no page is sealed, flushed or framed.
fn store_cfg() -> FasterKvConfig {
    FasterKvConfig::small().with_log(HLogConfig {
        page_bits: 22,
        buffer_pages: 2,
        mutable_pages: 2,
        io_threads: 1,
    })
}

/// A pipelined window, encoded up front: the request bytes and the exact
/// reply bytes the server owes for them.
struct Window {
    request: Vec<u8>,
    replies: Vec<u8>,
}

/// Draws windows of `depth` commands over a model of the store. At depth 1
/// a window is one GET, SET or DEL: a lone PING executes no batch, so it
/// would cost a window's two allocations less and blur the comparison.
fn windows(
    rng: &mut XorShift64,
    model: &mut HashMap<u64, u64>,
    depth: usize,
    n: usize,
) -> Vec<Window> {
    let kinds = if depth == 1 { 3 } else { 4 };
    (0..n)
        .map(|_| {
            let mut w = Window { request: Vec::new(), replies: Vec::new() };
            for _ in 0..depth {
                let key = rng.next_below(KEYS);
                match rng.next_below(kinds) {
                    0 => {
                        w.request.extend_from_slice(format!("GET {key}\r\n").as_bytes());
                        let reply = match model.get(&key) {
                            Some(v) => format!("${}\r\n{v}\r\n", v.to_string().len()),
                            None => "$-1\r\n".to_string(),
                        };
                        w.replies.extend_from_slice(reply.as_bytes());
                    }
                    1 => {
                        let v = rng.next_u64();
                        w.request.extend_from_slice(format!("SET {key} {v}\r\n").as_bytes());
                        w.replies.extend_from_slice(b"+OK\r\n");
                        model.insert(key, v);
                    }
                    2 => {
                        w.request.extend_from_slice(format!("DEL {key}\r\n").as_bytes());
                        w.replies.extend_from_slice(b":1\r\n");
                        model.remove(&key);
                    }
                    _ => {
                        w.request.extend_from_slice(b"PING\r\n");
                        w.replies.extend_from_slice(b"+PONG\r\n");
                    }
                }
            }
            w
        })
        .collect()
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Sends each window in one write, waits for all of its replies, and
    /// checks them byte for byte. Allocates nothing.
    fn run(&mut self, windows: &[Window]) {
        for w in windows {
            self.stream.write_all(&w.request).expect("send window");
            let want = w.replies.len();
            let mut got = 0;
            while got < want {
                let n = self.stream.read(&mut self.buf[got..want]).expect("read replies");
                assert!(n > 0, "server closed the connection");
                got += n;
            }
            assert!(self.buf[..want] == w.replies[..], "replies differ from the model");
        }
    }
}

/// Allocations made, process-wide, while `client` runs `windows`.
fn allocs_running(client: &mut Client, windows: &[Window]) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    client.run(windows);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Total allocations of 1 000 windows at depth 64 and of 1 000 at depth 1,
/// after warming the server up at both depths.
fn allocs_by_depth(store: Store, seed: u64) -> (u64, u64) {
    let server = Server::start(store, "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    // Room for the longest window's replies: 64 bulk values of 20 digits.
    let mut client = Client { stream, buf: vec![0; 64 * 32] };

    // Every key is set once first, so each index tag exists before counting.
    let mut warm_up = vec![Window {
        request: (0..KEYS).flat_map(|k| format!("SET {k} {k}\r\n").into_bytes()).collect(),
        replies: b"+OK\r\n".repeat(KEYS as usize),
    }];
    let mut model: HashMap<u64, u64> = (0..KEYS).map(|k| (k, k)).collect();
    let mut rng = XorShift64::new(seed);
    warm_up.extend(windows(&mut rng, &mut model, 64, WARM_UP_WINDOWS));
    warm_up.extend(windows(&mut rng, &mut model, 1, WARM_UP_WINDOWS));
    let deep = windows(&mut rng, &mut model, 64, WINDOWS);
    let shallow = windows(&mut rng, &mut model, 1, WINDOWS);

    client.run(&warm_up);
    let at_64 = allocs_running(&mut client, &deep);
    let at_1 = allocs_running(&mut client, &shallow);
    (at_64, at_1)
}

#[test]
fn commands_allocate_nothing_between_bytes_and_reply() {
    let extra_commands = (WINDOWS * 64 - WINDOWS) as f64;

    let store = FasterKv::new(store_cfg(), CountStore, MemDevice::new(1));
    let (at_64, at_1) = allocs_by_depth(store, 7);
    assert_eq!(
        at_64,
        at_1,
        "without a WAL, {WINDOWS} windows allocated {at_64} times at depth 64 and {at_1} at \
         depth 1: {:.2} allocations per extra command",
        (at_64 as f64 - at_1 as f64) / extra_commands
    );

    // Group commits allocate on the commit path, and how many commits a
    // window takes is up to scheduling: with no batch window the commit
    // thread cuts a depth-64 window into about ten groups in a debug build.
    // A 1 ms window lets each window's mutations share about one group at
    // either depth, and the per-command share is bounded rather than zero.
    let wal = WalConfig { batch_window: Duration::from_millis(1), ..WalConfig::default() };
    let wal_store = FasterKv::new_with_wal(
        store_cfg().with_wal(wal),
        CountStore,
        MemDevice::new(1),
        MemDevice::new(1),
    );
    let (at_64, at_1) = allocs_by_depth(wal_store, 8);
    let per_command = (at_64 as f64 - at_1 as f64) / extra_commands;
    assert!(
        per_command < 0.5,
        "with a WAL, {WINDOWS} windows allocated {at_64} times at depth 64 and {at_1} at \
         depth 1: {per_command:.2} allocations per extra command"
    );
}
