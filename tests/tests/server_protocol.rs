//! Over-the-wire protocol tests for the RESP front-end (DESIGN.md §13).
//!
//! Everything here talks to a real `faster-server` instance through a TCP
//! socket — no store shortcuts — so the full stack is under test: frame
//! parsing, pipelined batch execution, in-order reply emission across
//! pending disk reads and pending INCRs, INCR replies under cross-worker
//! races, WAL-durability-gated mutation acks, `-READONLY` degradation,
//! acked-write recovery after killing the server mid pipeline (reusing the
//! WAL crash harness's store configuration), and the workers' wake-cause
//! accounting.

use faster_core::ckpt_manager::{self, CheckpointConfig};
use faster_core::{CountStore, FasterKv, FasterKvConfig, StoreHealth, WalConfig};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::fault_harness::wal_harness_cfg;
use faster_server::{Server, ServerConfig, Store};
use faster_storage::{Device, FaultDevice, LatencyModel, MemDevice};
use faster_util::XorShift64;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ------------------------------------------------------------- test client

/// One decoded RESP reply, as a blocking test client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reply {
    Simple(String),
    Error(String),
    Int(u64),
    Bulk(String),
    Nil,
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Client { stream, buf: Vec::new(), pos: 0 }
    }

    fn send(&mut self, data: &[u8]) {
        self.stream.write_all(data).expect("send");
    }

    /// Reads one reply frame; `None` once the server closes the connection.
    fn read_reply(&mut self) -> Option<Reply> {
        loop {
            if let Some((reply, used)) = self.try_decode() {
                self.pos += used;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                return Some(reply);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("client read failed: {e}"),
            }
        }
    }

    fn try_decode(&self) -> Option<(Reply, usize)> {
        let data = &self.buf[self.pos..];
        let nl = data.iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&data[..nl - 1]).expect("ASCII reply line");
        let rest = &line[1..];
        match data[0] {
            b'+' => Some((Reply::Simple(rest.into()), nl + 1)),
            b'-' => Some((Reply::Error(rest.into()), nl + 1)),
            b':' => Some((Reply::Int(rest.parse().expect("integer reply")), nl + 1)),
            b'$' => {
                let len: i64 = rest.parse().expect("bulk length");
                if len < 0 {
                    return Some((Reply::Nil, nl + 1));
                }
                let start = nl + 1;
                let end = start + len as usize;
                if data.len() < end + 2 {
                    return None;
                }
                let s = std::str::from_utf8(&data[start..end]).expect("bulk payload");
                Some((Reply::Bulk(s.into()), end + 2))
            }
            other => panic!("unexpected reply prefix {:?}", other as char),
        }
    }
}

/// A store small enough that the workload spills to "disk" (MemDevice), so
/// pipelined GETs exercise the pending-read reply path, not just memory.
fn spilling_store() -> Store {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(64);
    FasterKv::new(cfg, CountStore, MemDevice::new(2))
}

// ------------------------------------------------------------------- tests

#[test]
fn ping_and_quit() {
    let server = Server::start(spilling_store(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr());
    c.send(b"PING\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("PONG".into())));
    c.send(b"*1\r\n$4\r\nPING\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("PONG".into())));
    c.send(b"QUIT\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())));
    assert_eq!(c.read_reply(), None, "server must close after QUIT");
}

/// The tentpole behavior: a seeded pipelined mixed workload over one
/// connection, checked command-by-command against an oracle. Single
/// connection ⇒ strictly serial store semantics, so every reply is exactly
/// predictable, including INCR counts — even when cold GETs go pending and
/// must not reorder the reply stream, and cold INCRs go pending and must
/// hold back every command pipelined behind them.
#[test]
fn pipelined_mixed_workload_matches_oracle() {
    let store = spilling_store();
    // Preload a wide cold range so lookups leave the mutable region.
    {
        let session = store.start_session();
        for k in 0..6_000u64 {
            session.upsert(&(10_000 + k), &k).unwrap();
        }
        session.complete_pending(true);
        store.log().flush_barrier().unwrap();
    }
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr());
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    // The preloaded cold keys are part of the oracle too.
    for k in 0..6_000u64 {
        oracle.insert(10_000 + k, k);
    }

    let mut rng = XorShift64::new(0x5EED);
    let mut sent = 0u64;
    while sent < 4_000 {
        let depth = 1 + rng.next_below(64);
        let mut frame = Vec::new();
        let mut expected: Vec<Reply> = Vec::new();
        for _ in 0..depth {
            // Mostly the hot keyspace; one slot in eight probes cold keys.
            let key = if rng.next_below(8) == 0 {
                10_000 + rng.next_below(6_000)
            } else {
                rng.next_below(512)
            };
            match rng.next_below(10) {
                0..=3 => {
                    let v = rng.next_below(1 << 20);
                    frame.extend_from_slice(format!("SET {key} {v}\r\n").as_bytes());
                    oracle.insert(key, v);
                    expected.push(Reply::Simple("OK".into()));
                }
                4..=6 => {
                    frame.extend_from_slice(format!("GET {key}\r\n").as_bytes());
                    expected.push(match oracle.get(&key) {
                        Some(v) => Reply::Bulk(v.to_string()),
                        None => Reply::Nil,
                    });
                }
                7..=8 => {
                    let n = 1 + rng.next_below(100);
                    frame.extend_from_slice(format!("INCRBY {key} {n}\r\n").as_bytes());
                    let v = oracle.entry(key).or_insert(0);
                    *v += n;
                    expected.push(Reply::Int(*v));
                }
                _ => {
                    frame.extend_from_slice(format!("DEL {key}\r\n").as_bytes());
                    oracle.remove(&key);
                    expected.push(Reply::Int(1));
                }
            }
        }
        sent += depth;
        c.send(&frame);
        for (i, want) in expected.iter().enumerate() {
            let got = c.read_reply().expect("reply stream ended early");
            assert_eq!(&got, want, "pipelined op {i} of window ending at {sent}");
        }
    }
}

/// An INCR answers the count its own RMW made, so connections on two
/// workers pipelining INCRs of one key are told every count from 1 to the
/// total exactly once.
#[test]
fn shared_key_incrs_across_workers_answer_every_count_once() {
    const CONNS: usize = 4;
    const WINDOWS: usize = 100;
    const DEPTH: usize = 16;
    let server =
        Server::start(spilling_store(), "127.0.0.1:0", ServerConfig { workers: 2 }).unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..CONNS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let window = "INCR 7\r\n".repeat(DEPTH);
                let mut counts = Vec::with_capacity(WINDOWS * DEPTH);
                for _ in 0..WINDOWS {
                    c.send(window.as_bytes());
                    for _ in 0..DEPTH {
                        match c.read_reply() {
                            Some(Reply::Int(n)) => counts.push(n),
                            other => panic!("INCR answered {other:?}"),
                        }
                    }
                }
                counts
            })
        })
        .collect();
    let mut counts: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    counts.sort_unstable();
    let total = (CONNS * WINDOWS * DEPTH) as u64;
    let repeated: Vec<u64> = counts.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    assert!(repeated.is_empty(), "counts told twice: {:?}", &repeated[..repeated.len().min(8)]);
    assert_eq!(counts, (1..=total).collect::<Vec<_>>());
}

/// A pending INCR orders its connection. Each window starts with an INCR of
/// a key evicted to the log device, so its RMW goes pending; the SET, GET
/// and INCR pipelined behind it must wait until it applies. The window
/// completes without waiting out an idle park: after the INCR's completion
/// the worker still has to execute the rest and ask the WAL for the INCR's
/// LSN, and nothing else would wake it. Every acked count survives recovery
/// from the WAL.
#[test]
fn pending_incr_holds_back_its_connection_until_it_applies() {
    const COLD: [u64; 3] = [1, 2, 3];
    // A device read outlasts the worker's spin, so the read's CQE ends a
    // park, and the pass that completes the INCR has spent that wake.
    let slow_read = LatencyModel { fixed: Duration::from_millis(2), bytes_per_sec: 0 };
    let log_dev: Arc<dyn Device> = MemDevice::with_latency(2, slow_read);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: Store =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    {
        let session = store.start_session();
        for k in COLD {
            session.upsert(&k, &(k * 100)).unwrap();
        }
        for k in 1_000..5_000u64 {
            session.upsert(&k, &k).unwrap();
        }
        session.wait_wal_durable().unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 1 << 12, "the cold keys must be evicted");
    let server = Server::start(store.clone(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let mut c = Client::connect(server.local_addr());
    let mut fastest = Duration::MAX;
    for k in COLD {
        let (old, v) = (k * 100, k * 1_000);
        let start = Instant::now();
        c.send(format!("INCR {k}\r\nSET {k} {v}\r\nGET {k}\r\nINCR {k}\r\n").as_bytes());
        assert_eq!(c.read_reply(), Some(Reply::Int(old + 1)), "cold INCR {k}");
        assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())), "SET {k}");
        assert_eq!(c.read_reply(), Some(Reply::Bulk(v.to_string())), "GET {k}");
        assert_eq!(c.read_reply(), Some(Reply::Int(v + 1)), "hot INCR {k}");
        fastest = fastest.min(start.elapsed());
    }
    // `IDLE_POLL_MS` is 200 ms: a window that needed an idle park to end
    // would take at least that long, every time.
    assert!(fastest < Duration::from_millis(100), "fastest window took {fastest:?}");
    server.shutdown();
    drop(server);
    drop(c);
    let t = store.metrics().sessions.totals;
    assert!(t.io_issued >= COLD.len() as u64, "the cold INCRs must read the device: {t:?}");
    drop(store);

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery after server shutdown");
    let session = rec.store.start_session();
    for k in COLD {
        assert_eq!(faster_integration_tests::read_blocking(&session, k), Some(k * 1_000 + 1));
    }
}

/// Several concurrent connections over disjoint key ranges: replies stay
/// per-connection exact while workers multiplex them.
#[test]
fn concurrent_connections_stay_isolated() {
    let server = Server::start(
        spilling_store(),
        "127.0.0.1:0",
        ServerConfig { workers: 3 },
    )
    .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let base = t * 1_000;
                let mut rng = XorShift64::new(0xFACE + t);
                let mut oracle: HashMap<u64, u64> = HashMap::new();
                for round in 0..40 {
                    let depth = 1 + rng.next_below(32);
                    let mut frame = Vec::new();
                    let mut expected = Vec::new();
                    for _ in 0..depth {
                        let key = base + rng.next_below(200);
                        if rng.next_below(2) == 0 {
                            let v = rng.next_below(1 << 16);
                            frame.extend_from_slice(format!("SET {key} {v}\r\n").as_bytes());
                            oracle.insert(key, v);
                            expected.push(Reply::Simple("OK".into()));
                        } else {
                            frame.extend_from_slice(format!("GET {key}\r\n").as_bytes());
                            expected.push(match oracle.get(&key) {
                                Some(v) => Reply::Bulk(v.to_string()),
                                None => Reply::Nil,
                            });
                        }
                    }
                    c.send(&frame);
                    for want in &expected {
                        let got = c.read_reply().expect("reply stream ended early");
                        assert_eq!(&got, want, "thread {t} round {round}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

#[test]
fn malformed_frames_error_and_close() {
    let server = Server::start(spilling_store(), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Stream-level garbage: one -ERR, then the connection closes.
    let mut c = Client::connect(server.local_addr());
    c.send(b"*not-a-number\r\n");
    match c.read_reply() {
        Some(Reply::Error(e)) => assert!(e.contains("Protocol error"), "got {e:?}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(c.read_reply(), None, "desynchronized stream must close");

    // Same for a desynchronized bulk header inside an array frame.
    let mut c = Client::connect(server.local_addr());
    c.send(b"*2\r\nX3\r\nGET\r\n");
    assert!(matches!(c.read_reply(), Some(Reply::Error(_))));
    assert_eq!(c.read_reply(), None);

    // Content-level errors keep the stream: bad integer, unknown command,
    // wrong arity — each answers -ERR and the next command still works.
    let mut c = Client::connect(server.local_addr());
    c.send(b"GET notanumber\r\nFLURB 1\r\nSET 1\r\nPING\r\n");
    for _ in 0..3 {
        assert!(matches!(c.read_reply(), Some(Reply::Error(_))));
    }
    assert_eq!(c.read_reply(), Some(Reply::Simple("PONG".into())));
}

/// A legal empty array (`*0\r\n`) and stray newlines are ignored silently —
/// no reply, no reply-pairing shift, and (the regression that matters) no
/// worker-thread panic: `*0` used to index `args[0]` in decode() and kill
/// the worker, hanging every connection routed to it.
#[test]
fn empty_frames_are_ignored_and_do_not_kill_the_worker() {
    let server = Server::start(spilling_store(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();

    let mut c = Client::connect(server.local_addr());
    // Empty frames interleaved with real commands, pipelined in one burst:
    // the only replies are the real commands', in order.
    c.send(b"*0\r\n\r\n\nSET 9 90\r\n*0\r\nGET 9\r\n   \r\nPING\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())));
    assert_eq!(c.read_reply(), Some(Reply::Bulk("90".into())));
    assert_eq!(c.read_reply(), Some(Reply::Simple("PONG".into())));

    // With workers=1, a panicked worker would strand this new connection;
    // it serving proves the empty array did not take the event loop down.
    let mut c2 = Client::connect(server.local_addr());
    c2.send(b"*0\r\n*1\r\n$4\r\nPING\r\n");
    assert_eq!(c2.read_reply(), Some(Reply::Simple("PONG".into())));
}

/// A dead WAL degrades the store to read-only (DESIGN.md §12): the SET
/// whose group commit failed answers `-READONLY` (its ack gate broke), the
/// degradation is sticky for later mutations, and reads keep serving.
#[test]
fn read_only_degradation_maps_to_readonly_errors() {
    let wal_fault = FaultDevice::wrap(MemDevice::new(1));
    let store: Store = FasterKv::new_with_wal(
        wal_harness_cfg(),
        CountStore,
        MemDevice::new(2),
        wal_fault.clone(),
    );
    let server = Server::start(store, "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let mut c = Client::connect(server.local_addr());

    // Healthy first: a durable SET acks and reads back.
    c.send(b"SET 1 11\r\nGET 1\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())));
    assert_eq!(c.read_reply(), Some(Reply::Bulk("11".into())));

    // The next WAL barrier fails: its group commit cannot ack, and a WAL
    // failure is sticky — the log refuses every commit from then on.
    wal_fault.domain().fail_flush_at(0);
    c.send(b"SET 2 22\r\n");
    match c.read_reply() {
        Some(Reply::Error(e)) => {
            assert!(e.starts_with("READONLY"), "expected -READONLY, got {e:?}")
        }
        other => panic!("expected -READONLY, got {other:?}"),
    }

    // Sticky: later mutations are refused up front, reads still serve.
    c.send(b"SET 3 33\r\nDEL 1\r\nINCR 4\r\nGET 1\r\n");
    for _ in 0..3 {
        match c.read_reply() {
            Some(Reply::Error(e)) => {
                assert!(e.starts_with("READONLY"), "expected -READONLY, got {e:?}")
            }
            other => panic!("expected -READONLY, got {other:?}"),
        }
    }
    assert_eq!(c.read_reply(), Some(Reply::Bulk("11".into())), "reads must keep serving");
}

/// A SET whose WAL append the log refused is in no log, so it must never be
/// acked. Another session's group commit fails first, so the worker's own
/// append is the one the WAL turns away — and the store is still `Healthy`
/// when the SET arrives, so only the ack gate can refuse it. Two shapes: the
/// worker never appended before (its session has no LSN to wait for), and
/// the worker's last ack already covers an older, durable LSN.
#[test]
fn refused_append_is_never_acked() {
    for worker_acked_first in [false, true] {
        let wal_fault = FaultDevice::wrap(MemDevice::new(1));
        let store: Store = FasterKv::new_with_wal(
            wal_harness_cfg(),
            CountStore,
            MemDevice::new(2),
            wal_fault.clone(),
        );
        let server =
            Server::start(store.clone(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
        let mut c = Client::connect(server.local_addr());
        if worker_acked_first {
            c.send(b"SET 1 11\r\n");
            assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())));
        }

        // A second session's group fails its barrier. It is committed by a
        // bare WAL wait no session sees, so the store has not degraded —
        // only the WAL knows.
        wal_fault.domain().fail_flush_at(0);
        {
            let other = store.start_session();
            other.upsert(&100, &1).unwrap();
        }
        let wal = store.wal().unwrap();
        assert!(wal.wait_durable(wal.last_appended_lsn()).is_err());
        assert!(wal.failure().is_some());
        assert_eq!(store.health(), StoreHealth::Healthy);

        c.send(b"SET 2 22\r\n");
        match c.read_reply() {
            Some(Reply::Error(e)) => assert!(
                e.starts_with("READONLY"),
                "worker_acked_first={worker_acked_first}: expected -READONLY, got {e:?}"
            ),
            other => panic!(
                "worker_acked_first={worker_acked_first}: a refused append was acked: {other:?}"
            ),
        }
    }
}

/// A connection that closes with durability-gated replies still in flight
/// is torn down without disturbing its worker: a second connection on the
/// same worker is acked, and its acked key survives recovery from the WAL.
#[test]
fn closed_connection_with_gated_replies_leaves_the_worker_serving() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: Store =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    let server = Server::start(store, "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();

    let mut a = Client::connect(server.local_addr());
    let mut frame = Vec::new();
    for k in 0..200u64 {
        frame.extend_from_slice(format!("SET {k} {}\r\n", k + 1).as_bytes());
    }
    a.send(&frame);
    drop(a); // closes without reading a single ack

    let mut b = Client::connect(server.local_addr());
    b.send(b"SET 1000 7\r\nGET 1000\r\n");
    assert_eq!(b.read_reply(), Some(Reply::Simple("OK".into())));
    assert_eq!(b.read_reply(), Some(Reply::Bulk("7".into())));
    server.shutdown();
    drop(server);
    drop(b);

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery after server shutdown");
    let session = rec.store.start_session();
    assert_eq!(faster_integration_tests::read_blocking(&session, 1000), Some(7));
}

/// Kill-the-server-mid-pipeline durability: acked SETs survive. The client
/// pipelines hundreds of SETs, collects only a prefix of the acks, and the
/// server is torn down with replies still in flight; recovery from the WAL
/// (same recovery path the crash harness sweeps) must contain every key
/// whose `+OK` was actually received.
#[test]
fn killed_mid_pipeline_recovers_every_acked_set() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: Store =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    let server = Server::start(store, "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();

    let mut c = Client::connect(server.local_addr());
    const SETS: u64 = 400;
    const TAKE_ACKS: u64 = 120;
    let mut frame = Vec::new();
    for k in 0..SETS {
        frame.extend_from_slice(format!("SET {k} {}\r\n", k + 1).as_bytes());
    }
    c.send(&frame);
    // Collect a prefix of the acks, then kill the server mid-pipeline.
    for k in 0..TAKE_ACKS {
        assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())), "ack {k}");
    }
    server.shutdown();
    drop(server);
    drop(c);

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery after server kill");
    let session = rec.store.start_session();
    for k in 0..TAKE_ACKS {
        assert_eq!(
            faster_integration_tests::read_blocking(&session, k),
            Some(k + 1),
            "acked SET {k} lost after killing the server"
        );
    }
}

/// Every pass of a worker begins exactly one way: a spin saw an event, an
/// event ended a park, or a park timed out. After a depth-1 SET loop and a
/// mixed pipelined run over a WAL on the NVMe latency model, the causes add
/// up to the passes. Run with `--nocapture` to see the wakes per command of
/// the depth-1 loop; nothing here asserts a timing.
#[test]
fn wake_causes_account_for_every_pass() {
    let store: Store = FasterKv::new_with_wal(
        FasterKvConfig::small().with_wal(WalConfig::default()),
        CountStore,
        MemDevice::new(2),
        MemDevice::with_latency(1, LatencyModel::nvme()),
    );
    let server = Server::start(store, "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let mut c = Client::connect(server.local_addr());

    const SETS: u64 = 2_000;
    let before = server.wake_counts();
    for k in 0..SETS {
        c.send(format!("SET {k} {k}\r\n").as_bytes());
        assert_eq!(c.read_reply(), Some(Reply::Simple("OK".into())), "SET {k}");
    }
    let after = server.wake_counts();
    let per_cmd = |a: u64, b: u64| (a - b) as f64 / SETS as f64;
    println!(
        "depth-1 SET loop: {:.2} woken, {:.2} spun, {:.2} passes, {:.2} gathered, \
         {:.2} gathers expired per command",
        per_cmd(after.woken, before.woken),
        per_cmd(after.spun, before.spun),
        per_cmd(after.passes, before.passes),
        per_cmd(after.gathered, before.gathered),
        per_cmd(after.gather_expired, before.gather_expired),
    );

    let mut rng = XorShift64::new(0xC0DE);
    for _ in 0..200 {
        let depth = 1 + rng.next_below(48);
        let mut frame = Vec::new();
        for _ in 0..depth {
            let key = rng.next_below(SETS);
            let cmd = match rng.next_below(5) {
                0 => format!("SET {key} {}\r\n", rng.next_below(1 << 20)),
                1 => format!("GET {key}\r\n"),
                2 => format!("INCR {key}\r\n"),
                3 => format!("DEL {key}\r\n"),
                _ => "PING\r\n".to_string(),
            };
            frame.extend_from_slice(cmd.as_bytes());
        }
        c.send(&frame);
        for i in 0..depth {
            match c.read_reply() {
                Some(Reply::Error(e)) => panic!("command {i} of the window failed: {e}"),
                Some(_) => {}
                None => panic!("reply stream ended early"),
            }
        }
    }

    server.shutdown();
    let w = server.wake_counts();
    assert!(w.passes > SETS, "{w:?}");
    assert_eq!(w.passes, w.spun + w.woken + w.timeouts, "a pass began no counted way: {w:?}");
}

/// An idle server with one open, silent connection parks: a few timed-out
/// parks a second and no spin. A spin that turned into a busy loop (say, on
/// a socket that is always writable) would show thousands of passes.
#[test]
fn idle_connection_parks_without_spinning() {
    let server =
        Server::start(spilling_store(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let mut c = Client::connect(server.local_addr());
    c.send(b"PING\r\n");
    assert_eq!(c.read_reply(), Some(Reply::Simple("PONG".into())));
    // Let the pass that answered the PING finish its spin and park.
    std::thread::sleep(Duration::from_millis(100));

    let before = server.wake_counts();
    std::thread::sleep(Duration::from_secs(1));
    let after = server.wake_counts();
    assert!(after.passes - before.passes <= 10, "idle worker busy: {before:?} -> {after:?}");
    assert_eq!(after.spun, before.spun, "idle worker spun: {before:?} -> {after:?}");
    drop(c);
}
