//! Store + server set-up, the in-process phase, and the recovery check.

use crate::affinity::{pin, HARNESS_CPU, SUT_CPU};
use crate::gen::{check_reply, value_of, ConnGen, Expect, Oracle, Reply};
use crate::spec::Spec;
use crate::trace::Tracer;
use faster_core::ckpt_manager::{recover_store_with_wal, CheckpointConfig};
use faster_core::{BatchOp, CountStore, FasterKv, OpError, Outcome, Session};
use faster_server::{Server, ServerConfig, Store};
use faster_storage::{CompletionRing, Device, IoError, LatencyModel, MemDevice, Sqe, SqeOp};
use faster_ycsb::OpKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type BenchSession = Session<u64, u64, CountStore>;

/// The simulated devices one store lives on. They outlive the store, so
/// recovery sees exactly the bytes the run flushed — nothing the process
/// only held in its buffers.
pub struct Devices {
    pub log: Arc<MemDevice>,
    pub wal: Arc<MemDevice>,
}

impl Devices {
    /// Both carry the NVMe latency *model* (20 µs + 2 GB/s).
    fn new() -> Self {
        Devices {
            log: MemDevice::with_latency(2, LatencyModel::nvme()),
            wal: MemDevice::with_latency(1, LatencyModel::nvme()),
        }
    }

    /// Bytes the devices hold in RAM; a real device would hold them on disk.
    pub fn resident_bytes(&self) -> u64 {
        self.log.resident_bytes() + self.wal.resident_bytes()
    }

    pub fn bytes_written(&self) -> u64 {
        self.log.stats().bytes_written + self.wal.stats().bytes_written
    }
}

/// A loaded store being served on loopback.
pub struct Served {
    pub store: Store,
    pub server: Server,
    pub devices: Devices,
    /// Store construction + load + server start.
    pub setup_s: f64,
}

/// Builds the store, loads every key with `value_of(key, 0)`, waits until
/// the load is durable, and starts the server (one worker, loopback,
/// ephemeral port). Leaves the calling thread on the harness CPU, ready to
/// be the client (see [`crate::affinity`]).
pub fn set_up(spec: &Spec) -> Served {
    let start = Instant::now();
    pin(HARNESS_CPU);
    let devices = Devices::new();
    pin(SUT_CPU);
    let store: Store = FasterKv::new_with_wal(
        spec.store_config(),
        CountStore,
        devices.log.clone(),
        devices.wal.clone(),
    );
    {
        let session = store.start_session();
        for key in 0..spec.keys {
            session
                .upsert(&key, &value_of(key, 0))
                .expect("load upsert on a healthy store");
        }
        session.complete_pending(true);
        session.wait_wal_durable().expect("load durable");
    }
    let server = Server::start(store.clone(), "127.0.0.1:0", ServerConfig { workers: 1 })
        .expect("start server on loopback");
    pin(HARNESS_CPU);
    Served {
        store,
        server,
        devices,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

impl Served {
    /// Stops the server and drops every handle on the store, leaving only
    /// the devices.
    pub fn tear_down(self) -> Devices {
        self.server.shutdown();
        self.devices
    }
}

/// Totals of one in-process phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProcess {
    pub ops: u64,
    pub failed: u64,
    /// Time inside `execute_batch` segments and INCR read-backs.
    pub exec_ns: u64,
    /// Time until every pending read of the round had completed.
    pub storage_wait_ns: u64,
    /// Time in `wait_wal_durable` after that.
    pub wal_wait_ns: u64,
}

/// Drives the connections' op streams straight into a session for `dur`:
/// per round, each connection's window goes through `execute_batch` in the
/// segments the server would cut (one ends after every INCR, which then
/// reads back), then the round waits for its disk reads and then for WAL
/// durability. No socket, no RESP.
pub fn run_in_process(
    store: &Store,
    gens: &mut [ConnGen],
    oracle: &mut Oracle,
    depth: usize,
    dur: Duration,
    tracer: &mut Tracer,
) -> InProcess {
    pin(SUT_CPU);
    let session = store.start_session();
    let mut out = InProcess::default();
    let mut batch: Vec<BatchOp<u64, u64, u64>> = Vec::new();
    let mut expects: Vec<Expect> = Vec::new();
    let mut pending: HashMap<u64, Expect> = HashMap::new();
    let mut written: Vec<u64> = Vec::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed() < dur {
        let t0 = Instant::now();
        let mut exec_spans = Vec::with_capacity(gens.len());
        written.clear();
        for g in gens.iter_mut() {
            batch.clear();
            expects.clear();
            ops.clear();
            ops.extend_from_slice(g.next_ops(depth));
            for op in &ops {
                let e = g.expect(op, oracle);
                batch.push(match (op.kind, e) {
                    (OpKind::Read, _) => BatchOp::Read {
                        key: op.key,
                        input: 0,
                    },
                    (_, Expect::Set { key, low }) => BatchOp::Upsert {
                        key,
                        value: value_of(key, low),
                    },
                    _ => BatchOp::Rmw {
                        key: op.key,
                        input: op.input,
                    },
                });
                written.extend(e.written_key());
                expects.push(e);
            }
            let t_exec = Instant::now();
            out.failed += exec_window(&session, &batch, &expects, oracle, &mut pending);
            exec_spans.push((t_exec, Instant::now()));
            out.ops += batch.len() as u64;
        }
        let t_storage = Instant::now();
        while !pending.is_empty() {
            for done in session.complete_pending(false) {
                out.failed += resolve(&mut pending, done.id, done.result, oracle);
            }
            std::thread::yield_now();
        }
        let t_wal = Instant::now();
        let durable = session.wait_wal_durable().is_ok();
        let t_end = Instant::now();
        if durable {
            oracle.ack_all_issued(written.iter().copied());
        } else {
            out.failed += written.len() as u64;
        }

        let w = tracer.record(None, "window", t0, t_end);
        for &(a, b) in &exec_spans {
            tracer.record(Some(w), "core.execute_batch", a, b);
            out.exec_ns += (b - a).as_nanos() as u64;
        }
        tracer.record(Some(w), "storage.await", t_storage, t_wal);
        tracer.record(Some(w), "wal.await", t_wal, t_end);
        out.storage_wait_ns += (t_wal - t_storage).as_nanos() as u64;
        out.wal_wait_ns += (t_end - t_wal).as_nanos() as u64;
    }
    out
}

/// Executes one connection's window the way the server's worker does and
/// checks every synchronous outcome; returns the number of failures.
fn exec_window(
    session: &BenchSession,
    batch: &[BatchOp<u64, u64, u64>],
    expects: &[Expect],
    oracle: &mut Oracle,
    pending: &mut HashMap<u64, Expect>,
) -> u64 {
    let mut failed = 0;
    let mut from = 0;
    while from < batch.len() {
        let seg = batch[from..]
            .iter()
            .position(|op| matches!(op, BatchOp::Rmw { .. }))
            .map_or(batch.len(), |i| from + i + 1);
        let outcomes = session.execute_batch(&batch[from..seg]);
        for (&e, outcome) in expects[from..seg].iter().zip(outcomes) {
            failed += match (e, outcome) {
                (Expect::Set { .. }, Ok(_)) => 0,
                (Expect::Incr { key, low }, outcome) => {
                    let applied = match outcome {
                        Ok(_) => true,
                        // An RMW that went asynchronous stalls the connection
                        // until it applies, exactly as the server stalls it.
                        Err(OpError::Pending(id)) => {
                            await_rmw(session, id, pending, oracle, &mut failed)
                        }
                        Err(_) => false,
                    };
                    if applied {
                        let read_back = session.read(&key, &0);
                        read_outcome(Expect::GetExact { key, low }, read_back, oracle, pending)
                    } else {
                        1
                    }
                }
                (get, outcome) => read_outcome(get, outcome, oracle, pending),
            };
        }
        from = seg;
    }
    failed
}

/// Drives the session until pending op `id` completes (resolving any reads
/// that complete meanwhile); returns whether it applied.
fn await_rmw(
    session: &BenchSession,
    id: u64,
    pending: &mut HashMap<u64, Expect>,
    oracle: &mut Oracle,
    failed: &mut u64,
) -> bool {
    loop {
        for done in session.complete_pending(false) {
            if done.id == id {
                return done.result.is_ok();
            }
            *failed += resolve(pending, done.id, done.result, oracle);
        }
        std::thread::yield_now();
    }
}

/// Checks a read's outcome, or parks its expectation until it completes.
fn read_outcome(
    expect: Expect,
    outcome: Result<Outcome<u64>, OpError>,
    oracle: &mut Oracle,
    pending: &mut HashMap<u64, Expect>,
) -> u64 {
    match outcome {
        Ok(Outcome::Value(v)) => !check_reply(expect, Reply::Bulk(v), oracle) as u64,
        Err(OpError::Pending(id)) => {
            pending.insert(id, expect);
            0
        }
        _ => 1,
    }
}

fn resolve(
    pending: &mut HashMap<u64, Expect>,
    id: u64,
    result: Result<Outcome<u64>, OpError>,
    oracle: &mut Oracle,
) -> u64 {
    match (pending.remove(&id), result) {
        (Some(expect), Ok(Outcome::Value(v))) => {
            !check_reply(expect, Reply::Bulk(v), oracle) as u64
        }
        (Some(_), _) => 1,
        (None, _) => 0,
    }
}

/// A device that holds its bytes in one buffer and completes every request
/// inline, with no latency. Recovery runs on one: `Wal::recover` reads the
/// log back two blocking reads per record, which at the latency model's
/// 20 µs a read would take minutes for the millions of records a run
/// appends — the check is of *which bytes reached the device*, not of how
/// long they take to read back.
struct RamDisk {
    bytes: Mutex<Vec<u8>>,
}

impl Device for RamDisk {
    fn submit(&self, sqe: Sqe) {
        let (op, completion) = sqe.into_parts();
        let mut bytes = self.bytes.lock().expect("no panics under the RamDisk lock");
        let result = match op {
            SqeOp::Read { offset, len } => {
                match bytes.get(offset as usize..offset as usize + len) {
                    Some(found) => Ok(found.to_vec()),
                    None => Err(IoError::OutOfRange { offset, len }),
                }
            }
            SqeOp::Write { offset, data } => {
                let end = offset as usize + data.len();
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[offset as usize..end].copy_from_slice(&data);
                Ok(Vec::new())
            }
        };
        drop(bytes);
        completion.complete(result);
    }

    fn flush_barrier(&self) -> Result<(), IoError> {
        Ok(())
    }

    fn stats(&self) -> faster_storage::DeviceStats {
        faster_storage::DeviceStats::default()
    }
}

/// Every byte `dev` holds from offset 0 up to its extent (a multiple of the
/// sector size: every write to it was sector-aligned), read through the
/// ring like any other client of the device.
fn device_image(dev: &MemDevice) -> Vec<u8> {
    let ring = Arc::new(CompletionRing::new());
    let mut image = Vec::new();
    let mut cqes = Vec::new();
    let mut len = 1usize << 20;
    while len >= dev.sector_size() {
        loop {
            dev.submit(Sqe::read(0, image.len() as u64, len, &ring));
            cqes.clear();
            while ring.reap(&mut cqes) == 0 {
                ring.wait_nonempty(Duration::from_millis(100));
            }
            match cqes.pop().expect("reaped").result {
                Ok(bytes) => image.extend_from_slice(&bytes),
                Err(_) => break, // past the extent at this size: try smaller
            }
        }
        len /= 2;
    }
    image
}

/// Outcome of recovering the store from its devices alone.
#[derive(Debug, Clone, Copy)]
pub struct Recovered {
    /// Keys written during the run, all of which were read back.
    pub checked: u64,
    /// Keys whose recovered record is missing, names another key, is older
    /// than the last acknowledged write, or newer than anything sent.
    pub lost: u64,
    pub secs: f64,
}

/// Rebuilds the store from what reached the devices and reads back every
/// key the run wrote. The old store is gone by now. With checkpoints off no
/// generation was ever committed, so recovery starts from an empty store and
/// replays the whole WAL: the WAL device's bytes are all that matters, and
/// the log and checkpoint devices handed over are fresh ones.
pub fn recover_and_verify(spec: &Spec, devices: Devices, oracle: &Oracle) -> Recovered {
    let start = Instant::now();
    let wal_image = device_image(&devices.wal);
    drop(devices);
    let rec = match recover_store_with_wal::<u64, u64, CountStore>(
        spec.store_config(),
        CountStore,
        MemDevice::new(2),
        MemDevice::new(1),
        Arc::new(RamDisk {
            bytes: Mutex::new(wal_image),
        }),
        CheckpointConfig::default(),
    ) {
        Ok(rec) => rec,
        Err(_) => {
            let written = oracle.written().count() as u64;
            return Recovered {
                checked: written,
                lost: written,
                secs: start.elapsed().as_secs_f64(),
            };
        }
    };
    let session = rec.store.start_session();
    let in_range = |key: u64, v: u64, acked: u32, issued: u32| {
        v >> 32 == key && acked <= v as u32 && v as u32 <= issued
    };
    let mut out = Recovered {
        checked: 0,
        lost: 0,
        secs: 0.0,
    };
    let mut parked: HashMap<u64, (u64, u32, u32)> = HashMap::new();
    let drain = |parked: &mut HashMap<u64, (u64, u32, u32)>, lost: &mut u64| {
        for done in session.complete_pending(true) {
            if let Some((key, acked, issued)) = parked.remove(&done.id) {
                let ok =
                    matches!(done.result, Ok(Outcome::Value(v)) if in_range(key, v, acked, issued));
                *lost += !ok as u64;
            }
        }
    };
    for (key, acked, issued) in oracle.written() {
        out.checked += 1;
        match session.read(&key, &0) {
            Ok(Outcome::Value(v)) => out.lost += !in_range(key, v, acked, issued) as u64,
            Err(OpError::Pending(id)) => {
                parked.insert(id, (key, acked, issued));
                if parked.len() >= 64 {
                    drain(&mut parked, &mut out.lost);
                }
            }
            _ => out.lost += 1,
        }
    }
    drain(&mut parked, &mut out.lost);
    out.lost += parked.len() as u64;
    out.secs = start.elapsed().as_secs_f64();
    out
}
