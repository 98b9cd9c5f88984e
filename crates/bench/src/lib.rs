//! # faster-bench
//!
//! Shared measurement harness for regenerating every table and figure of
//! the paper's evaluation (§7). Each `benches/figNN_*.rs` target is a
//! standalone binary (`harness = false`) that prints both a human-readable
//! table and machine-readable CSV rows:
//!
//! ```text
//! csv,<figure>,<series>,<x>,<y>
//! ```
//!
//! Scale: benchmarks default to laptop-quick parameters. Set
//! `FASTER_BENCH_SCALE` (float, default 1.0) to scale key counts and run
//! durations toward the paper's setup, and `FASTER_BENCH_THREADS` to cap the
//! thread sweep.

use faster_core::{
    BatchOp, FasterKv, FasterKvConfig, Functions, OpError, Outcome, Session,
};
use faster_hlog::HLogConfig;
use faster_storage::{Device, MemDevice};
use faster_util::Pod;
use faster_ycsb::{Mix, OpKind, WorkloadConfig, WorkloadGenerator, ZipfianGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Global scale factor from `FASTER_BENCH_SCALE`.
pub fn scale() -> f64 {
    std::env::var("FASTER_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Batch-issue size from `FASTER_BENCH_BATCH`. `0` (or unset) means scalar
/// issue; `N > 1` makes the YCSB runners submit operations through
/// [`Session::execute_batch`] in groups of `N`, with one
/// `complete_pending` per batch.
pub fn batch_size() -> usize {
    std::env::var("FASTER_BENCH_BATCH").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Default key-space size for in-memory experiments (paper: 250 M).
pub fn default_keys() -> u64 {
    ((250_000.0 * scale()) as u64).max(10_000)
}

/// Measurement duration per cell (paper: 30 s).
pub fn run_duration() -> Duration {
    Duration::from_secs_f64((1.5 * scale()).clamp(0.5, 30.0))
}

/// Thread counts for scalability sweeps.
pub fn thread_sweep() -> Vec<usize> {
    let max: usize = std::env::var("FASTER_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get() * 4).unwrap_or(4));
    let mut v = vec![1usize];
    let mut t = 2;
    while t <= max {
        v.push(t);
        t *= 2;
    }
    v
}

/// All hardware threads (the paper's "all threads" setting, scaled to this
/// machine).
pub fn max_threads() -> usize {
    *thread_sweep().last().expect("nonempty")
}

/// Emits one machine-readable result row.
pub fn emit(figure: &str, series: &str, x: impl std::fmt::Display, y: impl std::fmt::Display) {
    println!("csv,{figure},{series},{x},{y}");
}

/// A finished measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchResult {
    /// Millions of operations per second.
    pub mops: f64,
    /// Operation counters over the measurement window (store-wide registry
    /// deltas — the per-session stats shim is gone).
    pub stats: OpStats,
    /// Log growth over the measurement, MB/s (HybridLog only).
    pub log_growth_mb_s: f64,
}

/// Aggregated operation counters over one measurement, diffed from
/// [`FasterKv::metrics`] snapshots taken before and after the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpStats {
    pub reads: u64,
    pub upserts: u64,
    pub rmws: u64,
    pub deletes: u64,
    /// In-place updates (mutable region hits).
    pub in_place: u64,
    /// Read-copy-updates (records copied to the tail).
    pub copies: u64,
    /// RMWs deferred because the record was in the fuzzy region (§6.3).
    pub fuzzy_pending: u64,
    /// Operations that issued disk I/O.
    pub io_pending: u64,
    /// CRDT delta records created (§6.3).
    pub deltas: u64,
}

/// Counter deltas between two store snapshots.
pub fn op_stats_delta(
    before: &faster_metrics::StoreMetrics,
    after: &faster_metrics::StoreMetrics,
) -> OpStats {
    let (b, a) = (&before.sessions.totals, &after.sessions.totals);
    OpStats {
        reads: a.reads - b.reads,
        upserts: a.upserts - b.upserts,
        rmws: a.rmws - b.rmws,
        deletes: a.deletes - b.deletes,
        in_place: a.in_place - b.in_place,
        copies: a.rcu - b.rcu,
        fuzzy_pending: a.fuzzy_pending - b.fuzzy_pending,
        io_pending: a.io_issued - b.io_issued,
        deltas: a.deltas - b.deltas,
    }
}

/// Builds a FASTER store with the paper's defaults: index at #keys/2
/// entries, HybridLog with the given page layout and IPU fraction.
pub fn build_faster<V: Pod, F: Functions<u64, V>>(
    keys: u64,
    log: HLogConfig,
    functions: F,
    device: Arc<dyn Device>,
) -> FasterKv<u64, V, F> {
    let cfg = FasterKvConfig::for_keys(keys).with_log(log);
    FasterKv::new(cfg, functions, device)
}

/// In-memory log layout sized so `keys` records of `record_size` fit with
/// room to spare (the "dataset fits in memory" experiments).
pub fn in_memory_log(keys: u64, record_size: usize, mutable_fraction: f64) -> HLogConfig {
    let bytes_needed = keys * (record_size as u64) * 3 + (8 << 20);
    let page_bits = 20u32; // 1 MB pages
    let pages = (bytes_needed >> page_bits).next_power_of_two().max(8);
    HLogConfig { page_bits, buffer_pages: pages, mutable_pages: 0, io_threads: 2 }
        .with_mutable_fraction(mutable_fraction)
}

/// One YCSB operation applied to a FASTER session. Returns true if pending.
#[inline]
pub fn apply_faster_op<V: Pod, F: Functions<u64, V>>(
    session: &Session<u64, V, F>,
    kind: OpKind,
    key: u64,
    read_input: &F::Input,
    rmw_input: &F::Input,
    upsert_value: &V,
) -> bool {
    match kind {
        OpKind::Read => matches!(session.read(&key, read_input), Err(OpError::Pending(_))),
        OpKind::Upsert => {
            session.upsert(&key, upsert_value).expect("bench store is writable");
            false
        }
        OpKind::Rmw => matches!(session.rmw(&key, rmw_input), Err(OpError::Pending(_))),
    }
}

/// A whole YCSB batch applied through [`Session::execute_batch`], reusing
/// `scratch` for the translated ops. `rmw_input` / `upsert_value` map each
/// op's 8-entry-array input to the store's types. Returns true if any
/// operation went pending (the caller then drains with `complete_pending`).
#[inline]
pub fn apply_faster_batch<V, F>(
    session: &Session<u64, V, F>,
    ops: &[faster_ycsb::Op],
    scratch: &mut Vec<BatchOp<u64, V, F::Input>>,
    read_input: &F::Input,
    rmw_input: impl Fn(u64) -> F::Input,
    upsert_value: impl Fn(u64) -> V,
) -> bool
where
    V: Pod,
    F: Functions<u64, V>,
{
    scratch.clear();
    scratch.extend(ops.iter().map(|op| match op.kind {
        OpKind::Read => BatchOp::Read { key: op.key, input: read_input.clone() },
        OpKind::Upsert => BatchOp::Upsert { key: op.key, value: upsert_value(op.input) },
        OpKind::Rmw => BatchOp::Rmw { key: op.key, input: rmw_input(op.input) },
    }));
    session.execute_batch(scratch).iter().any(|outcome| matches!(outcome, Err(OpError::Pending(_))))
}

/// Runs a YCSB workload against a FASTER store with 8-byte values — the
/// Fig 8/9a/12/13 configuration — for `duration` on `threads` threads.
/// `preload` inserts all keys first (the paper preloads its datasets).
pub fn run_faster_counts<F>(
    store: &FasterKv<u64, u64, F>,
    workload: &WorkloadConfig,
    threads: usize,
    duration: Duration,
    preload: bool,
) -> BenchResult
where
    F: Functions<u64, u64, Input = u64, Output = u64>,
{
    if preload {
        preload_counts(store, workload.keys);
    }
    let shared_zipf = match workload.distribution {
        faster_ycsb::Distribution::Zipfian { theta } => {
            Some(ZipfianGenerator::new(workload.keys, theta))
        }
        _ => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let log_bytes_before = store.log().tail_address().raw();
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = store.clone();
        let workload = workload.clone();
        let stop = stop.clone();
        let barrier = barrier.clone();
        let zipf = shared_zipf.clone();
        handles.push(std::thread::spawn(move || {
            let session = store.start_session();
            let mut gen = match zipf {
                Some(z) => WorkloadGenerator::with_shared_zipf(&workload, t as u64, z),
                None => WorkloadGenerator::new(&workload, t as u64),
            };
            barrier.wait();
            let batch = batch_size();
            let mut ops = 0u64;
            if batch > 1 {
                let mut raw = Vec::with_capacity(batch);
                let mut scratch = Vec::with_capacity(batch);
                while !stop.load(Ordering::Relaxed) {
                    gen.next_batch(batch, &mut raw);
                    let pending = apply_faster_batch(
                        &session,
                        &raw,
                        &mut scratch,
                        &0,
                        |i| i,
                        |i| i,
                    );
                    session.complete_pending(pending);
                    ops += batch as u64;
                }
            } else {
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..256 {
                        let op = gen.next_op();
                        let pending = apply_faster_op(
                            &session,
                            op.kind,
                            op.key,
                            &0,
                            &op.input,
                            &op.input,
                        );
                        if pending {
                            session.complete_pending(true);
                        }
                        ops += 1;
                    }
                    session.complete_pending(false);
                }
            }
            session.complete_pending(true);
            ops
        }));
    }
    let m_before = store.metrics();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::SeqCst);
    let mut total_ops = 0u64;
    for h in handles {
        total_ops += h.join().expect("bench worker");
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = op_stats_delta(&m_before, &store.metrics());
    let log_growth =
        (store.log().tail_address().raw() - log_bytes_before) as f64 / secs / (1 << 20) as f64;
    BenchResult { mops: total_ops as f64 / secs / 1e6, stats, log_growth_mb_s: log_growth }
}

/// Preloads `keys` sequential keys into an 8-byte-value store.
pub fn preload_counts<F: Functions<u64, u64, Input = u64, Output = u64>>(
    store: &FasterKv<u64, u64, F>,
    keys: u64,
) {
    let session = store.start_session();
    for k in 0..keys {
        session.upsert(&k, &0).expect("preload store is writable");
    }
    session.complete_pending(true);
}

/// The 100-byte-payload value type of Figs 8/9b/10 (§7.1).
pub type Payload100 = [u8; 104]; // 100 rounded to 8-byte alignment

/// Runs a YCSB workload against a FASTER store with 100-byte payloads
/// (blind-update experiments).
pub fn run_faster_bytes(
    store: &FasterKv<u64, Payload100, faster_core::BlindKv<Payload100>>,
    workload: &WorkloadConfig,
    threads: usize,
    duration: Duration,
    preload: bool,
) -> BenchResult {
    if preload {
        let session = store.start_session();
        let v: Payload100 = [7u8; 104];
        for k in 0..workload.keys {
            session.upsert(&k, &v).expect("preload store is writable");
        }
        session.complete_pending(true);
    }
    let shared_zipf = match workload.distribution {
        faster_ycsb::Distribution::Zipfian { theta } => {
            Some(ZipfianGenerator::new(workload.keys, theta))
        }
        _ => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let before = store.log().tail_address().raw();
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = store.clone();
        let workload = workload.clone();
        let stop = stop.clone();
        let barrier = barrier.clone();
        let zipf = shared_zipf.clone();
        handles.push(std::thread::spawn(move || {
            let session = store.start_session();
            let mut gen = match zipf {
                Some(z) => WorkloadGenerator::with_shared_zipf(&workload, t as u64, z),
                None => WorkloadGenerator::new(&workload, t as u64),
            };
            let value: Payload100 = [9u8; 104];
            let zero: Payload100 = [0u8; 104];
            barrier.wait();
            let batch = batch_size();
            let mut ops = 0u64;
            if batch > 1 {
                let mut raw = Vec::with_capacity(batch);
                let mut scratch = Vec::with_capacity(batch);
                while !stop.load(Ordering::Relaxed) {
                    gen.next_batch(batch, &mut raw);
                    let pending = apply_faster_batch(
                        &session,
                        &raw,
                        &mut scratch,
                        &zero,
                        |_| value,
                        |_| value,
                    );
                    session.complete_pending(pending);
                    ops += batch as u64;
                }
            } else {
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..256 {
                        let op = gen.next_op();
                        if apply_faster_op(&session, op.kind, op.key, &zero, &value, &value) {
                            session.complete_pending(true);
                        }
                        ops += 1;
                    }
                    session.complete_pending(false);
                }
            }
            session.complete_pending(true);
            ops
        }));
    }
    let m_before = store.metrics();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::SeqCst);
    let mut total_ops = 0u64;
    for h in handles {
        total_ops += h.join().expect("bench worker");
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = op_stats_delta(&m_before, &store.metrics());
    let growth = (store.log().tail_address().raw() - before) as f64 / secs / (1 << 20) as f64;
    BenchResult { mops: total_ops as f64 / secs / 1e6, stats, log_growth_mb_s: growth }
}

// ---------------------------------------------------------------- baselines

/// Generic duration-based runner for the in-memory baselines.
///
/// Honors `FASTER_BENCH_BATCH` the same way the FASTER runners do, so the
/// Fig 8 batched comparison is apples-to-apples: in batched mode every
/// runner amortizes workload generation over `batch` keys per issue loop.
/// The baselines get *no* store-side batch processing — they have no
/// software-prefetch pipeline to feed — so any remaining FASTER advantage
/// in batched mode is the store-side pipelining the paper measures, not a
/// harness artifact.
fn run_baseline<S, OpF>(
    state: Arc<S>,
    workload: &WorkloadConfig,
    threads: usize,
    duration: Duration,
    op: OpF,
) -> f64
where
    S: Send + Sync + 'static,
    OpF: Fn(&S, OpKind, u64, u64) + Send + Sync + Clone + 'static,
{
    let shared_zipf = match workload.distribution {
        faster_ycsb::Distribution::Zipfian { theta } => {
            Some(ZipfianGenerator::new(workload.keys, theta))
        }
        _ => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let state = state.clone();
        let workload = workload.clone();
        let stop = stop.clone();
        let barrier = barrier.clone();
        let op = op.clone();
        let zipf = shared_zipf.clone();
        handles.push(std::thread::spawn(move || {
            let mut gen = match zipf {
                Some(z) => WorkloadGenerator::with_shared_zipf(&workload, t as u64, z),
                None => WorkloadGenerator::new(&workload, t as u64),
            };
            barrier.wait();
            let batch = batch_size();
            let mut ops = 0u64;
            if batch > 1 {
                let mut raw = Vec::with_capacity(batch);
                while !stop.load(Ordering::Relaxed) {
                    gen.next_batch(batch, &mut raw);
                    for o in &raw {
                        op(&state, o.kind, o.key, o.input);
                    }
                    ops += batch as u64;
                }
            } else {
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..256 {
                        let o = gen.next_op();
                        op(&state, o.kind, o.key, o.input);
                        ops += 1;
                    }
                }
            }
            ops
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::SeqCst);
    let total: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Intel-TBB-stand-in throughput (Mops).
pub fn run_shard_map(workload: &WorkloadConfig, threads: usize, duration: Duration) -> f64 {
    let map: Arc<faster_baselines::ShardMap<u64, u64>> =
        Arc::new(faster_baselines::ShardMap::new(10));
    for k in 0..workload.keys {
        map.upsert(k, 0);
    }
    run_baseline(map, workload, threads, duration, |m, kind, key, input| match kind {
        OpKind::Read => {
            std::hint::black_box(m.get(&key));
        }
        OpKind::Upsert => m.upsert(key, input),
        OpKind::Rmw => m.rmw(key, |v| *v += input, || input),
    })
}

/// Masstree-stand-in throughput (Mops): the lock-coupling B+-tree.
pub fn run_ordered(workload: &WorkloadConfig, threads: usize, duration: Duration) -> f64 {
    let store: Arc<faster_baselines::BTreeIndex<u64>> =
        Arc::new(faster_baselines::BTreeIndex::new());
    for k in 0..workload.keys {
        store.upsert(k, 0);
    }
    run_baseline(store, workload, threads, duration, |s, kind, key, input| match kind {
        OpKind::Read => {
            std::hint::black_box(s.get(key));
        }
        OpKind::Upsert => s.upsert(key, input),
        OpKind::Rmw => s.rmw(key, |v| *v += input, || input),
    })
}

/// RocksDB-stand-in throughput (Mops).
pub fn run_lsm(workload: &WorkloadConfig, threads: usize, duration: Duration) -> f64 {
    let db = faster_baselines::MiniLsm::new(
        faster_baselines::MiniLsmConfig::default(),
        MemDevice::new(2),
    );
    for k in 0..workload.keys {
        db.put(k, 0);
    }
    run_baseline(db, workload, threads, duration, |db, kind, key, input| match kind {
        OpKind::Read => {
            std::hint::black_box(db.get(key));
        }
        OpKind::Upsert => db.put(key, input),
        OpKind::Rmw => db.rmw(key, input, |v| v + input),
    })
}

/// Drains completed reads (helper for figure code that reads back values).
pub fn drain_reads<V: Pod, F: Functions<u64, V>>(
    session: &Session<u64, V, F>,
) -> Vec<(u64, Option<F::Output>)> {
    session
        .complete_pending(true)
        .into_iter()
        .filter_map(|c| match c.result {
            Ok(Outcome::Value(v)) => Some((c.id, Some(v))),
            Err(OpError::NotFound) => Some((c.id, None)),
            _ => None,
        })
        .collect()
}

/// The standard workload mixes of Fig 8 (§7.2.1): 0:100 RMW, 0:100, 50:50,
/// 100:0.
pub fn fig8_mixes() -> Vec<(&'static str, Mix)> {
    vec![
        ("0:100 RMW", Mix::rmw_only()),
        ("0:100", Mix::r_bu(0, 100)),
        ("50:50", Mix::r_bu(50, 50)),
        ("100:0", Mix::r_bu(100, 0)),
    ]
}
