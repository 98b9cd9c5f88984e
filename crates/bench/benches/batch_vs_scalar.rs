//! Batched vs scalar issue on a single thread — the headline measurement
//! for the software-prefetch pipeline (DESIGN.md §3).
//!
//! Uniform random point reads (and in-place RMWs) over a key space sized
//! well past the last-level cache, on a fully in-memory HybridLog, so each
//! scalar op pays the serial hash-bucket-then-record DRAM miss chain that
//! batching overlaps. Prints human-readable rows, `csv,batch,...` rows in
//! the harness's common format, and one `json,...` line per mode that
//! `scripts/bench_smoke.sh` collects into `BENCH_batch.json`.
//!
//! Knobs: `FASTER_BENCH_KEYS` (default 2 M), `FASTER_BENCH_BATCH`
//! (default 64), `FASTER_BENCH_OPS` (default 4 M per mode).

use faster_bench::{in_memory_log, SumStore};
use faster_core::{BatchOp, FasterKv, FasterKvConfig, Outcome};
use faster_storage::MemDevice;
use faster_util::XorShift64;
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn mops(ops: u64, secs: f64) -> f64 {
    ops as f64 / secs / 1e6
}

fn report(mode: &str, batch: usize, ops: u64, secs: f64) -> f64 {
    let m = mops(ops, secs);
    println!("{mode:<24} batch={batch:<4} {m:>8.3} Mops");
    faster_bench::emit("batch", mode, batch, format!("{m:.4}"));
    println!(
        "json,{{\"bench\":\"batch_vs_scalar\",\"mode\":\"{mode}\",\"batch\":{batch},\
         \"ops\":{ops},\"secs\":{secs:.4},\"mops\":{m:.4}}}"
    );
    m
}

fn main() {
    let keys = env_u64("FASTER_BENCH_KEYS", 2_000_000);
    let batch = env_u64("FASTER_BENCH_BATCH", 64).max(2) as usize;
    let total_ops = env_u64("FASTER_BENCH_OPS", 4_000_000);

    // In-memory layout: 24-byte records (header + u64 key + u64 value),
    // everything mutable so reads never go pending.
    let store: FasterKv<u64, u64, SumStore> = FasterKv::new(
        FasterKvConfig::for_keys(keys).with_log(in_memory_log(keys, 24, 0.9)),
        SumStore,
        MemDevice::new(2),
    );
    let session = store.start_session();
    for k in 0..keys {
        session.upsert(&k, &k).unwrap();
    }
    session.complete_pending(true);

    // One uniform random key stream, replayed identically by every mode so
    // scalar and batched touch the same cache-hostile sequence.
    let mut rng = XorShift64::new(0xFA57E);
    let stream: Vec<u64> = (0..total_ops).map(|_| rng.next_below(keys)).collect();

    // Batched modes reuse one op vector, rebuilt per chunk.
    let mut ops: Vec<BatchOp<u64, u64, u64>> = Vec::with_capacity(batch);
    // Warm the index/log resident sets once.
    for chunk in stream[..stream.len().min(1 << 16)].chunks(batch) {
        ops.clear();
        ops.extend(chunk.iter().map(|&key| BatchOp::Read { key, input: 0 }));
        std::hint::black_box(session.execute_batch(&ops));
    }

    println!("# batch_vs_scalar: {keys} keys, {total_ops} ops/mode, batch={batch}");

    let t = Instant::now();
    let mut found = 0u64;
    for k in &stream {
        if let Ok(Outcome::Value(v)) = session.read(k, &0) {
            found += std::hint::black_box(v) & 1;
        }
    }
    let scalar_read = report("scalar_read", 1, total_ops, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for chunk in stream.chunks(batch) {
        ops.clear();
        ops.extend(chunk.iter().map(|&key| BatchOp::Read { key, input: 0 }));
        for r in session.execute_batch(&ops) {
            if let Ok(Outcome::Value(v)) = r {
                found += std::hint::black_box(v) & 1;
            }
        }
    }
    let batched_read = report("batched_read", batch, total_ops, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for k in &stream {
        std::hint::black_box(session.rmw(k, &1)).unwrap();
    }
    let scalar_rmw = report("scalar_rmw", 1, total_ops, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for chunk in stream.chunks(batch) {
        ops.clear();
        ops.extend(chunk.iter().map(|&key| BatchOp::Rmw { key, input: 1 }));
        std::hint::black_box(session.execute_batch(&ops));
    }
    let batched_rmw = report("batched_rmw", batch, total_ops, t.elapsed().as_secs_f64());

    std::hint::black_box(found);
    println!(
        "speedup: read {:.2}x  rmw {:.2}x",
        batched_read / scalar_read,
        batched_rmw / scalar_rmw
    );

    // Store-wide observability snapshot, tagged with the metrics build so
    // `scripts/bench_smoke.sh` can pair default vs `metrics-off` runs when
    // computing the counter-overhead delta for BENCH_metrics.json.
    let build = if cfg!(feature = "metrics-off") {
        "off"
    } else if cfg!(feature = "metrics-timing") {
        "timing"
    } else {
        "default"
    };
    println!(
        "json,{{\"bench\":\"batch_vs_scalar\",\"mode\":\"metrics_snapshot\",\
         \"metrics_build\":\"{build}\",\"metrics\":{}}}",
        store.metrics().to_json()
    );
}
