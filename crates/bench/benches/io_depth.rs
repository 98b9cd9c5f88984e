//! Disk-resident read throughput vs. I/O depth — the headline measurement
//! for the completion-ring async I/O path (DESIGN.md §9).
//!
//! Fig 10 memory-budget setup shrunk to its cold extreme: the HybridLog
//! buffer holds a small fraction of the dataset, so uniform random reads
//! almost always miss memory and go pending against the device (MemDevice
//! with the NVMe latency model: ~20 µs per read). A single session issues
//! `depth` reads back-to-back, then drains with `complete_pending`; with
//! the completion ring the whole window overlaps in flight, so throughput
//! should scale nearly linearly with depth until submission overhead
//! dominates. Prints human-readable rows, `csv,io_depth,...` rows, and one
//! `json,...` line per depth that `scripts/bench_smoke.sh` collects into
//! `BENCH_io.json` (with a depth-64 : depth-1 ratio gate).
//!
//! Knobs: `FASTER_BENCH_IO_KEYS` (default 200 K), `FASTER_BENCH_IO_SECS`
//! (seconds per depth, default 1.0).

use faster_core::{CountStore, FasterKv, FasterKvConfig, OpError};
use faster_hlog::HLogConfig;
use faster_storage::{LatencyModel, MemDevice};
use faster_util::XorShift64;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let keys = env_u64("FASTER_BENCH_IO_KEYS", 200_000);
    let dur = Duration::from_secs_f64(env_f64("FASTER_BENCH_IO_SECS", 1.0).clamp(0.1, 30.0));

    // ~4.8 MB of 24-byte records against a 512 KB buffer: ~90% of uniform
    // reads fall below the head address and must hit the device.
    let log = HLogConfig { page_bits: 16, buffer_pages: 8, mutable_pages: 0, io_threads: 4 }
        .with_mutable_fraction(0.5);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(
        FasterKvConfig::for_keys(keys).with_log(log),
        CountStore,
        MemDevice::with_latency(4, LatencyModel::nvme()),
    );
    let session = store.start_session();
    for k in 0..keys {
        session.upsert(&k, &k).unwrap();
    }
    session.complete_pending(true);
    store.log().flush_barrier().unwrap();

    println!("# io_depth: {keys} keys disk-resident, NVMe latency model, {:.1}s/depth", dur.as_secs_f64());

    let mut results: Vec<(usize, f64)> = Vec::new();
    for depth in [1usize, 4, 16, 64] {
        // Warm the index and the retained-buffer paths at this depth.
        let mut rng = XorShift64::new(0x10DE47 ^ depth as u64);
        for _ in 0..16 {
            let mut pending = false;
            for _ in 0..depth {
                let k = rng.next_below(keys);
                if matches!(session.read(&k, &0), Err(OpError::Pending(_))) {
                    pending = true;
                }
            }
            session.complete_pending(pending);
        }

        let start = Instant::now();
        let mut ops = 0u64;
        let mut io_pending = 0u64;
        while start.elapsed() < dur {
            let mut pending = false;
            for _ in 0..depth {
                let k = rng.next_below(keys);
                if matches!(session.read(&k, &0), Err(OpError::Pending(_))) {
                    pending = true;
                    io_pending += 1;
                }
            }
            session.complete_pending(pending);
            ops += depth as u64;
        }
        let secs = start.elapsed().as_secs_f64();
        let mops = ops as f64 / secs / 1e6;
        let pending_pct = io_pending as f64 / ops as f64 * 100.0;
        println!("io_depth depth={depth:<3} {mops:>8.4} Mops ({pending_pct:.0}% pending)");
        faster_bench::emit("io_depth", "FASTER-disk-read", depth, format!("{mops:.4}"));
        println!(
            "json,{{\"bench\":\"io_depth\",\"depth\":{depth},\"ops\":{ops},\"secs\":{secs:.4},\
             \"mops\":{mops:.4},\"pending_pct\":{pending_pct:.1}}}"
        );
        results.push((depth, mops));
    }

    if let (Some(&(_, d1)), Some(&(_, d64))) = (
        results.iter().find(|(d, _)| *d == 1),
        results.iter().find(|(d, _)| *d == 64),
    ) {
        println!("speedup: depth64/depth1 {:.2}x", d64 / d1);
    }

    // Store-wide snapshot so BENCH_io.json carries the io_depth/io_latency
    // histograms and the drained io_inflight gauge alongside the sweep.
    println!(
        "json,{{\"bench\":\"io_depth\",\"mode\":\"metrics_snapshot\",\"metrics\":{}}}",
        store.metrics().to_json()
    );
}
