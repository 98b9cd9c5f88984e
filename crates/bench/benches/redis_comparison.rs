//! §7.2.4: Redis-style single-threaded store with client pipelining vs
//! single-threaded FASTER.
//!
//! Paper result: ~1.1 M sets/s and ~1.4 M gets/s pipelined on a small key
//! space (0.7 M / 0.9 M at 250 M keys) — far below single-threaded FASTER.

use faster_bench::*;
use faster_core::CountStore;
use faster_baselines::RedisLike;
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};
use std::time::Instant;

fn main() {
    let keys = ((1_000_000.0 * scale()) as u64).max(10_000);
    let total_ops: u64 = ((2_000_000.0 * scale()) as u64).max(100_000);
    println!("# Redis comparison: {keys} keys, {total_ops} ops per cell");

    // redis-benchmark-style: 10 clients, varying pipeline depth, 50% get/set.
    for pipeline in [1usize, 10, 50, 200] {
        let server = RedisLike::start();
        let clients = 10;
        let per_client = total_ops / clients as u64;
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                std::thread::spawn(move || {
                    let mut rng = faster_util::XorShift64::new(c as u64 + 1);
                    let mut done = 0u64;
                    while done < per_client {
                        let batch = pipeline.min((per_client - done) as usize);
                        let keys_batch: Vec<u64> =
                            (0..batch).map(|_| rng.next_below(keys)).collect();
                        let sets: Vec<bool> =
                            (0..batch).map(|_| rng.next_below(2) == 0).collect();
                        client.pipeline(&keys_batch, &sets);
                        done += batch as u64;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
        let mops = total_ops as f64 / start.elapsed().as_secs_f64() / 1e6;
        println!("redis-like pipeline={pipeline:3} {mops:8.3} Mops");
        emit("redis", "RedisLike", pipeline, format!("{mops:.4}"));
    }

    // Single-threaded FASTER on the same shape of workload.
    let wl = WorkloadConfig::new(keys, Mix::r_bu(50, 50), Distribution::Uniform);
    let store = build_faster(keys, in_memory_log(keys, 24, 0.9), CountStore, MemDevice::new(2));
    let r = run_faster_counts(&store, &wl, 1, run_duration(), true);
    println!("FASTER single-thread {:.3} Mops", r.mops);
    emit("redis", "FASTER-1thread", 0, format!("{:.4}", r.mops));
}
