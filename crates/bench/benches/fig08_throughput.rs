//! Figure 8 (a–d): single-thread and all-thread throughput of FASTER vs the
//! baseline systems, on YCSB-A variants (0:100 RMW, 0:100, 50:50, 100:0),
//! uniform and Zipfian, dataset fitting in memory.
//!
//! Paper result: FASTER ≈ 4–6 M ops/s single-threaded (above all baselines);
//! ≈ 115 M (uniform) / 165 M (Zipf) on 56 threads; Intel TBB competitive on
//! uniform but contended under Zipf; Masstree and RocksDB far below.

use faster_bench::*;
use faster_core::CountStore;
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    let dists = [("uniform", Distribution::Uniform), ("zipf", Distribution::zipf_default())];
    let threads_settings = [("1thread", 1usize), ("allthreads", max_threads())];
    println!("# Fig 8: throughput, {keys} keys, {:?} per cell", dur);
    if batch_size() > 1 {
        println!(
            "# issue mode: batched (FASTER store-side, baselines generation-only), \
             FASTER_BENCH_BATCH={}",
            batch_size()
        );
    }
    println!("# figure key: 8a=1thread/uniform 8b=1thread/zipf 8c=all/uniform 8d=all/zipf");
    for (tname, threads) in threads_settings {
        for (dname, dist) in dists.iter() {
            let fig = match (tname, *dname) {
                ("1thread", "uniform") => "fig8a",
                ("1thread", "zipf") => "fig8b",
                ("allthreads", "uniform") => "fig8c",
                _ => "fig8d",
            };
            for (mixname, mix) in fig8_mixes() {
                let wl = WorkloadConfig::new(keys, mix, *dist);
                // FASTER (8-byte payloads; RMW via non-mergeable sum).
                let store = build_faster(keys, in_memory_log(keys, 24, 0.9), CountStore, MemDevice::new(2));
                let r = run_faster_counts(&store, &wl, threads, dur, true);
                println!("{fig} {tname} {dname} {mixname:9} FASTER    {:8.2} Mops", r.mops);
                emit(fig, &format!("FASTER/{mixname}"), threads, format!("{:.3}", r.mops));
                drop(store);
                // Intel TBB stand-in.
                let m = run_shard_map(&wl, threads, dur);
                println!("{fig} {tname} {dname} {mixname:9} ShardMap  {m:8.2} Mops");
                emit(fig, &format!("IntelTBB-standin/{mixname}"), threads, format!("{m:.3}"));
                // Masstree stand-in.
                let o = run_ordered(&wl, threads, dur);
                println!("{fig} {tname} {dname} {mixname:9} Ordered   {o:8.2} Mops");
                emit(fig, &format!("Masstree-standin/{mixname}"), threads, format!("{o:.3}"));
                // RocksDB stand-in.
                let l = run_lsm(&wl, threads, dur);
                println!("{fig} {tname} {dname} {mixname:9} MiniLsm   {l:8.2} Mops");
                emit(fig, &format!("RocksDB-standin/{mixname}"), threads, format!("{l:.3}"));
            }
        }
    }
}
