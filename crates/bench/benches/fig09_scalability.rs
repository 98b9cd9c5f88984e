//! Figure 9: thread scalability, dataset in memory, Zipfian distribution.
//!
//! 9a: 100 % RMW, 8-byte payloads — paper: FASTER scales near-linearly;
//! Intel TBB falls over around 20 cross-socket threads; Masstree scales but
//! low; RocksDB flat and lowest.
//! 9b: 0:100 blind updates, 100-byte payloads — linear until memory
//! bandwidth saturates.
//!
//! NOTE: on a single-core host this measures contention overhead rather than
//! parallel speedup; the relative ordering of systems is the reproducible
//! shape.

use faster_bench::*;
use faster_core::{BlindKv, CountStore};
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    let sweep = thread_sweep();
    println!("# Fig 9a: 100% RMW, 8-byte payloads, Zipf; threads {sweep:?}");
    if batch_size() > 1 {
        println!(
            "# issue mode: batched (FASTER store-side, baselines generation-only), \
             FASTER_BENCH_BATCH={}",
            batch_size()
        );
    }
    let wl = WorkloadConfig::new(keys, Mix::rmw_only(), Distribution::zipf_default());
    for &t in &sweep {
        let store = build_faster(keys, in_memory_log(keys, 24, 0.9), CountStore, MemDevice::new(2));
        let r = run_faster_counts(&store, &wl, t, dur, true);
        println!("fig9a threads={t:2} FASTER   {:8.2} Mops", r.mops);
        emit("fig9a", "FASTER", t, format!("{:.3}", r.mops));
        let m = run_shard_map(&wl, t, dur);
        println!("fig9a threads={t:2} ShardMap {m:8.2} Mops");
        emit("fig9a", "IntelTBB-standin", t, format!("{m:.3}"));
        let o = run_ordered(&wl, t, dur);
        println!("fig9a threads={t:2} Ordered  {o:8.2} Mops");
        emit("fig9a", "Masstree-standin", t, format!("{o:.3}"));
        let l = run_lsm(&wl, t, dur);
        println!("fig9a threads={t:2} MiniLsm  {l:8.2} Mops");
        emit("fig9a", "RocksDB-standin", t, format!("{l:.3}"));
    }

    println!("# Fig 9b: 0:100 blind updates, 100-byte payloads, Zipf");
    let wl = WorkloadConfig::new(keys, Mix::r_bu(0, 100), Distribution::zipf_default());
    for &t in &sweep {
        let store: faster_core::FasterKv<u64, Payload100, BlindKv<Payload100>> =
            build_faster(keys, in_memory_log(keys, 120, 0.9), BlindKv::new(), MemDevice::new(2));
        let r = run_faster_bytes(&store, &wl, t, dur, true);
        println!("fig9b threads={t:2} FASTER   {:8.2} Mops", r.mops);
        emit("fig9b", "FASTER-100B", t, format!("{:.3}", r.mops));
    }
}
