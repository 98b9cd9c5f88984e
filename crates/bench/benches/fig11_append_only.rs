//! Figure 11: HybridLog vs the §5 append-only log allocator, YCSB-A 50:50,
//! uniform and Zipfian, thread sweep.
//!
//! Paper result: append-only is flat at ≤ 20 M ops/s (tail contention + new
//! record per update) and does not scale; HybridLog scales linearly. Zipf
//! beats uniform under HybridLog (cache/TLB locality) but *hurts* append-only
//! (CAS conflicts on hot keys).

use faster_bench::*;
use faster_core::CountStore;
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    let sweep = thread_sweep();
    println!("# Fig 11: append-only (mutable fraction 0) vs HybridLog (0.9)");
    for (dname, dist) in [("uniform", Distribution::Uniform), ("zipf", Distribution::zipf_default())] {
        let wl = WorkloadConfig::new(keys, Mix::r_bu(50, 50), dist);
        for &t in &sweep {
            // HybridLog.
            let store = build_faster(keys, in_memory_log(keys, 24, 0.9), CountStore, MemDevice::new(2));
            let hl = run_faster_counts(&store, &wl, t, dur, true);
            drop(store);
            // Append-only: mutable region size zero (the §5 strawman). The
            // log grows on *every* update, so back it with a real (simulated)
            // device and an enlarged buffer; reads of evicted records take
            // the async path, exactly like the paper's append-only store.
            let mut aol_log = in_memory_log(keys, 24, 0.0);
            aol_log.buffer_pages *= 4;
            let store = build_faster(keys, aol_log, CountStore, MemDevice::new(2));
            let aol = run_faster_counts(&store, &wl, t, dur, true);
            println!(
                "fig11 {dname:7} threads={t:2} HybridLog {:8.2} Mops | AppendOnly {:8.2} Mops",
                hl.mops, aol.mops
            );
            emit("fig11", &format!("FASTER-HL ({dname})"), t, format!("{:.3}", hl.mops));
            emit("fig11", &format!("FASTER-AOL ({dname})"), t, format!("{:.3}", aol.mops));
        }
    }
}
