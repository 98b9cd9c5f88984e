//! Figure 13: percentage of fuzzy (pending) RMW operations as the thread
//! count grows, IPU factor fixed at 0.8, uniform keys.
//!
//! Paper result: grows with threads (stale thread-local views of the
//! read-only offset become likelier) but stays below 1 % at 56 threads.

use faster_bench::*;
use faster_core::CountStore;
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    println!("# Fig 13: 100% RMW uniform, IPU 0.8, thread sweep");
    let wl = WorkloadConfig::new(keys, Mix::rmw_only(), Distribution::Uniform);
    for t in thread_sweep() {
        let store = build_faster(keys, in_memory_log(keys, 24, 0.8), CountStore, MemDevice::new(2));
        let r = run_faster_counts(&store, &wl, t, dur, true);
        let fuzzy_pct = if r.stats.rmws > 0 {
            100.0 * r.stats.fuzzy_pending as f64 / r.stats.rmws as f64
        } else {
            0.0
        };
        println!("fig13 threads={t:2} fuzzy {fuzzy_pct:6.4}% ({:.2} Mops)", r.mops);
        emit("fig13", "FuzzyPct", t, format!("{fuzzy_pct:.4}"));
    }
}
