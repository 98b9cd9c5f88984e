//! Figure 12: effect of the in-place-update (IPU) region size.
//!
//! 12a: throughput rises and log growth falls as the IPU fraction grows;
//! Zipf saturates at lower IPU factors than uniform (hot keys concentrate in
//! the mutable tail — the log-shaping effect of §6.4).
//! 12b: the percentage of RMWs that land in the fuzzy region stays tiny —
//! paper: under 3 %, and above 0.5 % only below ~0.7 IPU factor.

use faster_bench::*;
use faster_core::CountStore;
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    let threads = max_threads();
    println!("# Fig 12a/12b: 100% RMW, {threads} threads, IPU fraction sweep");
    for (dname, dist) in [("uniform", Distribution::Uniform), ("zipf", Distribution::zipf_default())] {
        for ipu in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let wl = WorkloadConfig::new(keys, Mix::rmw_only(), dist);
            let store =
                build_faster(keys, in_memory_log(keys, 24, ipu), CountStore, MemDevice::new(2));
            let r = run_faster_counts(&store, &wl, threads, dur, true);
            let fuzzy_pct = if r.stats.rmws > 0 {
                100.0 * r.stats.fuzzy_pending as f64 / r.stats.rmws as f64
            } else {
                0.0
            };
            println!(
                "fig12 {dname:7} ipu={ipu:.1} {:8.2} Mops, log {:8.1} MB/s, fuzzy {:6.3}%",
                r.mops, r.log_growth_mb_s, fuzzy_pct
            );
            emit("fig12a", &format!("Throughput-{dname}"), format!("{ipu:.1}"), format!("{:.3}", r.mops));
            emit("fig12a", &format!("LogRate-{dname}"), format!("{ipu:.1}"), format!("{:.1}", r.log_growth_mb_s));
            if dname == "uniform" {
                emit("fig12b", "FuzzyPct-uniform", format!("{ipu:.1}"), format!("{fuzzy_pct:.4}"));
            }
        }
    }
}
