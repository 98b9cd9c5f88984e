//! §7.2.2 tag-size experiment: YCSB 50:50 uniform, all threads, varying the
//! index tag width.
//!
//! Paper result: a 1-bit tag costs < 14 % throughput and a 4-bit tag < 5 %
//! versus the full 15-bit tag — FASTER can fund larger address spaces by
//! shrinking the tag.

use faster_bench::*;
use faster_core::{CountStore, FasterKv, FasterKvConfig};
use faster_storage::MemDevice;
use faster_ycsb::{Distribution, Mix, WorkloadConfig};

fn main() {
    let keys = default_keys();
    let dur = run_duration();
    let threads = max_threads();
    let wl = WorkloadConfig::new(keys, Mix::r_bu(50, 50), Distribution::Uniform);
    println!("# Tag sweep: 50:50 uniform, {threads} threads");
    let mut base = 0.0f64;
    for tag_bits in [15u8, 4, 1, 0] {
        let cfg = FasterKvConfig::for_keys(keys)
            .with_log(in_memory_log(keys, 24, 0.9))
            .with_tag_bits(tag_bits);
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg, CountStore, MemDevice::new(2));
        let r = run_faster_counts(&store, &wl, threads, dur, true);
        if tag_bits == 15 {
            base = r.mops;
        }
        let delta = if base > 0.0 { 100.0 * (1.0 - r.mops / base) } else { 0.0 };
        println!("tag_bits={tag_bits:2} {:8.2} Mops ({delta:+.1}% vs 15-bit)", r.mops);
        emit("tag_sweep", "FASTER", tag_bits, format!("{:.3}", r.mops));
    }
}
