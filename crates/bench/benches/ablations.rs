//! Ablation studies for the design choices DESIGN.md calls out — not paper
//! figures, but quantifications of the mechanisms the paper argues for:
//!
//! 1. **CRDT deltas vs. pending RMWs** (§6.3): the same sum workload run
//!    on `CountCrdt` (mergeable: fuzzy/disk RMWs append deltas, no I/O) and
//!    on `CountStore` (fuzzy RMWs go pending, disk RMWs read first).
//! 2. **Epoch refresh interval** (§2.5): more frequent refresh shrinks the
//!    fuzzy region (fresher thread-local offsets) but costs epoch-table
//!    traffic.
//! 3. **Read cache on/off** (Appendix D) on a read-heavy, cold-heavy
//!    workload.

use faster_bench::*;
use faster_core::{BlindKv, CountCrdt, CountStore, FasterKv, FasterKvConfig, OpError};
use faster_hlog::HLogConfig;
use faster_storage::{Device, LatencyModel, MemDevice};
use faster_ycsb::{Distribution, Mix, WorkloadConfig};
use std::time::Instant;

fn main() {
    let keys = (default_keys() / 2).max(10_000);
    let dur = run_duration();
    let threads = max_threads();

    // ---- 1. CRDT vs pending, small IPU region to stress the fuzzy path.
    println!("# Ablation 1: mergeable (CRDT deltas) vs non-mergeable RMW, IPU 0.3");
    let wl = WorkloadConfig::new(keys, Mix::rmw_only(), Distribution::zipf_default());
    let store = build_faster(keys, in_memory_log(keys, 24, 0.3), CountStore, MemDevice::new(2));
    let plain = run_faster_counts(&store, &wl, threads, dur, true);
    drop(store);
    let store = build_faster(keys, in_memory_log(keys, 24, 0.3), CountCrdt, MemDevice::new(2));
    let crdt = run_faster_counts(&store, &wl, threads, dur, true);
    println!(
        "ablation-crdt plain {:.2} Mops ({} fuzzy-pending) | crdt {:.2} Mops ({} deltas, {} fuzzy-pending)",
        plain.mops, plain.stats.fuzzy_pending, crdt.mops, crdt.stats.deltas, crdt.stats.fuzzy_pending
    );
    emit("ablation_crdt", "non-mergeable", "Mops", format!("{:.3}", plain.mops));
    emit("ablation_crdt", "mergeable", "Mops", format!("{:.3}", crdt.mops));
    assert_eq!(crdt.stats.fuzzy_pending, 0, "CRDTs never take the pending path");

    // ---- 2. Refresh interval sweep.
    println!("# Ablation 2: epoch refresh interval (100% RMW zipf)");
    for interval in [16u32, 64, 256, 1024] {
        let mut cfg = FasterKvConfig::for_keys(keys).with_log(in_memory_log(keys, 24, 0.8));
        cfg.refresh_interval = interval;
        let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
        let r = run_faster_counts(&store, &wl, threads, dur, true);
        let fuzzy_pct = if r.stats.rmws > 0 {
            100.0 * r.stats.fuzzy_pending as f64 / r.stats.rmws as f64
        } else {
            0.0
        };
        println!("ablation-refresh interval={interval:4} {:8.2} Mops fuzzy {fuzzy_pct:.4}%", r.mops);
        emit("ablation_refresh", "Mops", interval, format!("{:.3}", r.mops));
        emit("ablation_refresh", "FuzzyPct", interval, format!("{fuzzy_pct:.4}"));
    }

    // ---- 3. Read cache on/off: cold read-mostly workload.
    println!("# Ablation 3: Appendix D read cache, 95:5 zipf reads over a cold dataset");
    let cold_keys = keys;
    let log = HLogConfig { page_bits: 14, buffer_pages: 8, mutable_pages: 6, io_threads: 4 };
    let cache = HLogConfig { page_bits: 16, buffer_pages: 32, mutable_pages: 16, io_threads: 1 };
    for enabled in [false, true] {
        let mut cfg = FasterKvConfig::for_keys(cold_keys).with_log(log);
        if enabled {
            cfg = cfg.with_read_cache(cache);
        }
        let device = MemDevice::with_latency(4, LatencyModel::nvme());
        let store: FasterKv<u64, u64, BlindKv<u64>> =
            FasterKv::new(cfg, BlindKv::new(), device.clone());
        {
            let s = store.start_session();
            for k in 0..cold_keys {
                s.upsert(&k, &k).unwrap();
            }
            store.log().flush_barrier().unwrap();
        }
        // Zipf read stream driven synchronously (complete each pending read).
        let session = store.start_session();
        let wl = WorkloadConfig::new(cold_keys, Mix::r_bu(100, 0), Distribution::zipf_default());
        let mut gen = faster_ycsb::WorkloadGenerator::new(&wl, 0);
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < dur {
            let op = gen.next_op();
            if let Err(OpError::Pending(_)) = session.read(&op.key, &0) {
                session.complete_pending(true);
            }
            ops += 1;
        }
        let mops = ops as f64 / start.elapsed().as_secs_f64() / 1e6;
        let io = store.metrics().sessions.totals.io_issued;
        println!(
            "ablation-readcache enabled={enabled:5} {mops:8.3} Mops ({io} disk reads, {} device reads)",
            device.stats().reads
        );
        emit("ablation_readcache", if enabled { "on" } else { "off" }, "Mops", format!("{mops:.4}"));
    }
}
