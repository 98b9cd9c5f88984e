//! Checkpoint commit latency and recovery cost per fallback depth.
//!
//! Measures the two prices of the atomic multi-generation commit protocol
//! (DESIGN.md §7): what a `CheckpointManager::checkpoint_store()` call costs
//! as the store grows, and what recovery costs as arbitration falls back
//! deeper into the generation chain (each newer blob corrupted in place, so
//! depth d means d checksum-failed candidates before the winner).
//!
//! Prints human-readable rows and one `json,...` line per measurement that
//! `scripts/bench_smoke.sh` collects into `BENCH_ckpt.json`.
//!
//! Knobs: `FASTER_BENCH_CKPT_KEYS` (upserts per generation, default 50 000),
//! `FASTER_BENCH_CKPT_GENS` (generations committed, default 4).

use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager};
use faster_core::{CountStore, FasterKv, FasterKvConfig};
use faster_storage::{Device, MemDevice};
use std::sync::Arc;
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let keys_per_gen = env_u64("FASTER_BENCH_CKPT_KEYS", 50_000);
    let gens = env_u64("FASTER_BENCH_CKPT_GENS", 4).max(2);

    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let cfg = FasterKvConfig::for_keys(keys_per_gen * gens);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, log_dev.clone());
    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig { retain: gens as usize });

    println!("# ckpt_latency: {keys_per_gen} upserts/gen, {gens} generations");

    // Commit latency per generation: workload, then a timed atomic commit.
    for g in 0..gens {
        {
            let session = store.start_session();
            let base = g * keys_per_gen;
            for k in base..base + keys_per_gen {
                session.upsert(&k, &(k + 1)).unwrap();
            }
            session.complete_pending(true);
        }
        let t = Instant::now();
        let gen = mgr.checkpoint_store(&store).expect("fault-free commit");
        let secs = t.elapsed().as_secs_f64();
        let meta = mgr.generations().into_iter().find(|m| m.gen == gen).unwrap();
        println!(
            "commit   gen={gen:<3} {:>9.3} ms  blob={} B  t2={}",
            secs * 1e3,
            meta.blob_len,
            meta.t2
        );
        println!(
            "json,{{\"bench\":\"ckpt_latency\",\"phase\":\"commit\",\"gen\":{gen},\
             \"keys\":{},\"secs\":{secs:.6},\"blob_bytes\":{}}}",
            (g + 1) * keys_per_gen,
            meta.blob_len
        );
    }
    drop(store);
    log_dev.flush_barrier().unwrap();

    // Recovery cost per fallback depth: corrupt one more newest blob before
    // each measurement, so arbitration walks one generation deeper.
    let chain = mgr.generations();
    drop(mgr);
    for depth in 0..gens as usize {
        if depth > 0 {
            // Corrupt the blob that depth d-1 recovered to.
            let victim = chain[chain.len() - depth];
            let mut blob =
                ckpt_dev.read_blocking(victim.blob_offset, victim.blob_len as usize).unwrap();
            let at = blob.len() / 2;
            blob[at] ^= 0x5A;
            ckpt_dev.write_blocking(victim.blob_offset, blob).unwrap();
        }
        let t = Instant::now();
        let (_mgr, rec) =
            CheckpointManager::recover_latest(ckpt_dev.clone(), CheckpointConfig::default())
                .expect("a generation must survive");
        let recovered: FasterKv<u64, u64, CountStore> =
            FasterKv::recover(cfg, CountStore, log_dev.clone(), &rec.data);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(rec.fallbacks(), depth, "arbitration depth mismatch");
        println!(
            "recover  depth={depth:<2} gen={:<3} {:>9.3} ms ({} candidates)",
            rec.gen,
            secs * 1e3,
            rec.candidates
        );
        println!(
            "json,{{\"bench\":\"ckpt_latency\",\"phase\":\"recover\",\"depth\":{depth},\
             \"gen\":{},\"secs\":{secs:.6}}}",
            rec.gen
        );
        drop(recovered);
    }
    println!("ckpt_latency OK");
}
