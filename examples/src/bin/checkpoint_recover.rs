//! Checkpointing and recovery without a write-ahead log (§6.5), persisted
//! through the atomic multi-generation commit protocol (DESIGN.md §7).
//!
//! Commits three checkpoint generations while the store runs, "crashes"
//! (drops the store, losing all in-memory state), corrupts the newest
//! generation's blob on the checkpoint device, and recovers: arbitration
//! skips the damaged generation with a typed error and falls back to the
//! previous one. The recovered state is consistent with that generation's
//! log position t2; post-checkpoint updates are (correctly) lost.
//!
//! Run with: `cargo run --release -p faster-examples --bin checkpoint_recover`

use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager};
use faster_core::{CheckpointError, CountStore, FasterKv, FasterKvConfig, OpError, Outcome};
use faster_storage::{Device, MemDevice};
use std::sync::Arc;

/// Reads a key, driving the async path if the record is cold.
fn read_blocking(
    session: &faster_core::Session<u64, u64, CountStore>,
    key: u64,
) -> Option<u64> {
    match session.read(&key, &0) {
        Ok(Outcome::Value(v)) => Some(v),
        Err(OpError::NotFound) => None,
        Err(OpError::Pending(id)) => session
            .complete_pending(true)
            .into_iter()
            .find(|c| c.id == id)
            .and_then(|c| c.result.ok())
            .and_then(Outcome::value),
        other => panic!("read of {key} failed: {other:?}"),
    }
}

fn main() {
    let cfg = FasterKvConfig::for_keys(1 << 14);
    let log_dev: Arc<dyn Device> = MemDevice::new(2); // the "SSD" that survives the crash
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1); // separate checkpoint device

    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg, CountStore, log_dev.clone());
        // Three rounds of updates, each committed as its own generation: the
        // value of every key records which round last touched it.
        for round in 1..=3u64 {
            {
                let session = store.start_session();
                for k in 0..10_000u64 {
                    session.upsert(&k, &(k + round)).expect("store is writable");
                }
            } // session dropped: the epoch-gated durability wait needs no idle guards
            let gen = mgr.checkpoint_store(&store).expect("commit");
            let meta = mgr.generations().into_iter().find(|g| g.gen == gen).unwrap();
            println!(
                "committed generation {gen}: t1={} t2={} blob={} B",
                meta.t1, meta.t2, meta.blob_len
            );
        }
        // An update after the last commit will be lost by the "crash".
        let s2 = store.start_session();
        s2.upsert(&0, &999_999_999).expect("store is writable");
        // <- store dropped here: simulated crash, memory gone.
    }

    // Storage-level damage on top of the crash: one flipped byte in the
    // newest generation's blob.
    let victim = *mgr.generations().last().unwrap();
    drop(mgr);
    {
        let mut blob =
            ckpt_dev.read_blocking(victim.blob_offset, victim.blob_len as usize).unwrap();
        let at = blob.len() / 3;
        blob[at] ^= 0x01;
        ckpt_dev.write_blocking(victim.blob_offset, blob).unwrap();
        println!("corrupted generation {}'s blob (one bit)", victim.gen);
    }

    // Recovery: arbitrate the manifest, skip the damaged generation, then
    // rebuild the index from the surviving fuzzy snapshot and replay [t1, t2).
    let (mgr, rec) = CheckpointManager::recover_latest(ckpt_dev, CheckpointConfig::default())
        .expect("an older generation must survive");
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg, CountStore, log_dev, &rec.data);
    assert_eq!(rec.gen, victim.gen - 1);
    assert_eq!(rec.fallbacks(), 1);
    assert!(matches!(rec.skipped[0], (g, CheckpointError::ChecksumMismatch) if g == victim.gen));
    println!(
        "recovered to generation {} after {} fallback(s); skipped: {:?}",
        rec.gen,
        rec.fallbacks(),
        rec.skipped
    );

    // Generation 2 wrote k+2 everywhere; round 3's k+3 updates and the
    // post-commit write to key 0 are gone with the damaged generation.
    let session = store.start_session();
    let mut verified = 0u64;
    for k in 0..10_000u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 2), "key {k}");
        verified += 1;
    }
    println!("verified {verified}/10000 keys match generation {}'s state", rec.gen);
    // And the store continues normally, including committing new generations
    // (the damaged generation's number is never reused).
    session.upsert(&777_777, &1).expect("recovered store is writable");
    assert_eq!(read_blocking(&session, 777_777), Some(1));
    drop(session);
    let g = mgr.checkpoint_store(&store).expect("post-recovery commit");
    assert!(g > victim.gen);
    println!("post-recovery commit produced generation {g}");
    println!("checkpoint_recover OK");
}
