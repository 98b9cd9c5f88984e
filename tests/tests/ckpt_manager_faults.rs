//! In-checkpoint crash sweeps and manifest-arbitration fault tests for the
//! atomic multi-generation checkpoint commit (`CheckpointManager`).
//!
//! The tentpole sweeps arm a crash at **every device write and every flush
//! barrier issued inside `checkpoint_store()` itself** — log page flushes,
//! the generation blob write, and the manifest slot write all share one
//! `FaultDomain`, so the sweep walks the interleaved stream. Each swept
//! point must recover to the in-flight generation iff its commit landed,
//! else to the previous generation, matching the oracle snapshot exactly.
//!
//! Sharded via `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS` like the
//! other fault sweeps; failures print their seed and script for replay.

use faster_core::checkpoint::{CheckpointData, CheckpointError};
use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager, MANIFEST_SLOT_SIZE};
use faster_core::{CountStore, FasterKv};
use faster_integration_tests::fault_harness::{
    dry_run, fault_seed_range, harness_cfg, sweep, Axis, CrashPoint, Mix, Step, KEYSPACE,
    PHASE1B_OPS, PHASE1_OPS,
};
use faster_integration_tests::read_blocking as session_read;
use faster_storage::{Device, MemDevice};
use faster_util::Address;
use proptest::prelude::*;
use std::sync::Arc;

/// A baseline generation (the fallback target), fresh traffic so the swept
/// checkpoint has dirty pages to flush, then the swept `checkpoint_store()`.
fn script(point: Option<CrashPoint>) -> Vec<Step> {
    vec![
        Step::Ops { n: PHASE1_OPS, mix: Mix::All },
        Step::Checkpoint,
        Step::Ops { n: PHASE1B_OPS, mix: Mix::All },
        Step::Arm(point),
        Step::Checkpoint,
    ]
}

/// Tentpole sweep, write axis: crash at every device write issued inside
/// `checkpoint_store()`, cycling the torn-write model so each seed sees
/// nothing-persisted, byte-torn, and sector-torn crash points.
#[test]
fn in_checkpoint_write_crash_sweep() {
    let mut cases = 0u64;
    let mut fell_back = 0u64;
    for seed in fault_seed_range(4) {
        let dry = dry_run(seed, false, true, script);
        assert!(dry.commit_ok && dry.recovered_gen == 2 && dry.fallbacks == 0);
        assert!(
            dry.writes >= 2,
            "seed {seed}: checkpoint issued only {} writes (blob + manifest missing?)",
            dry.writes
        );
        let axis = Axis::Writes { torn_bytes: 4600 };
        for (point, report) in sweep(seed, false, axis, 0..dry.writes, script) {
            assert!(report.crashed, "seed {seed}: {point:?} of {} never fired", dry.writes);
            cases += 1;
            fell_back += (report.recovered_gen == 1) as u64;
        }
    }
    // Crashing before the manifest write lands must fall back; a torn-but-
    // fully-persisted manifest may still recover the in-flight generation
    // (which needs a full-prefix tear of the final manifest write, so the
    // write axis may never see it).
    assert!(cases >= 8, "write sweep ran only {cases} cases");
    assert!(fell_back > 0, "no swept write point exercised the fallback path");
}

/// Tentpole sweep, flush axis: crash at every flush barrier issued inside
/// `checkpoint_store()` — the fsync edges of the commit protocol. A crash
/// at a barrier makes that barrier return `Err` (its durability is
/// unknown), so **no armed flush point may ever ack the commit** — the
/// fsync-error-propagation regression this sweep pins down. The manifest
/// may still have persisted (writes before the barrier completed); recovery
/// arbitration then finds the in-flight generation even though the commit
/// was refused, which the one-directional contract allows.
#[test]
fn in_checkpoint_flush_crash_sweep() {
    let mut saw_inflight_recovered = false;
    let mut saw_fallback = false;
    for seed in fault_seed_range(4) {
        let dry = dry_run(seed, false, false, script);
        assert!(
            dry.flushes >= 3,
            "seed {seed}: expected log + blob + manifest barriers, saw {}",
            dry.flushes
        );
        for (point, report) in sweep(seed, false, Axis::Flushes, 0..dry.flushes, script) {
            assert!(report.crashed, "seed {seed}: {point:?} never fired");
            assert!(
                !report.commit_ok,
                "seed {seed}: {point:?} crashed (barrier returned Err) yet \
                 checkpoint_store acked the commit"
            );
            if report.recovered_gen == 2 {
                saw_inflight_recovered = true;
            } else {
                saw_fallback = true;
            }
        }
    }
    // The barrier after the manifest write: the slot is durable, so
    // arbitration recovers the in-flight generation despite the refused
    // ack. Earlier barriers must fall back.
    assert!(
        saw_inflight_recovered,
        "no flush point left a persisted-but-unacked manifest for arbitration"
    );
    assert!(saw_fallback, "no flush point exercised the fallback path");
}

/// Fallback chain deeper than one step: with the two newest generation
/// blobs corrupted on the device, recovery walks back two generations and
/// the store matches that generation's oracle exactly.
#[test]
fn fallback_chain_walks_multiple_generations() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, log_dev.clone());
    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());

    for round in 0..3u64 {
        {
            let session = store.start_session();
            for k in 0..KEYSPACE {
                let _ = session.upsert(&k, &(k * 100 + round + 1));
            }
            session.complete_pending(true);
        }
        mgr.checkpoint_store(&store).expect("fault-free commit");
    }
    let gens = mgr.generations();
    assert_eq!(gens.len(), 3);
    // Corrupt the two newest blobs in place.
    for g in &gens[1..] {
        let mut blob = ckpt_dev.read_blocking(g.blob_offset, g.blob_len as usize).unwrap();
        let at = (g.gen as usize * 13) % blob.len();
        blob[at] ^= 0x5A;
        ckpt_dev.write_blocking(g.blob_offset, blob).unwrap();
    }
    drop(store);
    log_dev.flush_barrier().unwrap();

    let (_mgr2, rec) = CheckpointManager::recover_latest(ckpt_dev, CheckpointConfig::default())
        .expect("generation 1 must survive");
    let recovered: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(harness_cfg(), CountStore, log_dev, &rec.data);
    assert_eq!(rec.gen, gens[0].gen);
    assert_eq!(rec.fallbacks(), 2);
    for (skipped_gen, err) in &rec.skipped {
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch),
            "gen {skipped_gen} skipped for the wrong reason: {err:?}"
        );
    }
    let session = recovered.start_session();
    for k in 0..KEYSPACE {
        // Round 0's values: k * 100 + 1.
        assert_eq!(session_read(&session, k), Some(k * 100 + 1), "key {k} at fallback depth 2");
    }
}

/// GC satellite: the truncation frontier can never climb above the `begin`
/// of a retained generation, and a commit whose retention drops the oldest
/// generation releases the clamp.
#[test]
fn gc_clamp_follows_retention() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, log_dev.clone());
    let mgr = CheckpointManager::new(ckpt_dev, CheckpointConfig { retain: 2 });

    // Two generations with log growth (and a begin shift) between them.
    {
        let session = store.start_session();
        for k in 0..KEYSPACE {
            let _ = session.upsert(&k, &(k + 1));
        }
        session.complete_pending(true);
    }
    mgr.checkpoint_store(&store).unwrap();
    {
        let session = store.start_session();
        for k in 0..4000u64 {
            let _ = session.upsert(&(KEYSPACE + k), &k);
        }
        session.complete_pending(true);
    }
    mgr.checkpoint_store(&store).unwrap();

    let gens = mgr.generations();
    let oldest_begin = gens.iter().map(|g| g.begin).min().unwrap();
    assert_eq!(mgr.safe_truncation_bound(), Some(oldest_begin));

    // A truncation request far above the bound is clamped to it...
    let tail = store.log().tail_address();
    let truncated = mgr.gc_truncate(&store, tail);
    assert_eq!(truncated, oldest_begin);
    assert!(store.log().begin_address() <= oldest_begin);

    // ...and once a third commit drops the oldest generation (retain 2),
    // the clamp rises to the new oldest generation's begin.
    {
        let session = store.start_session();
        for k in 0..4000u64 {
            let _ = session.upsert(&(KEYSPACE + k), &(k + 1));
        }
        session.complete_pending(true);
    }
    mgr.checkpoint_store(&store).unwrap();
    let retained = mgr.generations();
    assert_eq!(
        retained.iter().map(|g| g.gen).collect::<Vec<_>>(),
        vec![gens[1].gen, gens[1].gen + 1],
        "the commit's retention must drop the oldest generation"
    );
    let new_bound = mgr.safe_truncation_bound().unwrap();
    assert_eq!(new_bound, retained[0].begin);
    assert!(new_bound >= oldest_begin);
    let tail = store.log().tail_address();
    let truncated = mgr.gc_truncate(&store, tail);
    assert_eq!(truncated, new_bound);

    // The retained generations stay fully loadable after the truncation.
    for g in &retained {
        assert!(mgr.load_generation(g.gen).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Satellite: manifest arbitration under arbitrary corruption. Three
    /// generations are committed (slot layout: slot 1 holds seq 3 listing
    /// gens {1,2,3}, slot 0 holds seq 2 listing {1,2}); the test then
    /// corrupts any subset of {slot 0, slot 1, blob 1, blob 2, blob 3} with
    /// seeded byte flips inside the checksummed region. Recovery must never
    /// panic and must select exactly the generation an independent
    /// walk of the corruption mask predicts (or `NoValidGeneration`).
    #[test]
    fn manifest_arbitration_survives_arbitrary_corruption(
        mask in 0u32..32,
        flip_seed in any::<u64>(),
    ) {
        let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
        let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
        let mut datas = Vec::new();
        for i in 1..=3u64 {
            let data = CheckpointData {
                t1: Address::new(64 * i),
                t2: Address::new(64 * i + 32),
                begin: Address::new(64),
                index: faster_index::IndexCheckpoint {
                    k_bits: 8,
                    tag_bits: 15,
                    entries: vec![(i, i * 7), (i + 1, i * 11)],
                },
            };
            mgr.commit(&data, 0).unwrap();
            datas.push(data);
        }
        let gens = mgr.generations();
        prop_assert_eq!(gens.len(), 3);
        drop(mgr);

        // mask bits: 0 -> slot 0, 1 -> slot 1, 2..=4 -> blobs of gen 1..=3.
        let corrupt_slot0 = mask & 1 != 0;
        let corrupt_slot1 = mask & 2 != 0;
        let corrupt_blob = [mask & 4 != 0, mask & 8 != 0, mask & 16 != 0];
        for slot in 0..2u64 {
            if (slot == 0 && corrupt_slot0) || (slot == 1 && corrupt_slot1) {
                let base = slot * MANIFEST_SLOT_SIZE;
                let mut bytes = ckpt_dev.read_blocking(base, MANIFEST_SLOT_SIZE as usize).unwrap();
                // Flip inside the checksummed body (count on disk: slot 1
                // has 3 records, slot 0 has 2), never the zero padding.
                let count = if slot == 1 { 3 } else { 2 };
                let body = 24 + count * 64 + 8;
                let at = (faster_util::hash_u64(flip_seed ^ slot) % body as u64) as usize;
                bytes[at] ^= 0x5A;
                ckpt_dev.write_blocking(base, bytes).unwrap();
            }
        }
        for (i, g) in gens.iter().enumerate() {
            if corrupt_blob[i] {
                let mut blob = ckpt_dev.read_blocking(g.blob_offset, g.blob_len as usize).unwrap();
                let at = (faster_util::hash_u64(flip_seed ^ g.gen) % g.blob_len) as usize;
                blob[at] ^= 0x5A;
                ckpt_dev.write_blocking(g.blob_offset, blob).unwrap();
            }
        }

        // Independent expectation from the corruption mask alone: the
        // newest slot that survives fixes the candidate list; the newest
        // candidate with a clean blob wins.
        let candidates: &[usize] = if !corrupt_slot1 {
            &[2, 1, 0] // gens 3, 2, 1
        } else if !corrupt_slot0 {
            &[1, 0] // gens 2, 1
        } else {
            &[]
        };
        let expected = candidates.iter().copied().find(|&i| !corrupt_blob[i]);

        match (
            CheckpointManager::recover_latest(ckpt_dev, CheckpointConfig::default()),
            expected,
        ) {
            (Ok((_mgr, rec)), Some(i)) => {
                prop_assert_eq!(rec.gen, gens[i].gen, "arbitration picked the wrong generation");
                prop_assert_eq!(&rec.data, &datas[i]);
                // Everything newer than the winner was skipped with a reason.
                prop_assert_eq!(rec.fallbacks(), candidates.iter().position(|&c| c == i).unwrap());
            }
            (Err(CheckpointError::NoValidGeneration), None) => {}
            (got, want) => panic!(
                "mask {mask:#07b}: expected {want:?}, arbitration returned {:?}",
                got.map(|(_m, rec)| (rec.gen, rec.fallbacks()))
            ),
        }
    }
}
