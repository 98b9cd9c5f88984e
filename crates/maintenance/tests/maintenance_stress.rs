//! Seeded cooperative stress schedules for every maintenance actuator racing
//! foreground traffic (ISSUE 8 satellite): index grow during concurrent
//! upserts, policy compaction against the checkpoint manager's GC clamp,
//! policy checkpoints (and the WAL truncation they perform) during durable
//! appends, and read-cache resizes under a shifting read mix.
//!
//! Scheduling discipline: every foreground worker uses a **per-step
//! session** — create, run a handful of ops, drop, all inside one virtual
//! thread step. That guarantees no idle epoch guard survives into any other
//! thread's step, so an actuator step (grow/compact/checkpoint inside
//! [`run_tick`]) can always drive its epoch triggers to completion without a
//! cooperative deadlock. The maintenance virtual thread runs exactly the
//! service loop body (`run_tick`) per step, so the interleavings explored
//! are the real service races at protocol-step granularity, replayable from
//! the seed.

use faster_core::ckpt_manager::recover_store_with_wal;
use faster_core::maintenance::{run_tick, MaintenanceStats, Policy, PolicyConfig};
use faster_core::{
    CheckpointConfig, CheckpointManager, CountStore, FasterKv, FasterKvConfig, OpError, Outcome,
    Session,
};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_storage::MemDevice;
use faster_stress::{seed_range_from_env, Scheduler, Step, VThread};
use faster_util::XorShift64;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// A policy configuration with every trigger disabled; each schedule enables
/// (and sharpens) exactly the decision it stresses.
fn quiet() -> PolicyConfig {
    PolicyConfig {
        min_probe_samples: u64::MAX,
        compact_min_bytes: u64::MAX,
        rc_min_samples: u64::MAX,
        ckpt_growth_bytes: u64::MAX,
        ..PolicyConfig::default()
    }
}

fn read_blocking(session: &Session<u64, u64, CountStore>, key: u64) -> Option<u64> {
    match session.read(&key, &0) {
        Ok(Outcome::Value(v)) => Some(v),
        Err(OpError::NotFound) => None,
        Err(OpError::Pending(id)) => {
            for c in session.complete_pending(true) {
                if c.id != id {
                    continue;
                }
                return match c.result {
                    Ok(Outcome::Value(v)) => Some(v),
                    Err(OpError::NotFound) => None,
                    other => panic!("pending read {id} failed: {other:?}"),
                };
            }
            panic!("pending read {id} never completed")
        }
        other => panic!("read of {key} refused: {other:?}"),
    }
}

/// Schedule A: the grow actuator racing concurrent upserts. Three writers
/// hammer a deliberately undersized index (k=6 for ~6K keys) while the
/// maintenance thread ticks the real policy; the probe-length signal must
/// fire, the sessionless grow must complete mid-traffic, and every committed
/// key must stay readable through however many migrations interleave.
fn grow_during_upserts_case(seed: u64) {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 6, tag_bits: 15, max_resize_chunks: 8 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 6, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    let acts = store.maintenance_actuators(None);
    let stats = MaintenanceStats::default();
    let committed: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
    let workers_done = Cell::new(0u32);

    let report = {
        let mut threads: Vec<VThread<'_>> = Vec::new();
        for w in 0..3u64 {
            let store = &store;
            let committed = &committed;
            let workers_done = &workers_done;
            let stats = &stats;
            let mut rng = XorShift64::new(seed ^ (w + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut steps = 0u32;
            let mut counted = false;
            threads.push(Box::new(move || {
                // Keep feeding probes until the policy has grown at least
                // once (bounded), so the probe window is never starved by an
                // unlucky schedule.
                if steps >= 300 || (steps >= 48 && stats.grows.load(Relaxed) >= 1) {
                    if !counted {
                        counted = true;
                        workers_done.set(workers_done.get() + 1);
                    }
                    return Step::Done;
                }
                steps += 1;
                let session = store.start_session();
                for _ in 0..16 {
                    let key = w * 10_000 + rng.next_below(2048);
                    let value = rng.next_u64();
                    session.upsert(&key, &value).expect("writable");
                    committed.borrow_mut().insert(key, value);
                }
                Step::Progress
            }));
        }
        {
            let acts = acts.clone();
            let stats = &stats;
            let workers_done = &workers_done;
            let mut policy = Policy::new(PolicyConfig {
                grow_probe_hi: 1.3,
                shrink_probe_lo: 1.05,
                min_probe_samples: 32,
                min_k_bits: 4,
                max_k_bits: 12,
                resize_cooldown_ticks: 1,
                ..quiet()
            });
            let mut ticks = 0u32;
            threads.push(Box::new(move || {
                if ticks >= 500 || (workers_done.get() == 3 && stats.grows.load(Relaxed) >= 1) {
                    return Step::Done;
                }
                ticks += 1;
                run_tick(&mut policy, &*acts, stats);
                Step::Progress
            }));
        }
        Scheduler::from_seed(seed).run(&mut threads, 20_000)
    };

    assert!(!report.starved(), "seed {seed}: schedule starved ({:?})", report.outcome);
    assert!(stats.grows.load(Relaxed) >= 1, "seed {seed}: policy never grew the index");
    assert_eq!(stats.resize_failures.load(Relaxed), 0, "seed {seed}: resize failed");
    assert!(
        store.index().k_bits() > 6,
        "seed {seed}: index still at k=6 after {} grows",
        stats.grows.load(Relaxed)
    );
    let session = store.start_session();
    for (key, value) in committed.borrow().iter() {
        assert_eq!(
            read_blocking(&session, *key),
            Some(*value),
            "seed {seed}: key {key} lost across grow"
        );
    }
}

#[test]
fn grow_actuator_races_concurrent_upserts() {
    for seed in seed_range_from_env(4) {
        grow_during_upserts_case(seed);
    }
}

/// Schedule B: policy compaction against the checkpoint manager's GC clamp
/// (PR 4). The first compaction runs unclamped (no generation retained yet),
/// truncating real dead space; the checkpointer then starts committing
/// generations, and every later compaction is clamped so the begin address
/// can never pass the oldest retained generation's begin — asserted after
/// every tick, through every interleaving.
fn compaction_vs_gc_clamp_case(seed: u64) {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    let mgr = Arc::new(CheckpointManager::new(MemDevice::new(1), CheckpointConfig::default()));
    let acts = store.maintenance_actuators(Some(mgr.clone()));
    let stats = MaintenanceStats::default();
    // key -> Some(value) (live) or None (deleted).
    let oracle: RefCell<HashMap<u64, Option<u64>>> = RefCell::new(HashMap::new());
    let workers_done = Cell::new(0u32);
    let ckpts_done = Cell::new(false);

    let report = {
        let mut threads: Vec<VThread<'_>> = Vec::new();
        for w in 0..2u64 {
            let store = &store;
            let oracle = &oracle;
            let workers_done = &workers_done;
            let stats = &stats;
            let mut rng = XorShift64::new(seed ^ (w + 11).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let mut steps = 0u32;
            let mut counted = false;
            threads.push(Box::new(move || {
                // Keep creating dead space until the re-armed (now clamped)
                // follow-up compaction has fired too (bounded).
                if steps >= 300 || (steps >= 70 && stats.compactions.load(Relaxed) >= 2) {
                    if !counted {
                        counted = true;
                        workers_done.set(workers_done.get() + 1);
                    }
                    return Step::Done;
                }
                steps += 1;
                let session = store.start_session();
                for _ in 0..6 {
                    let key = rng.next_below(96);
                    if rng.next_below(8) == 0 {
                        session.delete(&key).expect("writable");
                        oracle.borrow_mut().insert(key, None);
                    } else {
                        let value = rng.next_u64();
                        session.upsert(&key, &value).expect("writable");
                        oracle.borrow_mut().insert(key, Some(value));
                    }
                }
                Step::Progress
            }));
        }
        {
            // The checkpointer: waits for the first (unclamped) compaction,
            // then commits generations that pin the begin address.
            let store = &store;
            let mgr = mgr.clone();
            let stats = &stats;
            let ckpts_done = &ckpts_done;
            let mut done_count = 0u32;
            threads.push(Box::new(move || {
                if stats.compactions.load(Relaxed) == 0 {
                    return Step::Stalled;
                }
                mgr.checkpoint_store(store).expect("checkpoint");
                done_count += 1;
                if done_count >= 5 {
                    ckpts_done.set(true);
                    return Step::Done;
                }
                Step::Progress
            }));
        }
        {
            let acts = acts.clone();
            let store = &store;
            let mgr = mgr.clone();
            let stats = &stats;
            let workers_done = &workers_done;
            let ckpts_done = &ckpts_done;
            let mut policy = Policy::new(PolicyConfig {
                compact_dead_ratio_hi: 0.15,
                compact_resume_ratio: 0.08,
                compact_min_bytes: 256,
                compact_cooldown_ticks: 1,
                ..quiet()
            });
            let mut ticks = 0u32;
            threads.push(Box::new(move || {
                if ticks >= 500
                    || (workers_done.get() == 2
                        && ckpts_done.get()
                        && stats.compactions.load(Relaxed) >= 2)
                {
                    return Step::Done;
                }
                ticks += 1;
                run_tick(&mut policy, &*acts, stats);
                if std::env::var_os("MAINT_DBG").is_some() && ticks.is_multiple_of(25) {
                    let m = store.metrics();
                    eprintln!(
                        "tick {ticks}: dead={} trunc={} size={} ratio={:.3} sro={} begin={} compactions={}",
                        m.hlog.dead_bytes,
                        m.hlog.bytes_truncated,
                        m.hlog.log_size(),
                        m.hlog.dead_space() as f64 / m.hlog.log_size().max(1) as f64,
                        m.hlog.safe_read_only,
                        m.hlog.begin,
                        stats.compactions.load(Relaxed)
                    );
                }
                // The PR 4 invariant, re-checked after every actuator round:
                // no compaction may truncate past a retained generation.
                if let Some(bound) = mgr.safe_truncation_bound() {
                    assert!(
                        store.log().begin_address() <= bound,
                        "seed {seed}: begin {:?} passed GC clamp {bound:?}",
                        store.log().begin_address()
                    );
                }
                Step::Progress
            }));
        }
        Scheduler::from_seed(seed).run(&mut threads, 20_000)
    };

    assert!(!report.starved(), "seed {seed}: schedule starved ({:?})", report.outcome);
    assert!(
        stats.compactions.load(Relaxed) >= 2,
        "seed {seed}: expected a clamped follow-up compaction, got {}",
        stats.compactions.load(Relaxed)
    );
    assert!(stats.records_rolled.load(Relaxed) >= 1, "seed {seed}: nothing rolled to tail");
    assert!(store.log().begin_address().raw() > 0, "seed {seed}: compaction never truncated");
    if let Some(bound) = mgr.safe_truncation_bound() {
        assert!(store.log().begin_address() <= bound, "seed {seed}: final clamp violated");
    }
    let session = store.start_session();
    for (key, expect) in oracle.borrow().iter() {
        assert_eq!(
            read_blocking(&session, *key),
            *expect,
            "seed {seed}: key {key} wrong after compaction"
        );
    }
}

#[test]
fn compaction_actuator_respects_gc_clamp() {
    for seed in seed_range_from_env(4) {
        compaction_vs_gc_clamp_case(seed);
    }
}

/// Schedule C: the checkpoint-cadence actuator firing while foreground
/// sessions append to (and wait on) the WAL — each policy checkpoint also
/// truncates the WAL below the retained generation, so this races WAL
/// truncation against group-committed appends. Afterwards the store is
/// recovered from the surviving devices and must equal the oracle exactly.
fn checkpoint_during_wal_traffic_case(seed: u64) {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 6, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16)
        .with_wal(faster_wal::WalConfig {
            batch_window: Duration::ZERO,
            segment_size: 4096,
        });
    let ckpt_cfg = CheckpointConfig { retain: 1 };
    let log_dev = MemDevice::new(2);
    let ckpt_dev = MemDevice::new(1);
    let wal_dev = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(cfg, CountStore, log_dev.clone(), wal_dev.clone());
    let mgr = Arc::new(CheckpointManager::new(ckpt_dev.clone(), ckpt_cfg));
    let acts = store.maintenance_actuators(Some(mgr.clone()));
    let stats = MaintenanceStats::default();
    let oracle: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
    let workers_done = Cell::new(0u32);

    let report = {
        let mut threads: Vec<VThread<'_>> = Vec::new();
        for w in 0..2u64 {
            let store = &store;
            let oracle = &oracle;
            let workers_done = &workers_done;
            let stats = &stats;
            let mut rng = XorShift64::new(seed ^ (w + 29).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut steps = 0u32;
            let mut counted = false;
            threads.push(Box::new(move || {
                // Keep generating WAL growth until at least two policy
                // checkpoints have truncated behind us (bounded).
                if steps >= 200 || (steps >= 40 && stats.checkpoints.load(Relaxed) >= 2) {
                    if !counted {
                        counted = true;
                        workers_done.set(workers_done.get() + 1);
                    }
                    return Step::Done;
                }
                steps += 1;
                let session = store.start_session();
                for _ in 0..4 {
                    let key = w * 1_000 + rng.next_below(64);
                    let value = rng.next_u64();
                    session.upsert(&key, &value).expect("writable");
                    oracle.borrow_mut().insert(key, value);
                }
                // Only durable (group-committed) state enters the oracle.
                session.wait_wal_durable().expect("wal durability");
                Step::Progress
            }));
        }
        {
            let acts = acts.clone();
            let stats = &stats;
            let workers_done = &workers_done;
            let mut policy = Policy::new(PolicyConfig {
                ckpt_growth_bytes: 1,
                ckpt_min_interval_ticks: 1,
                ..quiet()
            });
            let mut ticks = 0u32;
            threads.push(Box::new(move || {
                if ticks >= 500 || (workers_done.get() == 2 && stats.checkpoints.load(Relaxed) >= 2)
                {
                    return Step::Done;
                }
                ticks += 1;
                run_tick(&mut policy, &*acts, stats);
                Step::Progress
            }));
        }
        Scheduler::from_seed(seed).run(&mut threads, 20_000)
    };

    assert!(!report.starved(), "seed {seed}: schedule starved ({:?})", report.outcome);
    assert!(
        stats.checkpoints.load(Relaxed) >= 2,
        "seed {seed}: policy never checkpointed under WAL traffic"
    );
    assert_eq!(stats.checkpoint_failures.load(Relaxed), 0, "seed {seed}: checkpoint failed");

    // Clean shutdown, then recover from the surviving devices: checkpoint
    // arbitration + WAL replay must reproduce the oracle exactly.
    drop(acts);
    drop(store);
    let recovered = recover_store_with_wal::<u64, u64, CountStore>(
        cfg, CountStore, log_dev, ckpt_dev, wal_dev, ckpt_cfg,
    )
    .expect("recovery after maintenance checkpoints");
    assert!(recovered.generation.is_some(), "seed {seed}: no generation recovered");
    let session = recovered.store.start_session();
    for (key, value) in oracle.borrow().iter() {
        assert_eq!(
            read_blocking(&session, *key),
            Some(*value),
            "seed {seed}: durable key {key} lost across recovery"
        );
    }
    assert_eq!(read_blocking(&session, 999_999), None, "seed {seed}: phantom key");
}

#[test]
fn checkpoint_actuator_races_wal_truncation() {
    for seed in seed_range_from_env(4) {
        checkpoint_during_wal_traffic_case(seed);
    }
}

/// Schedule D: the read-cache residency actuator under a shifting read mix.
/// A uniform scan over a cold keyspace drives the hit rate under the lower
/// band (policy shrinks the cache, evicting concurrently with promotions);
/// the workload then collapses onto a hot set, the hit rate crosses the
/// upper band, and the policy grows it back — all while readers must keep
/// seeing correct values.
fn read_cache_resize_case(seed: u64) {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16)
        .with_read_cache(HLogConfig {
            page_bits: 10,
            buffer_pages: 8,
            mutable_pages: 4,
            io_threads: 1,
        });
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    const KEYS: u64 = 4096;
    {
        let session = store.start_session();
        for k in 0..KEYS {
            session.upsert(&k, &(k + 7)).expect("writable");
        }
        store.log().flush_barrier().unwrap();
    }
    let acts = store.maintenance_actuators(None);
    let stats = MaintenanceStats::default();
    let workers_done = Cell::new(0u32);
    let saw_shrink = Cell::new(false);
    let saw_grow = Cell::new(false);

    let report = {
        let mut threads: Vec<VThread<'_>> = Vec::new();
        for w in 0..2u64 {
            let store = &store;
            let workers_done = &workers_done;
            let saw_grow = &saw_grow;
            let mut rng = XorShift64::new(seed ^ (w + 53).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let mut steps = 0u32;
            let mut counted = false;
            threads.push(Box::new(move || {
                if steps >= 250 || (steps >= 50 && saw_grow.get()) {
                    if !counted {
                        counted = true;
                        workers_done.set(workers_done.get() + 1);
                    }
                    return Step::Done;
                }
                steps += 1;
                let session = store.start_session();
                for _ in 0..16 {
                    // Phase 1: uniform cold scan (hit rate ~6%). Phase 2:
                    // an 8-key hot set (hit rate ~1 once promoted).
                    let key =
                        if steps <= 25 { rng.next_below(KEYS) } else { rng.next_below(8) };
                    assert_eq!(
                        read_blocking(&session, key),
                        Some(key + 7),
                        "seed {seed}: wrong value under rc resize"
                    );
                }
                Step::Progress
            }));
        }
        {
            let acts = acts.clone();
            let store = &store;
            let stats = &stats;
            let workers_done = &workers_done;
            let saw_shrink = &saw_shrink;
            let saw_grow = &saw_grow;
            let mut policy = Policy::new(PolicyConfig {
                rc_hit_lo: 0.2,
                rc_hit_hi: 0.6,
                rc_min_samples: 24,
                rc_cooldown_ticks: 1,
                ..quiet()
            });
            let mut last_active = store.read_cache_log().unwrap().active_pages();
            let mut ticks = 0u32;
            threads.push(Box::new(move || {
                if ticks >= 600 || (workers_done.get() == 2 && saw_shrink.get() && saw_grow.get())
                {
                    return Step::Done;
                }
                ticks += 1;
                run_tick(&mut policy, &*acts, stats);
                let active = store.read_cache_log().unwrap().active_pages();
                if active < last_active {
                    saw_shrink.set(true);
                }
                if active > last_active {
                    saw_grow.set(true);
                }
                last_active = active;
                Step::Progress
            }));
        }
        Scheduler::from_seed(seed).run(&mut threads, 30_000)
    };

    assert!(!report.starved(), "seed {seed}: schedule starved ({:?})", report.outcome);
    assert!(saw_shrink.get(), "seed {seed}: cold phase never shrank the read cache");
    assert!(saw_grow.get(), "seed {seed}: hot phase never grew the read cache back");
    assert!(stats.rc_resizes.load(Relaxed) >= 2, "seed {seed}: fewer than two rc resizes");
    let active = store.read_cache_log().unwrap().active_pages();
    assert!((2..=8).contains(&active), "seed {seed}: rc residency {active} out of bounds");
}

#[test]
fn read_cache_actuator_follows_hit_rate() {
    for seed in seed_range_from_env(4) {
        read_cache_resize_case(seed);
    }
}
