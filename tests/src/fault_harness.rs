//! Crash/recovery fault-injection harness.
//!
//! Drives an oracle-tracked workload against a [`FaultDevice`]-wrapped
//! in-memory device, takes a checkpoint, crashes the device at a scripted
//! write sequence number (optionally tearing the crash-point write), then
//! recovers from the checkpoint over the surviving bytes and checks the
//! CPR-style invariants:
//!
//! 1. every operation acknowledged before `checkpoint()` returned is
//!    readable post-recovery with exactly the oracle's value;
//! 2. the recovered state is a consistent prefix — keys never written (or
//!    only written after the checkpoint) are absent, and no key serves a
//!    torn or stale value;
//! 3. recovery itself never panics or loops, and the recovered store
//!    accepts new traffic.
//!
//! The sweep is seeded via `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS`
//! (mirroring the stress crate's `FASTER_STRESS_*` conventions) so CI shards
//! explore disjoint schedules while any single failure replays from its
//! printed `(seed, crash_after)` pair.

use faster_core::checkpoint::CheckpointData;
use faster_core::ckpt_manager::{self, CheckpointConfig, CheckpointManager};
use faster_core::maintenance::{run_tick, MaintenanceStats, Policy, PolicyConfig};
use faster_core::{CountStore, FasterKv, FasterKvConfig, OpError, Session};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_storage::{FaultDevice, FaultDomain, MemDevice, TornWrite};
use faster_util::{Address, XorShift64};
use std::collections::HashMap;

/// Keys the seeded workload draws from. Small enough that most keys see
/// several updates per run, large enough to span many hash buckets.
pub const KEYSPACE: u64 = 128;

/// Operations issued before the checkpoint (builds the durable prefix).
const PHASE1_OPS: u64 = 300;

/// Upper bound on post-checkpoint operations: enough to trigger several
/// page flushes (and therefore reach any swept crash point), bounded so a
/// crashed device — whose frozen `flushed_until` eventually wedges
/// `allocate()` — is never asked for more than a buffer's worth of tail.
const PHASE2_OPS_MAX: u64 = 3000;

/// Operations issued *after* the crash fires, exercising the refuse-all
/// path without outrunning the circular buffer.
const POST_CRASH_OPS: u64 = 48;

/// The seed range for this process: `FASTER_FAULT_SEED_BASE ..
/// FASTER_FAULT_SEED_BASE + FASTER_FAULT_SEEDS`, defaulting to
/// `0..default_count`.
pub fn fault_seed_range(default_count: u64) -> std::ops::Range<u64> {
    let base = std::env::var("FASTER_FAULT_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let count = std::env::var("FASTER_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_count);
    base..base + count
}

/// Small pages so the swept crash points land inside real page-flush
/// traffic: 1 KiB pages hold ~42 `<u64, u64>` records, so a few hundred
/// operations cross several page boundaries.
pub fn harness_cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 6, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(32)
}

/// What a single crash/recovery run observed, for sweep-level assertions.
#[derive(Debug)]
pub struct CrashRunReport {
    /// Whether the armed crash point actually fired (a far crash point may
    /// sit beyond the writes the bounded phase-2 workload generates).
    pub crashed: bool,
    /// Device writes issued by the time the run finished.
    pub writes_issued: u64,
    /// Keys in the oracle snapshot at checkpoint time.
    pub snapshot_keys: usize,
}

/// One seeded workload step against both the store and the oracle.
///
/// Mirrors [`CountStore`] semantics: upsert replaces, RMW adds the input
/// (initializing to the input for absent keys), delete removes.
fn apply_op(
    session: &Session<u64, u64, CountStore>,
    oracle: &mut HashMap<u64, u64>,
    rng: &mut XorShift64,
) {
    let key = rng.next_u64() % KEYSPACE;
    match rng.next_u64() % 8 {
        0..=2 => {
            let value = rng.next_u64() | 1;
            // Mirror only applied ops: a store degraded mid-workload refuses
            // mutations, and the oracle must not drift ahead of it.
            if session.upsert(&key, &value).is_ok() {
                oracle.insert(key, value);
            }
        }
        3..=4 => {
            let input = (rng.next_u64() % 1000) + 1;
            match session.rmw(&key, &input) {
                Ok(_) => *oracle.entry(key).or_insert(0) += input,
                Err(OpError::Pending(_)) => {
                    session.complete_pending(true);
                    *oracle.entry(key).or_insert(0) += input;
                }
                Err(_) => {}
            }
        }
        5 => {
            if session.delete(&key).is_ok() {
                oracle.remove(&key);
            }
        }
        _ => {
            // Churn insert over a wide keyspace: mostly-fresh keys force tail
            // allocation every time, so the log keeps growing (and flushing)
            // even once every hot key sits in the in-place-updatable region.
            // Without this the post-checkpoint tail stalls and the swept
            // crash points would never see flush traffic.
            let churn_key = KEYSPACE + (rng.next_u64() % 4096);
            let value = rng.next_u64() | 1;
            if session.upsert(&churn_key, &value).is_ok() {
                oracle.insert(churn_key, value);
            }
        }
    }
}

/// Runs one full crash/recovery case and checks every invariant, panicking
/// with `(seed, crash_after)` context on any violation.
///
/// `crash_after` counts device writes from the moment the checkpoint
/// completes; `torn` selects how much of the crash-point write survives.
/// When `drop_phase2_write` is set, one post-checkpoint flush before the
/// crash point is silently dropped (acknowledged but never persisted) —
/// recovery must not depend on it, since everything it held was post-t2.
pub fn run_crash_recovery_case(
    seed: u64,
    crash_after: u64,
    torn: TornWrite,
    drop_phase2_write: bool,
) -> CrashRunReport {
    let ctx = format!("seed={seed} crash_after={crash_after} torn={torn:?} drop={drop_phase2_write}");
    let mem = MemDevice::new(2);
    let fault = FaultDevice::wrap(mem);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, fault.clone());
    let mut rng = XorShift64::new(seed);
    let mut oracle: HashMap<u64, u64> = HashMap::new();

    // Phase 1: build the durable prefix. The session must be dropped before
    // checkpoint(): the durability wait is epoch-gated and an idle guard on
    // this thread would stall it.
    {
        let session = store.start_session();
        for _ in 0..PHASE1_OPS {
            apply_op(&session, &mut oracle, &mut rng);
        }
        session.complete_pending(true);
    }
    let ckpt = store
        .checkpoint()
        .unwrap_or_else(|e| panic!("[{ctx}] checkpoint before the crash is armed failed: {e}"));
    let snapshot = oracle.clone();

    // Round-trip the checkpoint through its serialized form, as a real
    // recovery would read it off durable storage.
    let ckpt = CheckpointData::from_bytes(&ckpt.to_bytes())
        .unwrap_or_else(|e| panic!("[{ctx}] serialized checkpoint failed to parse: {e}"));

    // Phase 2: arm the crash, then churn until it fires (plus a bounded
    // post-crash tail proving the store degrades without panicking).
    if drop_phase2_write && crash_after > 0 {
        fault.drop_write_at(rng.next_u64() % crash_after);
    }
    fault.arm_crash(crash_after, torn);
    {
        let session = store.start_session();
        let mut post_crash = 0u64;
        for _ in 0..PHASE2_OPS_MAX {
            apply_op(&session, &mut oracle, &mut rng);
            if fault.crashed() {
                post_crash += 1;
                if post_crash > POST_CRASH_OPS {
                    break;
                }
            }
        }
        // Pending I/O against the crashed device must drain (bounded
        // retries turn persistent failures into `Err(OpError::Io)`),
        // never hang.
        session.complete_pending(true);
    }
    let report = CrashRunReport {
        crashed: fault.crashed(),
        writes_issued: fault.writes_issued(),
        snapshot_keys: snapshot.len(),
    };
    drop(store);

    // Recovery: only the bytes the persistence model admits survive on the
    // inner device. Everything at or past the crash-point write is gone
    // (save the torn prefix), yet the checkpoint promised nothing past t2.
    let survivor = fault.inner();
    let recovered: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(harness_cfg(), CountStore, survivor, &ckpt);
    {
        let session = recovered.start_session();
        // Check the whole hot keyspace (catching both lost acknowledged
        // writes *and* resurrected deletes / leaked post-t2 records) plus
        // every churn key the snapshot promised durable.
        let mut check: Vec<u64> = (0..KEYSPACE).collect();
        check.extend(snapshot.keys().copied().filter(|&k| k >= KEYSPACE));
        for key in check {
            let got = crate::read_blocking(&session, key);
            let want = snapshot.get(&key).copied();
            assert_eq!(
                got, want,
                "[{ctx}] post-recovery key {key}: got {got:?}, oracle snapshot has {want:?}"
            );
        }
        // The recovered store must accept and serve new traffic.
        let probe = KEYSPACE + 7777;
        session.upsert(&probe, &424_242).expect("recovered store must accept writes");
        assert_eq!(
            crate::read_blocking(&session, probe),
            Some(424_242),
            "[{ctx}] recovered store rejected fresh traffic"
        );
    }
    report
}

/// Operations issued between the baseline generation and the crash-swept
/// one, so the in-flight checkpoint has real dirty pages to flush.
const PHASE1B_OPS: u64 = 220;

/// Where inside the swept `checkpoint_store()` call the crash fires.
#[derive(Debug, Clone, Copy)]
pub enum CkptCrashPoint {
    /// Crash at the k-th device write issued after the call starts, counted
    /// across the *interleaved* log + checkpoint device stream (they share a
    /// [`FaultDomain`]), tearing that write per [`TornWrite`].
    Write(u64, TornWrite),
    /// Crash at the j-th flush barrier issued after the call starts.
    Flush(u64),
}

/// What one in-checkpoint crash case observed, for sweep-level bookkeeping.
#[derive(Debug)]
pub struct CkptSweepReport {
    /// Whether the armed crash point fired.
    pub crashed: bool,
    /// Whether `checkpoint_store()` acknowledged the swept generation.
    pub commit_ok: bool,
    /// Generation recovery arbitration selected.
    pub recovered_gen: u64,
    /// Fallback steps recovery took (newer generations skipped).
    pub fallbacks: usize,
    /// Device writes the checkpoint call issued (use a `point = None` dry
    /// run to bound the write sweep — submission order is deterministic
    /// because the harness drives the store single-threaded).
    pub ckpt_writes: u64,
    /// Flush barriers the checkpoint call issued (dry run bounds the flush
    /// sweep the same way).
    pub ckpt_flushes: u64,
}

/// Runs one crash *inside* `checkpoint_store()` and checks the atomic-commit
/// contract end to end:
///
/// 1. a baseline generation commits, then more traffic runs, then a second
///    `checkpoint_store()` is attempted with the crash armed at `point`;
/// 2. recovery (manifest arbitration over the surviving images of both
///    devices) must always succeed — to the in-flight generation if its
///    commit landed, else to the baseline generation;
/// 3. the recovered state must equal the matching oracle snapshot *exactly*
///    (including deletes) over the whole touched keyspace;
/// 4. `Ok` from `checkpoint_store()` one-directionally implies the in-flight
///    generation is the one recovered (an `Err` may still have persisted its
///    manifest — a torn full-prefix write acks failure yet survives);
/// 5. the recovered store accepts fresh traffic, and checkpoint-aware GC
///    stays clamped to the retained chain's oldest `begin`.
pub fn run_in_checkpoint_crash_case(seed: u64, point: Option<CkptCrashPoint>) -> CkptSweepReport {
    let ctx = format!("seed={seed} point={point:?}");
    let domain = FaultDomain::new();
    let log_fault = FaultDevice::wrap_in_domain(MemDevice::new(2), &domain);
    let ckpt_fault = FaultDevice::wrap_in_domain(MemDevice::new(1), &domain);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, log_fault.clone());
    let mgr = CheckpointManager::new(ckpt_fault.clone(), CheckpointConfig::default());
    let mut rng = XorShift64::new(seed);
    let mut oracle: HashMap<u64, u64> = HashMap::new();

    // Baseline generation: committed fault-free, the fallback target.
    {
        let session = store.start_session();
        for _ in 0..PHASE1_OPS {
            apply_op(&session, &mut oracle, &mut rng);
        }
        session.complete_pending(true);
    }
    let gen1 = mgr
        .checkpoint_store(&store)
        .unwrap_or_else(|e| panic!("[{ctx}] baseline generation must commit: {e}"));
    let snap1 = oracle.clone();

    // Fresh traffic so the swept checkpoint has dirty pages to flush.
    {
        let session = store.start_session();
        for _ in 0..PHASE1B_OPS {
            apply_op(&session, &mut oracle, &mut rng);
        }
        session.complete_pending(true);
    }
    let snap2 = oracle.clone();

    // Arm the crash *now*: every write/flush from here on belongs to the
    // checkpoint call being swept.
    let w0 = domain.writes_issued();
    let f0 = domain.flushes_issued();
    match point {
        Some(CkptCrashPoint::Write(k, torn)) => domain.arm_crash(k, torn),
        Some(CkptCrashPoint::Flush(j)) => domain.arm_crash_at_flush(j),
        None => {}
    }
    let attempt = mgr.checkpoint_store(&store);
    let report_writes = domain.writes_issued() - w0;
    let report_flushes = domain.flushes_issued() - f0;
    let crashed = domain.crashed();
    let commit_ok = attempt.is_ok();
    if point.is_none() {
        assert!(commit_ok, "[{ctx}] fault-free checkpoint failed: {:?}", attempt.err());
    }
    drop(store);
    drop(mgr);

    // The inner devices hold exactly the surviving byte images; settle
    // their worker queues before reading them back.
    let log_img = log_fault.inner();
    let ckpt_img = ckpt_fault.inner();
    log_img.flush_barrier().unwrap();
    ckpt_img.flush_barrier().unwrap();

    let (mgr2, rec) = CheckpointManager::recover_latest(ckpt_img, CheckpointConfig::default())
        .unwrap_or_else(|e| panic!("[{ctx}] recovery must always find a generation: {e}"));
    let recovered: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(harness_cfg(), CountStore, log_img, &rec.data);

    // Which oracle snapshot must the store match? The in-flight generation
    // iff its manifest landed, else the baseline — never anything else.
    let snapshot = if rec.gen == gen1 + 1 {
        &snap2
    } else if rec.gen == gen1 {
        &snap1
    } else {
        panic!("[{ctx}] recovered to unexpected generation {} (baseline {gen1})", rec.gen);
    };
    if commit_ok {
        assert_eq!(
            rec.gen,
            gen1 + 1,
            "[{ctx}] checkpoint_store acked Ok but recovery fell back ({} skipped)",
            rec.fallbacks()
        );
    }

    {
        let session = recovered.start_session();
        let mut check: Vec<u64> = (0..KEYSPACE).collect();
        check.extend(snap1.keys().chain(snap2.keys()).copied().filter(|&k| k >= KEYSPACE));
        check.sort_unstable();
        check.dedup();
        for key in check {
            let got = crate::read_blocking(&session, key);
            let want = snapshot.get(&key).copied();
            assert_eq!(
                got, want,
                "[{ctx}] gen {} key {key}: got {got:?}, oracle has {want:?}",
                rec.gen
            );
        }
        let probe = KEYSPACE + 8888;
        session.upsert(&probe, &515_151).expect("recovered store must accept writes");
        assert_eq!(
            crate::read_blocking(&session, probe),
            Some(515_151),
            "[{ctx}] recovered store rejected fresh traffic"
        );
    }

    // GC satellite, exercised under every swept point: truncation through
    // the manager clamps to the retained chain's oldest begin.
    let bound = mgr2
        .safe_truncation_bound()
        .unwrap_or_else(|| panic!("[{ctx}] recovered manager retains no generation"));
    let clamped = mgr2.gc_truncate(&recovered, Address::new(bound.raw() + (1 << 20)));
    assert!(
        clamped <= bound,
        "[{ctx}] gc_truncate escaped the retention clamp: {clamped:?} > {bound:?}"
    );

    CkptSweepReport {
        crashed,
        commit_ok,
        recovered_gen: rec.gen,
        fallbacks: rec.fallbacks(),
        ckpt_writes: report_writes,
        ckpt_flushes: report_flushes,
    }
}

// ====================================================== WAL group commit

/// Ops issued before the mid-run checkpoint in the WAL sweep.
const WAL_PHASE1_OPS: usize = 60;
/// Ops issued after the checkpoint (the WAL-replay suffix).
const WAL_PHASE2_OPS: usize = 60;

/// Shape for the WAL crash sweep: zero batch window (every op forms its own
/// group, so per-op durability waits return promptly) and tiny segments so
/// the workload crosses several segment boundaries.
pub fn wal_harness_cfg() -> FasterKvConfig {
    harness_cfg().with_wal(faster_wal::WalConfig {
        batch_window: std::time::Duration::ZERO,
        segment_size: 4096,
    })
}

/// Where the swept crash fires, counted across the shared fault domain of
/// all three devices (log + checkpoint + WAL) from the start of the run —
/// so the sweep covers every WAL group write, every flush barrier (WAL,
/// checkpoint, and hybrid-log), and every interleaved data write.
#[derive(Debug, Clone, Copy)]
pub enum WalCrashPoint {
    Write(u64, TornWrite),
    Flush(u64),
}

/// What one WAL crash case observed.
#[derive(Debug)]
pub struct WalSweepReport {
    /// Whether the armed crash fired.
    pub crashed: bool,
    /// Ops whose per-op durability wait returned `Ok` (a dense prefix of
    /// issue order — the session stops issuing at the first `Err`).
    pub acked: usize,
    /// Ops applied to the in-memory store (acked or not).
    pub issued: usize,
    /// `checkpoint_store` verdict, `None` if the run died before trying.
    pub commit_ok: Option<bool>,
    /// Which oracle prefix the recovered state matched.
    pub matched_prefix: usize,
    /// WAL records the recovery replayed.
    pub wal_replayed: usize,
    /// Domain-wide writes / flush barriers issued (a `point = None` dry run
    /// bounds the sweep ranges).
    pub writes_issued: u64,
    pub flushes_issued: u64,
}

/// Runs one oracle-tracked WAL crash/recovery case and checks the
/// group-commit durability contract:
///
/// 1. every op whose durability wait was acknowledged survives recovery —
///    the recovered state equals the oracle after `N` ops for some `N`
///    with `acked ≤ N ≤ issued` (an unacked group may persist in full, a
///    torn one is cut at its checksum; an acked one may never be lost);
/// 2. the mid-run checkpoint interleaves correctly with WAL replay: the
///    suffix above the generation's recorded cutoff re-applies on top of
///    the recovered checkpoint image, and WAL truncation after the commit
///    never drops records a retained generation still needs;
/// 3. recovery always succeeds (falling back to an empty store + full WAL
///    replay when no generation ever committed), and the recovered store
///    accepts fresh traffic with a working, appendable WAL.
pub fn run_wal_crash_case(seed: u64, point: Option<WalCrashPoint>) -> WalSweepReport {
    let ctx = format!("seed={seed} point={point:?}");
    let domain = FaultDomain::new();
    let log_fault = FaultDevice::wrap_in_domain(MemDevice::new(2), &domain);
    let ckpt_fault = FaultDevice::wrap_in_domain(MemDevice::new(1), &domain);
    let wal_fault = FaultDevice::wrap_in_domain(MemDevice::new(1), &domain);
    match point {
        Some(WalCrashPoint::Write(k, torn)) => domain.arm_crash(k, torn),
        Some(WalCrashPoint::Flush(j)) => domain.arm_crash_at_flush(j),
        None => {}
    }

    let store: FasterKv<u64, u64, CountStore> = FasterKv::new_with_wal(
        wal_harness_cfg(),
        CountStore,
        log_fault.clone(),
        wal_fault.clone(),
    );
    let mgr = CheckpointManager::new(ckpt_fault.clone(), CheckpointConfig::default());
    let mut rng = XorShift64::new(seed);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    // `states[n]` = oracle after the first `n` ops.
    let mut states: Vec<HashMap<u64, u64>> = vec![oracle.clone()];
    let mut acked = 0usize;
    let mut failed = false;
    let mut commit_ok: Option<bool> = None;

    // Phase 1 → checkpoint → phase 2, stopping at the first un-acked group
    // (the failure is sticky: nothing later can ever become durable).
    {
        let session = store.start_session();
        for _ in 0..WAL_PHASE1_OPS {
            apply_op(&session, &mut oracle, &mut rng);
            states.push(oracle.clone());
            match session.wait_wal_durable() {
                Ok(()) => acked += 1,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
    }
    if !failed {
        commit_ok = Some(mgr.checkpoint_store(&store).is_ok());
        let session = store.start_session();
        for _ in 0..WAL_PHASE2_OPS {
            apply_op(&session, &mut oracle, &mut rng);
            states.push(oracle.clone());
            match session.wait_wal_durable() {
                Ok(()) => acked += 1,
                Err(_) => break,
            }
        }
        session.complete_pending(false);
    }
    let issued = states.len() - 1;
    let crashed = domain.crashed();
    let writes_issued = domain.writes_issued();
    let flushes_issued = domain.flushes_issued();
    if point.is_none() {
        assert!(!crashed && acked == issued, "[{ctx}] fault-free run lost acks");
        assert_eq!(commit_ok, Some(true), "[{ctx}] fault-free checkpoint failed");
    }
    drop(store);
    drop(mgr);

    // Recover over the surviving byte images of all three devices.
    let log_img = log_fault.inner();
    let ckpt_img = ckpt_fault.inner();
    let wal_img = wal_fault.inner();
    log_img.flush_barrier().unwrap();
    ckpt_img.flush_barrier().unwrap();
    wal_img.flush_barrier().unwrap();
    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_img,
        ckpt_img,
        wal_img,
        CheckpointConfig::default(),
    )
    .unwrap_or_else(|e| panic!("[{ctx}] WAL recovery must always succeed: {e}"));

    // The recovered state must be the oracle after N ops, acked ≤ N ≤
    // issued, over every key any prefix ever touched.
    let mut keys: Vec<u64> = (0..KEYSPACE).collect();
    keys.extend(states.last().unwrap().keys().copied().filter(|&k| k >= KEYSPACE));
    keys.sort_unstable();
    keys.dedup();
    let matched_prefix = {
        let session = rec.store.start_session();
        let got: HashMap<u64, Option<u64>> =
            keys.iter().map(|&k| (k, crate::read_blocking(&session, k))).collect();
        (acked..=issued)
            .find(|&n| {
                keys.iter().all(|k| got[k] == states[n].get(k).copied())
            })
            .unwrap_or_else(|| {
                let n = acked;
                let diff: Vec<String> = keys
                    .iter()
                    .filter(|k| got[*k] != states[n].get(*k).copied())
                    .map(|k| {
                        format!("key {k}: got {:?}, acked-oracle {:?}", got[k], states[n].get(k))
                    })
                    .collect();
                panic!(
                    "[{ctx}] recovered state matches no oracle prefix in [{acked}, {issued}] \
                     (acked={acked} issued={issued} replayed={}); vs acked prefix: {diff:?}",
                    rec.wal_replayed
                )
            })
    };

    // The recovered store must accept fresh traffic and ack its durability
    // through the resumed WAL.
    {
        let session = rec.store.start_session();
        let probe = KEYSPACE + 9999;
        session.upsert(&probe, &616_161).expect("recovered store must accept writes");
        session
            .wait_wal_durable()
            .unwrap_or_else(|e| panic!("[{ctx}] resumed WAL refused a fresh group: {e}"));
        assert_eq!(
            crate::read_blocking(&session, probe),
            Some(616_161),
            "[{ctx}] recovered store rejected fresh traffic"
        );
    }

    WalSweepReport {
        crashed,
        acked,
        issued,
        commit_ok,
        matched_prefix,
        wal_replayed: rec.wal_replayed,
        writes_issued,
        flushes_issued,
    }
}

// ================================================ maintenance-window crashes

/// Where inside the swept maintenance window the crash fires, counted (like
/// [`CkptCrashPoint`]) across the interleaved log + checkpoint device stream
/// of the shared [`FaultDomain`] from the moment the `run_tick` loop starts.
#[derive(Debug, Clone, Copy)]
pub enum MaintCrashPoint {
    /// Crash at the k-th device write issued inside the window, torn per
    /// [`TornWrite`]. The window's writes are the compaction roll's page
    /// flushes plus the policy-triggered checkpoint's blob + manifest.
    Write(u64, TornWrite),
    /// Crash at the j-th flush barrier issued inside the window.
    Flush(u64),
}

/// What one maintenance-window crash case observed.
#[derive(Debug)]
pub struct MaintSweepReport {
    /// Whether the armed crash point fired.
    pub crashed: bool,
    /// Whether the policy-triggered checkpoint acknowledged its generation.
    pub commit_ok: bool,
    /// Generation recovery arbitration selected.
    pub recovered_gen: u64,
    /// Fallback steps recovery took.
    pub fallbacks: usize,
    /// Live records the policy-triggered compaction rolled to the tail.
    pub rolled: u64,
    /// Compactions the window fired (≥ 1 on a dry run).
    pub compactions: u64,
    /// Device writes the window issued (`point = None` dry run bounds the
    /// write sweep; the window is driven single-threaded so the schedule is
    /// deterministic — the sweeps double-check with a second dry run).
    pub maint_writes: u64,
    /// Flush barriers the window issued (dry run bounds the flush sweep).
    pub maint_flushes: u64,
}

/// Policy whose compaction and checkpoint arms fire within a couple of
/// ticks of the harness's scripted dead space, with the probe and
/// read-cache arms disabled — the sweep pins exactly the two actuators
/// whose crash behaviour matters for durability.
fn maint_window_policy() -> Policy {
    Policy::new(PolicyConfig {
        compact_dead_ratio_hi: 0.02,
        compact_resume_ratio: 0.01,
        compact_min_bytes: 64,
        compact_cooldown_ticks: 1,
        ckpt_growth_bytes: 1,
        ckpt_min_interval_ticks: 1,
        min_probe_samples: u64::MAX,
        rc_min_samples: u64::MAX,
        ..PolicyConfig::default()
    })
}

/// Runs one crash *inside a maintenance window* — a `run_tick` loop whose
/// policy triggers a roll-to-tail compaction and then a checkpoint against
/// the store, exactly as the background service would — and checks that
/// background maintenance never weakens the atomic-commit contract:
///
/// 1. a baseline generation commits fault-free, more traffic runs (leaving
///    dead space for the policy to see), then the window runs with the
///    crash armed at `point`;
/// 2. throughout the window the store's begin address stays at or below the
///    manager's safe truncation bound — the actuator's roll/truncate split
///    rolls unclamped but never truncates above the retained chain;
/// 3. recovery must always succeed: to a maintenance-committed generation
///    if one landed, else to the baseline — and because the window runs no
///    foreground ops, *every* post-baseline generation equals the same
///    oracle snapshot, which the recovered store must match exactly;
/// 4. an acked maintenance checkpoint one-directionally implies recovery
///    does not fall back to the baseline;
/// 5. the recovered store accepts fresh traffic and checkpoint-aware GC
///    stays clamped.
pub fn run_maintenance_crash_case(seed: u64, point: Option<MaintCrashPoint>) -> MaintSweepReport {
    let ctx = format!("seed={seed} point={point:?}");
    let domain = FaultDomain::new();
    let log_fault = FaultDevice::wrap_in_domain(MemDevice::new(2), &domain);
    let ckpt_fault = FaultDevice::wrap_in_domain(MemDevice::new(1), &domain);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, log_fault.clone());
    let mgr = std::sync::Arc::new(CheckpointManager::new(
        ckpt_fault.clone(),
        CheckpointConfig::default(),
    ));
    let mut rng = XorShift64::new(seed);
    let mut oracle: HashMap<u64, u64> = HashMap::new();

    // Baseline generation: committed fault-free, the fallback target the
    // swept compaction must never orphan.
    {
        let session = store.start_session();
        for _ in 0..PHASE1_OPS {
            apply_op(&session, &mut oracle, &mut rng);
        }
        session.complete_pending(true);
    }
    let gen1 = mgr
        .checkpoint_store(&store)
        .unwrap_or_else(|e| panic!("[{ctx}] baseline generation must commit: {e}"));
    let snap1 = oracle.clone();

    // Churn so the window has dead space to compact and dirty pages to
    // checkpoint; top up (bounded) until some prefix of the log is flushed,
    // since `Compact` only targets below the safe-read-only address.
    {
        let session = store.start_session();
        for _ in 0..PHASE1B_OPS {
            apply_op(&session, &mut oracle, &mut rng);
        }
        let mut extra = 0u32;
        while store.log().safe_read_only_address() <= store.log().begin_address() {
            apply_op(&session, &mut oracle, &mut rng);
            extra += 1;
            assert!(extra < 4096, "[{ctx}] log never flushed a compactable prefix");
        }
        session.complete_pending(true);
    }
    let snap2 = oracle.clone();

    // Arm the crash *now*: every write/flush from here on belongs to the
    // maintenance window being swept.
    let w0 = domain.writes_issued();
    let f0 = domain.flushes_issued();
    match point {
        Some(MaintCrashPoint::Write(k, torn)) => domain.arm_crash(k, torn),
        Some(MaintCrashPoint::Flush(j)) => domain.arm_crash_at_flush(j),
        None => {}
    }

    // The maintenance window: tick the policy against the live store until
    // it has fired (at least) one compaction and attempted one checkpoint.
    // Tick 1 baselines the windowed signals, tick 2 fires the compaction,
    // and the roll's tail growth trips the checkpoint arm a tick later; the
    // cap only guards against a crashed device stalling the signals.
    let acts = store.maintenance_actuators(Some(mgr.clone()));
    let mut policy = maint_window_policy();
    let stats = MaintenanceStats::default();
    for _ in 0..8 {
        run_tick(&mut policy, &*acts, &stats);
        if let Some(bound) = mgr.safe_truncation_bound() {
            assert!(
                store.log().begin_address() <= bound,
                "[{ctx}] maintenance compaction truncated above the retained \
                 chain: begin {:?} > bound {bound:?}",
                store.log().begin_address()
            );
        }
        let attempts = stats.checkpoints.load(std::sync::atomic::Ordering::Relaxed)
            + stats.checkpoint_failures.load(std::sync::atomic::Ordering::Relaxed);
        if stats.compactions.load(std::sync::atomic::Ordering::Relaxed) >= 1 && attempts >= 1 {
            break;
        }
    }
    let maint_writes = domain.writes_issued() - w0;
    let maint_flushes = domain.flushes_issued() - f0;
    let crashed = domain.crashed();
    let compactions = stats.compactions.load(std::sync::atomic::Ordering::Relaxed);
    let rolled = stats.records_rolled.load(std::sync::atomic::Ordering::Relaxed);
    let ckpt_acks = stats.checkpoints.load(std::sync::atomic::Ordering::Relaxed);
    let ckpt_attempts =
        ckpt_acks + stats.checkpoint_failures.load(std::sync::atomic::Ordering::Relaxed);
    let commit_ok = ckpt_acks >= 1;
    if point.is_none() {
        assert!(
            compactions >= 1 && commit_ok,
            "[{ctx}] fault-free window must compact and checkpoint \
             (compactions {compactions}, acked checkpoints {ckpt_acks})"
        );
    }
    drop(acts);
    drop(store);
    drop(mgr);

    // Recover from the surviving byte images of both devices.
    let log_img = log_fault.inner();
    let ckpt_img = ckpt_fault.inner();
    log_img.flush_barrier().unwrap();
    ckpt_img.flush_barrier().unwrap();

    let (mgr2, rec) = CheckpointManager::recover_latest(ckpt_img, CheckpointConfig::default())
        .unwrap_or_else(|e| panic!("[{ctx}] recovery must always find a generation: {e}"));
    let recovered: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(harness_cfg(), CountStore, log_img, &rec.data);

    // The window ran no foreground ops, so every generation the maintenance
    // checkpoint(s) produced carries the same logical state: the oracle at
    // window entry. Only the baseline maps to the earlier snapshot.
    let snapshot = if rec.gen == gen1 {
        &snap1
    } else if rec.gen > gen1 && rec.gen <= gen1 + ckpt_attempts {
        &snap2
    } else {
        panic!(
            "[{ctx}] recovered to unexpected generation {} (baseline {gen1}, \
             {ckpt_attempts} maintenance attempts)",
            rec.gen
        );
    };
    if commit_ok {
        assert!(
            rec.gen > gen1,
            "[{ctx}] maintenance checkpoint acked Ok but recovery fell back \
             to the baseline ({} skipped)",
            rec.fallbacks()
        );
    }

    {
        let session = recovered.start_session();
        let mut check: Vec<u64> = (0..KEYSPACE).collect();
        check.extend(snap1.keys().chain(snap2.keys()).copied().filter(|&k| k >= KEYSPACE));
        check.sort_unstable();
        check.dedup();
        for key in check {
            let got = crate::read_blocking(&session, key);
            let want = snapshot.get(&key).copied();
            assert_eq!(
                got, want,
                "[{ctx}] gen {} key {key}: got {got:?}, oracle has {want:?}",
                rec.gen
            );
        }
        let probe = KEYSPACE + 6666;
        session.upsert(&probe, &313_131).expect("recovered store must accept writes");
        assert_eq!(
            crate::read_blocking(&session, probe),
            Some(313_131),
            "[{ctx}] recovered store rejected fresh traffic"
        );
    }

    let bound = mgr2
        .safe_truncation_bound()
        .unwrap_or_else(|| panic!("[{ctx}] recovered manager retains no generation"));
    let clamped = mgr2.gc_truncate(&recovered, Address::new(bound.raw() + (1 << 20)));
    assert!(
        clamped <= bound,
        "[{ctx}] gc_truncate escaped the retention clamp: {clamped:?} > {bound:?}"
    );

    MaintSweepReport {
        crashed,
        commit_ok,
        recovered_gen: rec.gen,
        fallbacks: rec.fallbacks(),
        rolled,
        compactions,
        maint_writes,
        maint_flushes,
    }
}
