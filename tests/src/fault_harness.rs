//! Crash/recovery fault-injection harness: one seeded script runner and one
//! crash oracle for every fault sweep. The property is §6.5's: the
//! recovered state is a consistent prefix that holds everything made
//! durable.
//!
//! **The rig.** A counter store over a log device, a [`CheckpointManager`]
//! over a checkpoint device and, optionally, a WAL device. Without a WAL
//! the counter is [`CountCrdt`], so delta records (§6.3) go through every
//! checkpoint, compaction and recovery the sweeps cut. A WAL store refuses
//! mergeable functions, so the WAL rig runs [`CountStore`], whose RMWs on
//! cold keys go pending. Each device is a [`FaultDevice`] in one
//! [`FaultDomain`], so a crash point indexes the interleaved write (or
//! flush-barrier) stream of all three, and the crash halts them together.
//!
//! **The script.** [`run`] drives a list of [`Step`]s single-threaded
//! against the rig: `Ops` (seeded upserts, RMWs, deletes and churn inserts
//! from [`apply_op`], or churn inserts alone; on a WAL rig each op waits
//! for its group commit, and the first refused wait ends the script),
//! `Checkpoint` (through the manager), `DropWrite` (a write acked but never
//! persisted), `Arm` (the crash point; the report's write, flush and
//! pending counts start here too) and `MaintWindow` (`run_tick` under a
//! policy that compacts, then checkpoints). Single-threaded driving keeps
//! the I/O schedule of the non-WAL rigs deterministic, which is what lets a
//! dry run bound a sweep.
//!
//! **The oracle.** The runner records the oracle after every op, recovers
//! the surviving device images (`recover_latest` + `FasterKv::recover`, or
//! `recover_store_with_wal`), and requires the recovered store to equal the
//! oracle after N ops, over the whole touched keyspace, for an admissible N:
//! - with a WAL, any N in `[acked, issued]`: an acked op is never lost, an
//!   un-acked group may persist whole or be cut at its checksum;
//! - without one, the op count at the checkpoint that wrote the recovered
//!   generation. That generation must be the newest acked one or the one
//!   attempted after it.
//!
//! Protocol checks ride along on every run: an acked commit is never
//! fallen back from; inside a maintenance window the log's begin never
//! passes the manager's safe truncation bound; after recovery,
//! `gc_truncate` stays clamped and the store takes fresh traffic (with a
//! WAL, in a fresh durable group). A run with no crash armed must ack every
//! op and every checkpoint.
//!
//! **The suites' scripts.**
//! - `recovery_faults`: 300 ops, checkpoint, (a dropped write,) arm, up to
//!   3 000 ops, stopping 48 ops past the crash.
//! - `ckpt_manager_faults`: 300 ops, checkpoint, 220 ops, arm, checkpoint.
//! - `maintenance_faults`: 300 ops, checkpoint, 220 ops, arm, maintenance
//!   window.
//! - `wal_faults` (WAL rig): arm, 60 ops, checkpoint, 60 ops; and a cold
//!   variant that first writes the keyspace and churns it out to the
//!   device, so the swept RMWs go pending on a device read.
//! - `storage_resilience` runs [`apply_op`]'s upsert-only mix directly.
//!
//! Each sweep is a [`dry_run`] (twice where the schedule must repeat)
//! followed by one [`sweep`] per axis. Seeds come from
//! `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS` so CI shards explore
//! disjoint schedules; a failure prints its seed and script for replay.

use faster_core::ckpt_manager::{self, CheckpointConfig, CheckpointManager};
use faster_core::maintenance::{run_tick, MaintenanceStats, Policy, PolicyConfig};
use faster_core::{CountCrdt, CountStore, FasterKv, FasterKvConfig, Functions, OpError, Session};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_storage::{FaultDevice, FaultDomain, MemDevice, TornWrite};
use faster_util::{Address, XorShift64};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Keys the seeded workload draws from. Small enough that most keys see
/// several updates per run, large enough to span many hash buckets.
pub const KEYSPACE: u64 = 128;

/// Ops before the baseline checkpoint (builds the durable prefix).
pub const PHASE1_OPS: u64 = 300;

/// Ops between the baseline generation and the swept one, so the swept
/// checkpoint (or maintenance window) has dirty pages and dead space.
pub const PHASE1B_OPS: u64 = 220;

/// Ops an `Ops` step still issues after the crash has fired: enough to
/// exercise the refuse-all path, few enough not to outrun the circular
/// buffer of a log that can no longer flush.
const POST_CRASH_OPS: u64 = 48;

/// What one op did to the oracle: the key and its new value (`None` =
/// deleted); `None` for an op the store refused.
pub type Change = Option<(u64, Option<u64>)>;

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

/// The WAL rig's shape: zero batch window (every op forms its own group, so
/// per-op durability waits return promptly) and tiny segments so the
/// workload crosses several segment boundaries.
pub fn wal_harness_cfg() -> FasterKvConfig {
    harness_cfg().with_wal(faster_wal::WalConfig {
        batch_window: std::time::Duration::ZERO,
        segment_size: 4096,
    })
}

/// Which ops an `Ops` step draws.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Upserts, RMWs and deletes over [`KEYSPACE`], plus churn inserts
    /// above it.
    All,
    /// Upserts over [`KEYSPACE`] only: value equality stays trivially
    /// checkable even when a scenario later loses a suffix of the log.
    Upserts,
    /// Churn inserts above [`KEYSPACE`] only: pushes the keyspace's records
    /// out of memory.
    Churn,
}

/// Where the armed crash fires, counted from the `Arm` step across every
/// device in the rig's domain.
#[derive(Debug, Clone, Copy)]
pub enum CrashPoint {
    /// The k-th write, torn per [`TornWrite`].
    Write(u64, TornWrite),
    /// The j-th flush barrier.
    Flush(u64),
}

/// One step of a crash script (see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Ops { n: u64, mix: Mix },
    Checkpoint,
    /// The write this many writes from now is acked but never persisted (a
    /// volatile cache that lies).
    DropWrite(u64),
    /// `None` arms nothing: the dry run that bounds a sweep.
    Arm(Option<CrashPoint>),
    MaintWindow,
}

/// What one scripted run observed, for the sweeps' assertions.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether the armed crash fired.
    pub crashed: bool,
    /// Whether the script's last checkpointing step acked a generation.
    pub commit_ok: bool,
    /// The generation recovery arbitrated to (0: none, WAL alone).
    pub recovered_gen: u64,
    /// Newer generations recovery skipped.
    pub fallbacks: usize,
    /// Ops whose WAL wait returned `Ok` (a dense prefix of issue order).
    pub acked: usize,
    /// Ops issued.
    pub issued: usize,
    /// The op count N whose oracle state the recovered store equals.
    pub matched: usize,
    /// Keys in that oracle state.
    pub snapshot_keys: usize,
    /// Compactions the maintenance window fired, and records they rolled.
    pub compactions: u64,
    pub rolled: u64,
    /// Writes and flush barriers issued from the `Arm` step on.
    pub writes: u64,
    pub flushes: u64,
    /// Pending work from the `Arm` step on, from the store's session
    /// totals: device reads issued (one or more per op that went to the
    /// device) plus fuzzy-region retries. Non-zero iff some op went pending.
    pub pending: u64,
}

/// One seeded op against both the store and the oracle, mirroring a counter
/// ([`CountCrdt`], [`CountStore`]): upsert replaces, RMW adds its input
/// (from 0), delete removes. Only applied ops are mirrored: a degraded store
/// refuses mutations, a pending RMW fails if its device read does, and the
/// oracle must not drift ahead of the store.
pub fn apply_op<F: Functions<u64, u64, Input = u64>>(
    session: &Session<u64, u64, F>,
    oracle: &mut HashMap<u64, u64>,
    rng: &mut XorShift64,
    mix: Mix,
) -> Change {
    let key = rng.next_u64() % KEYSPACE;
    let choice = match mix {
        Mix::All => rng.next_u64() % 8,
        Mix::Upserts => 0,
        Mix::Churn => 7,
    };
    let mut upsert = |key: u64, value: u64| {
        session.upsert(&key, &value).ok()?;
        oracle.insert(key, value);
        Some((key, Some(value)))
    };
    match choice {
        0..=2 => upsert(key, rng.next_u64() | 1),
        3..=4 => {
            let input = (rng.next_u64() % 1000) + 1;
            let applied = match session.rmw(&key, &input) {
                Err(OpError::Pending(id)) => {
                    let done = session.complete_pending(true);
                    done.into_iter().any(|c| c.id == id && c.result.is_ok())
                }
                result => result.is_ok(),
            };
            if !applied {
                return None;
            }
            let value = oracle.entry(key).or_insert(0);
            *value += input;
            Some((key, Some(*value)))
        }
        5 => {
            session.delete(&key).ok()?;
            oracle.remove(&key);
            Some((key, None))
        }
        // Churn insert over a wide keyspace: mostly-fresh keys force tail
        // allocation every time, so the log keeps growing (and flushing)
        // even once every hot key sits in the in-place-updatable region.
        // Without this the post-checkpoint tail stalls and the swept crash
        // points would never see flush traffic.
        _ => upsert(KEYSPACE + (rng.next_u64() % 4096), rng.next_u64() | 1),
    }
}

/// Runs up to `n` ops of `mix` on a fresh session, mirrored into `oracle`;
/// `after` sees each op's change and returns `false` to stop early. Drains
/// the session's pending ops before returning.
pub fn run_ops<F: Functions<u64, u64, Input = u64>>(
    store: &FasterKv<u64, u64, F>,
    oracle: &mut HashMap<u64, u64>,
    rng: &mut XorShift64,
    n: u64,
    mix: Mix,
    mut after: impl FnMut(&Session<u64, u64, F>, Change) -> bool,
) {
    let session = store.start_session();
    for _ in 0..n {
        let change = apply_op(&session, oracle, rng, mix);
        if !after(&session, change) {
            break;
        }
    }
    // A WAL store that lost its device must not park here on a group that
    // can never commit.
    session.complete_pending(store.wal().is_none());
}

/// The oracle after the first `n` ops.
fn state_at(changes: &[Change], n: usize) -> HashMap<u64, u64> {
    let mut state = HashMap::new();
    for &(key, value) in changes[..n].iter().flatten() {
        match value {
            Some(v) => state.insert(key, v),
            None => state.remove(&key),
        };
    }
    state
}

/// Policy whose compaction and checkpoint arms fire within a couple of
/// ticks of the scripted dead space, with the probe and read-cache arms
/// disabled: the window pins exactly the two actuators whose crash
/// behaviour matters for durability.
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

/// Runs `script` on a fresh rig (with a WAL device iff `wal`), crashes
/// wherever it armed, recovers, and checks the oracle and every protocol
/// check (module docs), panicking with the seed and script on a violation.
pub fn run(seed: u64, wal: bool, script: &[Step]) -> Report {
    if wal {
        run_rig(CountStore, seed, true, script)
    } else {
        run_rig(CountCrdt, seed, false, script)
    }
}

/// [`run`] on a rig whose counter is `functions`.
fn run_rig<F: Functions<u64, u64, Input = u64, Output = u64> + Clone>(
    functions: F,
    seed: u64,
    wal: bool,
    script: &[Step],
) -> Report {
    let ctx = format!("seed={seed} wal={wal} script={script:?}");
    let domain = FaultDomain::new();
    let device = |lanes| FaultDevice::wrap_in_domain(MemDevice::new(lanes), &domain);
    let (log_dev, ckpt_dev, wal_dev) = (device(2), device(1), wal.then(|| device(1)));
    let store = match &wal_dev {
        Some(w) => {
            FasterKv::new_with_wal(wal_harness_cfg(), functions.clone(), log_dev.clone(), w.clone())
        }
        None => FasterKv::new(harness_cfg(), functions.clone(), log_dev.clone()),
    };
    let mgr = Arc::new(CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default()));
    let mut rng = XorShift64::new(seed);
    let mut oracle = HashMap::new();
    let mut changes: Vec<Change> = Vec::new();
    let mut report = Report::default();
    // The newest acked generation and the op count it captured, and the op
    // counts of the attempts since (which all reuse the next generation
    // number: a failed commit does not consume one).
    let mut durable = (0u64, 0usize);
    let mut inflight: Vec<usize> = Vec::new();
    let (mut armed, mut halted) = (false, false);
    let (mut w0, mut f0, mut p0) = (0, 0, 0);
    let pending_work = || {
        let totals = store.metrics().sessions.totals;
        totals.io_issued + totals.fuzzy_pending
    };
    for &step in script {
        let ops = changes.len();
        match step {
            Step::Ops { n, mix } => {
                let mut post_crash = 0;
                run_ops(&store, &mut oracle, &mut rng, n, mix, |session, change| {
                    changes.push(change);
                    if wal {
                        // A failed group is sticky: nothing later can become
                        // durable, so the script stops at the first refusal.
                        if session.wait_wal_durable().is_err() {
                            halted = true;
                            return false;
                        }
                        report.acked = changes.len();
                    }
                    post_crash += domain.crashed() as u64;
                    post_crash <= POST_CRASH_OPS
                });
            }
            Step::Checkpoint => {
                report.commit_ok = match mgr.checkpoint_store(&store) {
                    Ok(gen) => {
                        (durable, inflight) = ((gen, ops), Vec::new());
                        true
                    }
                    Err(_) => {
                        inflight.push(ops);
                        false
                    }
                };
            }
            Step::DropWrite(k) => domain.drop_write_at(k),
            Step::Arm(point) => {
                (w0, f0, p0) = (domain.writes_issued(), domain.flushes_issued(), pending_work());
                armed = point.is_some();
                match point {
                    Some(CrashPoint::Write(k, torn)) => domain.arm_crash(k, torn),
                    Some(CrashPoint::Flush(j)) => domain.arm_crash_at_flush(j),
                    None => {}
                }
            }
            Step::MaintWindow => {
                // Tick 1 baselines the windowed signals, tick 2 fires the
                // compaction, and the roll's tail growth trips the
                // checkpoint arm a tick later; the cap only guards against a
                // crashed device stalling the signals.
                let acts = store.maintenance_actuators(Some(mgr.clone()));
                let mut policy = maint_window_policy();
                let stats = MaintenanceStats::default();
                for _ in 0..8 {
                    run_tick(&mut policy, &*acts, &stats);
                    if let Some(bound) = mgr.safe_truncation_bound() {
                        let begin = store.log().begin_address();
                        assert!(
                            begin <= bound,
                            "[{ctx}] maintenance truncated above the retained chain: \
                             begin {begin:?} > bound {bound:?}"
                        );
                    }
                    let attempts =
                        stats.checkpoints.load(Relaxed) + stats.checkpoint_failures.load(Relaxed);
                    if stats.compactions.load(Relaxed) >= 1 && attempts >= 1 {
                        break;
                    }
                }
                report.compactions += stats.compactions.load(Relaxed);
                report.rolled += stats.records_rolled.load(Relaxed);
                report.commit_ok = stats.checkpoints.load(Relaxed) > 0;
                if report.commit_ok {
                    let gen = mgr.generations().last().expect("an acked generation").gen;
                    (durable, inflight) = ((gen, ops), Vec::new());
                }
                if stats.checkpoint_failures.load(Relaxed) > 0 {
                    inflight.push(ops);
                }
            }
        }
        if halted {
            break;
        }
    }
    report.crashed = domain.crashed();
    report.issued = changes.len();
    (report.writes, report.flushes) = (domain.writes_issued() - w0, domain.flushes_issued() - f0);
    report.pending = pending_work() - p0;
    if !armed {
        assert!(
            !report.crashed && inflight.is_empty() && (!wal || report.acked == report.issued),
            "[{ctx}] fault-free run failed to ack: {report:?}"
        );
    }
    drop(store);
    drop(mgr);

    // Recover over the surviving byte images, their worker queues settled.
    let (log_img, ckpt_img) = (log_dev.inner(), ckpt_dev.inner());
    log_img.flush_barrier().unwrap();
    ckpt_img.flush_barrier().unwrap();
    let (recovered, mgr, gen, replayed) = match &wal_dev {
        Some(w) => {
            let wal_img = w.inner();
            wal_img.flush_barrier().unwrap();
            let rec = ckpt_manager::recover_store_with_wal(
                wal_harness_cfg(),
                functions,
                log_img,
                ckpt_img,
                wal_img,
                CheckpointConfig::default(),
            )
            .unwrap_or_else(|e| panic!("[{ctx}] WAL recovery must always succeed: {e}"));
            (rec.store, rec.manager, rec.generation, rec.wal_replayed)
        }
        None => {
            let (mgr, rec) =
                CheckpointManager::recover_latest(ckpt_img, CheckpointConfig::default())
                    .unwrap_or_else(|e| panic!("[{ctx}] recovery found no generation: {e}"));
            (FasterKv::recover(harness_cfg(), functions, log_img, &rec.data), mgr, Some(rec), 0)
        }
    };
    let g = gen.as_ref().map_or(0, |r| r.gen);
    report.recovered_gen = g;
    report.fallbacks = gen.as_ref().map_or(0, |r| r.fallbacks());
    assert!(
        g >= durable.0 && g <= durable.0 + !inflight.is_empty() as u64,
        "[{ctx}] recovered generation {g}, but {} was the newest acked and {} attempts followed",
        durable.0,
        inflight.len()
    );

    // The admissible op counts, ascending.
    let candidates: Vec<usize> = if wal {
        (report.acked..=report.issued).collect()
    } else if g == durable.0 {
        vec![durable.1]
    } else {
        inflight
    };
    let hi = *candidates.last().expect("a non-empty admissible range");
    let mut keys: Vec<u64> = (0..KEYSPACE).collect();
    keys.extend(changes[..hi].iter().flatten().map(|&(k, _)| k).filter(|&k| k >= KEYSPACE));
    keys.sort_unstable();
    keys.dedup();
    {
        let session = recovered.start_session();
        let got: Vec<Option<u64>> =
            keys.iter().map(|&k| crate::read_blocking(&session, k)).collect();
        // The keys whose recovered value differs from `state`'s.
        let differs = |state: &HashMap<u64, u64>| -> Vec<(u64, Option<u64>)> {
            let diff = keys.iter().zip(&got).filter(|&(k, g)| state.get(k) != g.as_ref());
            diff.map(|(&k, &g)| (k, g)).collect()
        };
        let matched = candidates
            .iter()
            .map(|&n| (n, state_at(&changes, n)))
            .find(|(_, state)| differs(state).is_empty());
        let Some((n, state)) = matched else {
            let first = state_at(&changes, candidates[0]);
            let diff: Vec<String> = differs(&first)
                .into_iter()
                .take(8)
                .map(|(k, g)| format!("key {k}: got {g:?}, oracle {:?}", first.get(&k)))
                .collect();
            panic!(
                "[{ctx}] recovered state (gen {g}, {replayed} WAL records replayed) matches the \
                 oracle after no admissible op count in {}..={hi}; vs the first: {diff:?}",
                candidates[0]
            );
        };
        (report.matched, report.snapshot_keys) = (n, state.len());

        let probe = KEYSPACE + 7777;
        session.upsert(&probe, &424_242).expect("recovered store must accept writes");
        if wal {
            session
                .wait_wal_durable()
                .unwrap_or_else(|e| panic!("[{ctx}] resumed WAL refused a fresh group: {e}"));
        }
        assert_eq!(
            crate::read_blocking(&session, probe),
            Some(424_242),
            "[{ctx}] recovered store rejected fresh traffic"
        );
    }

    // Truncation through the manager clamps to the retained chain's oldest
    // begin. Only a WAL rig may recover no generation, and then retains none.
    if g > 0 {
        let bound = mgr
            .safe_truncation_bound()
            .unwrap_or_else(|| panic!("[{ctx}] recovered manager retains no generation"));
        let clamped = mgr.gc_truncate(&recovered, Address::new(bound.raw() + (1 << 20)));
        assert!(
            clamped <= bound,
            "[{ctx}] gc_truncate escaped the retention clamp: {clamped:?} > {bound:?}"
        );
    }
    report
}

/// A sweep axis: every write from the `Arm` step on, torn in turn not at
/// all, at a seeded byte below `torn_bytes`, and at a seeded sector; or
/// every flush barrier.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    Writes { torn_bytes: u64 },
    Flushes,
}

/// The fault-free run of `script(None)` that bounds a sweep. With `twice`,
/// a second run must issue the same writes and barriers: the bound is only
/// valid for a deterministic schedule.
pub fn dry_run(
    seed: u64,
    wal: bool,
    twice: bool,
    script: impl Fn(Option<CrashPoint>) -> Vec<Step>,
) -> Report {
    let dry = run(seed, wal, &script(None));
    if twice {
        let again = run(seed, wal, &script(None));
        assert_eq!(
            (dry.writes, dry.flushes),
            (again.writes, again.flushes),
            "seed {seed}: the I/O schedule is nondeterministic; the sweep bound is invalid"
        );
    }
    dry
}

/// Runs `script` once per crash point `points` names on `axis`.
pub fn sweep(
    seed: u64,
    wal: bool,
    axis: Axis,
    points: impl IntoIterator<Item = u64>,
    script: impl Fn(Option<CrashPoint>) -> Vec<Step>,
) -> Vec<(CrashPoint, Report)> {
    let point = |k: u64| match axis {
        Axis::Writes { torn_bytes } => CrashPoint::Write(
            k,
            match k % 3 {
                0 => TornWrite::Nothing,
                1 => TornWrite::Bytes(((seed.wrapping_mul(31) + k * 7) % torn_bytes) as usize),
                _ => TornWrite::SeededSectors { seed: seed ^ (k << 8) },
            },
        ),
        Axis::Flushes => CrashPoint::Flush(k),
    };
    points.into_iter().map(point).map(|p| (p, run(seed, wal, &script(Some(p))))).collect()
}
