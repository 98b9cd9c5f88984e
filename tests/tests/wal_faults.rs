//! Crash sweeps and durability-contract tests for the group-committed WAL
//! (DESIGN.md §10).
//!
//! The tentpole sweeps arm a crash at **every device write and every flush
//! barrier the whole run issues** — WAL group writes and barriers, hybrid-
//! log page flushes, and the mid-run checkpoint's blob/manifest traffic all
//! share one `FaultDomain`. Each swept point recovers (checkpoint
//! arbitration + WAL suffix replay) and must land exactly on an oracle
//! prefix no shorter than the acked one: an acked group commit may never
//! be lost, an un-acked one may persist in full or be cut at its checksum.
//!
//! Sharded via `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS` like the
//! other fault sweeps; failures print their `(seed, point)` for replay.

use faster_core::ckpt_manager::{self, CheckpointConfig, CheckpointManager};
use faster_core::{CountStore, FasterKv};
use faster_integration_tests::fault_harness::{
    fault_seed_range, run_wal_crash_case, wal_harness_cfg, WalCrashPoint, KEYSPACE,
};
use faster_integration_tests::read_blocking as session_read;
use faster_metrics::WalMetrics;
use faster_storage::{Device, FaultDevice, LatencyModel, MemDevice, TornWrite};
use faster_wal::Wal;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tentpole sweep, write axis: crash at every device write the run issues,
/// cycling the torn-write model so the sweep sees nothing-persisted,
/// byte-torn, and sector-torn WAL group writes (a byte-torn group is what
/// the per-record checksum cut is for).
#[test]
fn wal_write_crash_sweep() {
    let mut fired = 0u64;
    let mut cases = 0u64;
    let mut lost_tail = 0u64;
    for seed in fault_seed_range(2) {
        let dry = run_wal_crash_case(seed, None);
        assert!(
            dry.writes_issued > 20,
            "seed {seed}: dry run issued only {} writes — WAL groups missing?",
            dry.writes_issued
        );
        // Background flush threads make exact write interleaving (and so
        // whether a far point fires) nondeterministic; stride the axis to
        // bound runtime and assert aggregate coverage instead of per-case.
        let stride = (dry.writes_issued / 64).max(1);
        for k in (0..dry.writes_issued).step_by(stride as usize) {
            let torn = match k % 3 {
                0 => TornWrite::Nothing,
                1 => TornWrite::Bytes(((seed.wrapping_mul(37) + k * 11) % 4000) as usize),
                _ => TornWrite::SeededSectors { seed: seed ^ (k << 9) },
            };
            let report = run_wal_crash_case(seed, Some(WalCrashPoint::Write(k, torn)));
            cases += 1;
            if report.crashed {
                fired += 1;
            }
            if report.issued > report.acked {
                lost_tail += 1;
            }
            assert!(
                report.matched_prefix >= report.acked,
                "seed {seed} write {k}: matched prefix {} below acked {}",
                report.matched_prefix,
                report.acked
            );
        }
    }
    assert!(cases >= 16, "write sweep ran only {cases} cases");
    assert!(fired * 2 >= cases, "only {fired}/{cases} armed write points fired");
    assert!(lost_tail > 0, "no swept write point ever cut an un-acked tail");
}

/// Tentpole sweep, flush axis: crash at every flush barrier — each WAL
/// group commit's fsync edge, plus the checkpoint's and hybrid log's. A
/// crashed barrier returns `Err`, so the group it was committing may never
/// ack; recovery must still land on a ≥-acked oracle prefix.
#[test]
fn wal_flush_crash_sweep() {
    let mut fired = 0u64;
    let mut cases = 0u64;
    for seed in fault_seed_range(2) {
        let dry = run_wal_crash_case(seed, None);
        assert!(
            dry.flushes_issued > 20,
            "seed {seed}: dry run issued only {} barriers — group commits missing?",
            dry.flushes_issued
        );
        let stride = (dry.flushes_issued / 64).max(1);
        for j in (0..dry.flushes_issued).step_by(stride as usize) {
            let report = run_wal_crash_case(seed, Some(WalCrashPoint::Flush(j)));
            cases += 1;
            if report.crashed {
                fired += 1;
                // The crashing barrier refused its group: the workload must
                // have stopped acking at or before the crash.
                assert!(
                    report.acked <= report.issued,
                    "seed {seed} flush {j}: acked {} beyond issued {}",
                    report.acked,
                    report.issued
                );
            }
        }
    }
    assert!(cases >= 16, "flush sweep ran only {cases} cases");
    assert!(fired * 2 >= cases, "only {fired}/{cases} armed flush points fired");
}

/// Fault-free restart: every acked op survives a clean shutdown with **no
/// checkpoint at all** — the store rebuilds from the WAL alone.
#[test]
fn wal_alone_recovers_full_state() {
    let report = run_wal_crash_case(0xC0FFEE, None);
    assert_eq!(report.acked, report.issued);
    assert_eq!(report.matched_prefix, report.issued, "clean restart lost acked ops");
}

/// Checkpoint/WAL interleaving: the generation records its cutoff, recovery
/// replays only the suffix above it, and truncation after a later
/// checkpoint never drops records a retained generation still needs.
#[test]
fn checkpoint_records_cutoff_and_replays_only_the_suffix() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());

    {
        let session = store.start_session();
        for k in 0..KEYSPACE {
            let _ = session.upsert(&k, &(k + 1));
        }
        session.wait_wal_durable().unwrap();
    }
    mgr.checkpoint_store(&store).expect("fault-free commit");
    let gen = mgr.generations().pop().unwrap();
    assert_eq!(gen.wal_lsn, KEYSPACE, "cutoff must cover every pre-checkpoint append");

    // Suffix: updates over half the keyspace, plus one delete.
    {
        let session = store.start_session();
        for k in 0..KEYSPACE / 2 {
            let _ = session.upsert(&k, &(k + 1000));
        }
        let _ = session.delete(&7);
        session.wait_wal_durable().unwrap();
    }
    drop(store);
    drop(mgr);
    log_dev.flush_barrier().unwrap();
    ckpt_dev.flush_barrier().unwrap();
    wal_dev.flush_barrier().unwrap();

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery");
    assert_eq!(rec.generation.as_ref().map(|r| r.gen), Some(gen.gen));
    assert_eq!(
        rec.wal_replayed,
        (KEYSPACE / 2 + 1) as usize,
        "replay must cover exactly the post-checkpoint suffix"
    );
    let session = rec.store.start_session();
    for k in 0..KEYSPACE {
        let want = if k == 7 {
            None
        } else if k < KEYSPACE / 2 {
            Some(k + 1000)
        } else {
            Some(k + 1)
        };
        assert_eq!(session_read(&session, k), want, "key {k}");
    }
}

/// A second checkpoint advances the cutoff past the whole log: recovery
/// then replays nothing, and the truncated WAL still recovers cleanly
/// (scan skips reclaimed front segments).
#[test]
fn truncation_after_checkpoint_leaves_wal_recoverable() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig { retain: 1, auto_prune: true });

    // Enough appends to fill several 4 KiB segments, then two checkpoints:
    // with retain = 1 the second commit's truncation may reclaim every
    // segment below its own cutoff.
    for round in 0..2u64 {
        {
            let session = store.start_session();
            for k in 0..KEYSPACE {
                let _ = session.upsert(&k, &(k + 100 * round + 1));
            }
            session.wait_wal_durable().unwrap();
        }
        mgr.checkpoint_store(&store).expect("fault-free commit");
    }
    let cutoff = mgr.generations().pop().unwrap().wal_lsn;
    assert_eq!(cutoff, 2 * KEYSPACE);
    drop(store);
    drop(mgr);
    log_dev.flush_barrier().unwrap();
    ckpt_dev.flush_barrier().unwrap();
    wal_dev.flush_barrier().unwrap();

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig { retain: 1, auto_prune: true },
    )
    .expect("recovery over a truncated WAL");
    assert_eq!(rec.wal_replayed, 0, "everything is below the cutoff");
    let session = rec.store.start_session();
    for k in 0..KEYSPACE {
        assert_eq!(session_read(&session, k), Some(k + 101), "key {k}");
    }
    // And the resumed WAL keeps acking.
    let _ = session.upsert(&1, &999);
    session.wait_wal_durable().unwrap();
}

/// Satellite regression: a failed flush barrier can never ack a group
/// commit — the session's durability wait errors, the failure is sticky,
/// and the metrics record a commit failure and zero commits.
#[test]
fn failed_barrier_never_acks_a_group() {
    let wal_fault = FaultDevice::wrap(MemDevice::new(1));
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new_with_wal(
        wal_harness_cfg(),
        CountStore,
        MemDevice::new(2),
        wal_fault.clone(),
    );
    // The WAL device is alone in its fault domain: barrier #0 is the first
    // group's fsync. Fail it (transiently — the device itself stays up).
    wal_fault.fail_flush_at(0);

    let session = store.start_session();
    let _ = session.upsert(&1, &11);
    let err = session.wait_wal_durable();
    assert!(err.is_err(), "group acked across a failed barrier: {err:?}");
    // The wait latched its error: a gate above the watermark agrees with it.
    let above = store.wal().unwrap().durable_lsn() + 1;
    assert!(matches!(session.poll_wal_durable(above), Some(Err(_))));

    // Sticky: later mutations apply in memory but never become durable.
    let _ = session.upsert(&2, &22);
    assert!(session.wait_wal_durable().is_err());
    assert!(session.complete_pending(true).is_empty()); // returns, no hang

    let m = store.metrics();
    assert_eq!(m.wal.commits, 0, "a group committed across a failed barrier");
    assert!(m.wal.commit_failures >= 1);
    assert!(store.wal().unwrap().failure().is_some());
}

/// WAL order = apply order for in-place updates: two sessions increment one
/// key in place, and replayed in LSN order the key's post-images must never
/// go backwards and must end at the total. A post-image read *before* the
/// LSN is assigned lets a later LSN carry an older value — replay then
/// loses acked increments.
#[test]
fn in_place_post_images_follow_lsn_order() {
    const PER_THREAD: u64 = 20_000;
    const KEY: u64 = 7;
    let cfg = wal_harness_cfg();
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(cfg, CountStore, MemDevice::new(2), wal_dev.clone());
    store.start_session().upsert(&KEY, &0).expect("writable store");
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let session = store.start_session();
                for _ in 0..PER_THREAD {
                    session.rmw(&KEY, &1).expect("in-place increment");
                }
                session.wait_wal_durable().expect("commit on a healthy device");
            });
        }
    });
    drop(store);

    let wal_cfg = cfg.wal.expect("WAL configured");
    let (_wal, records) = Wal::recover(wal_dev, wal_cfg, Arc::new(WalMetrics::default()), 0);
    // A PUT payload is `[kind = 1][key u64][value u64]`, little-endian.
    let posts: Vec<u64> = records
        .iter()
        .filter_map(|r| {
            let (&kind, rest) = r.payload.split_first()?;
            let (key, value) = rest.split_at_checked(8)?;
            (kind == 1 && key == KEY.to_le_bytes() && value.len() == 8)
                .then(|| u64::from_le_bytes(value.try_into().expect("8 bytes")))
        })
        .collect();
    let inversions = posts.windows(2).filter(|w| w[1] < w[0]).count();
    assert_eq!(inversions, 0, "post-images went backwards {inversions} times in LSN order");
    assert_eq!(posts.last(), Some(&(2 * PER_THREAD)));
}

/// How long a durability wait may take in the leader-lifecycle tests: a
/// group is a few milliseconds on their device, so only a stranded group
/// comes near it.
const PROMPT: Duration = Duration::from_secs(1);

/// A WAL store whose group commits take a few milliseconds, so a group a
/// session leads is still in flight when the test's next step runs.
fn slow_wal_store() -> FasterKv<u64, u64, CountStore> {
    let latency = LatencyModel { fixed: Duration::from_millis(5), bytes_per_sec: 0 };
    FasterKv::new_with_wal(
        wal_harness_cfg(),
        CountStore,
        MemDevice::new(2),
        MemDevice::with_latency(1, latency),
    )
}

/// Leads a group from `session`'s own ring the way a server pass does: the
/// pass promises to wait for its appends, and `complete_pending` asks.
fn lead_a_group(session: &faster_core::Session<u64, u64, CountStore>, key: u64) {
    session.upsert(&key, &(key + 10)).unwrap();
    session.notify_wal_durable().expect("an append to wait for");
    session.complete_pending(false);
}

/// Joins a waiter's thread, failing instead of hanging if its group is
/// stranded.
fn join_promptly<T>(who: &str, waiter: std::thread::JoinHandle<T>) -> T {
    let deadline = Instant::now() + PROMPT;
    while !waiter.is_finished() {
        assert!(Instant::now() < deadline, "{who}'s durability wait is stranded");
        std::thread::sleep(Duration::from_millis(1));
    }
    waiter.join().unwrap()
}

/// A record appended after another session's group was taken rides the
/// next group, and both sessions' waits return promptly.
#[test]
fn a_record_appended_behind_a_taken_group_commits() {
    let store = slow_wal_store();
    let (taken_tx, taken_rx) = mpsc::channel();
    let (appended_tx, appended_rx) = mpsc::channel();
    let a = std::thread::spawn({
        let store = store.clone();
        move || {
            let session = store.start_session();
            lead_a_group(&session, 1);
            taken_tx.send(()).unwrap();
            appended_rx.recv().unwrap();
            session.wait_wal_durable().unwrap();
        }
    });
    let b = std::thread::spawn({
        let store = store.clone();
        move || {
            taken_rx.recv().unwrap();
            let session = store.start_session();
            session.upsert(&2, &12).unwrap();
            assert_eq!(store.wal().unwrap().durable_lsn(), 0, "A's group is still in flight");
            appended_tx.send(()).unwrap();
            session.wait_wal_durable().unwrap();
        }
    });
    join_promptly("B", b);
    join_promptly("A", a);
    assert_eq!(store.wal().unwrap().durable_lsn(), 2);
    assert_eq!(store.metrics().wal.commits, 2, "B's record rode a group of its own");
}

/// A session dropped while it leads a group reaps that group first, so a
/// waiter queued behind it is not stranded.
#[test]
fn a_dropped_leader_does_not_strand_the_next_group() {
    let store = slow_wal_store();
    let (taken_tx, taken_rx) = mpsc::channel();
    let (waiting_tx, waiting_rx) = mpsc::channel();
    let a = std::thread::spawn({
        let store = store.clone();
        move || {
            let session = store.start_session();
            lead_a_group(&session, 1);
            taken_tx.send(()).unwrap();
            waiting_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(2));
            drop(session);
            assert!(store.wal().unwrap().durable_lsn() >= 1, "the drop published its group");
        }
    });
    let b = std::thread::spawn({
        let store = store.clone();
        move || {
            taken_rx.recv().unwrap();
            let session = store.start_session();
            session.upsert(&2, &12).unwrap();
            waiting_tx.send(()).unwrap();
            session.wait_wal_durable().unwrap();
        }
    });
    join_promptly("the waiter behind a dropped leader", b);
    join_promptly("the dropped leader", a);
    assert_eq!(store.wal().unwrap().durable_lsn(), 2);
}

/// Upserts nobody waited for still reach the WAL device: full stages commit
/// as they fill, and dropping the store leads the rest.
#[test]
fn unawaited_upserts_survive_dropping_the_store() {
    const KEYS: u64 = 5_000;
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev.clone(), wal_dev.clone());
    {
        let session = store.start_session();
        for k in 0..KEYS {
            session.upsert(&k, &(k + 7)).unwrap();
        }
    }
    assert!(store.metrics().wal.commits >= 1, "full stages commit without a wait");
    drop(store);
    wal_dev.flush_barrier().unwrap();

    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        wal_harness_cfg(),
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery");
    assert_eq!(rec.wal_replayed, KEYS as usize);
    let session = rec.store.start_session();
    for k in 0..KEYS {
        assert_eq!(session_read(&session, k), Some(k + 7), "key {k}");
    }
}

/// Group commit runs on the threads that wait for it: a WAL store starts no
/// commit thread.
#[cfg(target_os = "linux")]
#[test]
fn a_wal_store_runs_no_commit_thread() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, MemDevice::new(2), MemDevice::new(1));
    let session = store.start_session();
    session.upsert(&1, &1).unwrap();
    session.wait_wal_durable().unwrap();
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    assert!(!names.is_empty());
    assert!(!names.iter().any(|n| n.trim() == "faster-wal-commit"), "threads: {names:?}");
}
