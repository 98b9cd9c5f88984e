//! Storage-failure resilience sweep (DESIGN.md §12).
//!
//! Exercises the flush retry/quarantine machinery, the checksummed-page
//! read path, and the graceful-degradation ladder end to end:
//!
//! 1. a transient write fault at *every* write position of a seeded
//!    workload is absorbed by flush retries — the store stays `Healthy`,
//!    nothing wedges, and a checkpoint/recovery round trip is oracle-exact;
//! 2. a permanently failing device quarantines pages and flips the store
//!    to `ReadOnly(FlushQuarantine)`: reads keep serving, the fallible
//!    mutation API returns typed errors, maintenance actuators refuse;
//! 3. corrupted device sectors are *never* served as data — every read is
//!    either the oracle's value or `IoError::Corrupt`;
//! 4. a full device flips to `ReadOnly(DeviceFull)`;
//! 5. a dead WAL flips to `ReadOnly(WalFailed)`;
//! 6. seeded multi-threaded traffic racing the degradation flip neither
//!    panics nor wedges.
//!
//! Seeded via `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS` like the
//! other fault sweeps.

use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager};
use faster_core::{CheckpointError, CountStore, FasterKv, HealthReason, OpError, StoreHealth};
use faster_integration_tests::fault_harness::{
    fault_seed_range, harness_cfg, run_ops, Mix, KEYSPACE,
};
use faster_integration_tests::{read_blocking, read_result};
use faster_maintenance::Actuators;
use faster_storage::{Device, FaultDevice, IoError, MemDevice};
use faster_util::XorShift64;
use std::collections::HashMap;
use std::sync::Arc;

const PAGE_SIZE: u64 = 1 << 10; // harness_cfg() page_bits = 10

/// Scenario 1: a single transient write fault at every write position.
///
/// For each seed, a fault-free dry run counts the device writes the
/// workload issues; the sweep then re-runs it once per write position with
/// exactly that write failing transiently. The flush-retry path must
/// absorb every single one: health stays `Healthy`, no page is
/// quarantined, every key reads back the oracle's value, and a durable
/// checkpoint recovers oracle-exact.
#[test]
fn transient_write_fault_at_every_position_is_absorbed() {
    for seed in fault_seed_range(2) {
        // Dry run: count write positions.
        let writes = {
            let fault = FaultDevice::wrap(MemDevice::new(2));
            let store: FasterKv<u64, u64, CountStore> =
                FasterKv::new(harness_cfg(), CountStore, fault.clone());
            let mut oracle = HashMap::new();
            run_ops(&store, &mut oracle, &mut XorShift64::new(seed), 600, Mix::Upserts, |_, _| true);
            store.log().shift_read_only_to_tail(None);
            store.log().wait_flush_quiesced();
            fault.domain().writes_issued()
        };
        assert!(writes > 0, "[seed={seed}] dry run issued no writes");

        for k in 0..writes {
            let ctx = format!("seed={seed} fail_write_at={k}");
            let fault = FaultDevice::wrap(MemDevice::new(2));
            let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
            let store: FasterKv<u64, u64, CountStore> =
                FasterKv::new(harness_cfg(), CountStore, fault.clone());
            fault.domain().fail_write_at(k);
            let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
            let mut oracle = HashMap::new();
            run_ops(&store, &mut oracle, &mut XorShift64::new(seed), 600, Mix::Upserts, |_, _| true);

            // The fault must be invisible above the log layer.
            assert_eq!(
                store.health(),
                StoreHealth::Healthy,
                "[{ctx}] one transient write fault degraded the store"
            );
            let m = store.metrics();
            assert_eq!(
                m.hlog.pages_quarantined, 0,
                "[{ctx}] transient fault quarantined a page"
            );
            if m.hlog.flushes_failed > 0 {
                assert!(
                    m.hlog.flush_retries > 0,
                    "[{ctx}] a flush failed but no retry was recorded"
                );
            }
            {
                let session = store.start_session();
                for (&key, &want) in &oracle {
                    assert_eq!(
                        read_blocking(&session, key),
                        Some(want),
                        "[{ctx}] key {key} lost under a transient write fault"
                    );
                }
            }

            // Durability end to end: the retried flushes must actually have
            // landed, so a checkpoint commits and recovers oracle-exact.
            let gen = mgr
                .checkpoint_store(&store)
                .unwrap_or_else(|e| panic!("[{ctx}] checkpoint must commit: {e}"));
            drop(store);
            let (_mgr2, rec) =
                CheckpointManager::recover_latest(ckpt_dev, CheckpointConfig::default())
                    .unwrap_or_else(|e| panic!("[{ctx}] recovery failed: {e}"));
            let recovered: FasterKv<u64, u64, CountStore> =
                FasterKv::recover(harness_cfg(), CountStore, fault.inner(), &rec.data);
            assert_eq!(rec.gen, gen, "[{ctx}] recovery skipped the committed generation");
            let session = recovered.start_session();
            for (&key, &want) in &oracle {
                assert_eq!(
                    read_blocking(&session, key),
                    Some(want),
                    "[{ctx}] key {key} wrong after recovery"
                );
            }
        }
    }
}

/// A failed log barrier fails the checkpoint: `checkpoint()` returns
/// `Err(Io)` instead of data whose `[begin, t2)` the log cannot back, and
/// `checkpoint_store` leaves the committed chain as it was.
#[test]
fn failed_log_barrier_fails_the_checkpoint_and_commits_nothing() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, fault.clone());
    let mgr = CheckpointManager::new(MemDevice::new(1), CheckpointConfig::default());
    let mut oracle = HashMap::new();
    let mut rng = XorShift64::new(0xBA55);
    run_ops(&store, &mut oracle, &mut rng, 200, Mix::Upserts, |_, _| true);
    mgr.checkpoint_store(&store).expect("fault-free commit");
    run_ops(&store, &mut oracle, &mut rng, 200, Mix::Upserts, |_, _| true);

    fault.domain().fail_flush_at(0);
    let res = store.checkpoint();
    assert!(matches!(res, Err(CheckpointError::Io(_))), "checkpoint past a failed barrier: {res:?}");

    let (gens, seqno) = (mgr.generations(), mgr.seqno());
    fault.domain().fail_flush_at(0);
    let res = mgr.checkpoint_store(&store);
    assert!(res.is_err(), "a generation committed past a failed log barrier: {res:?}");
    assert_eq!(mgr.generations(), gens, "the failed commit changed the chain");
    assert_eq!(mgr.seqno(), seqno, "the failed commit wrote a manifest");
}

/// Scenario 2: a permanently failing device. Every flush exhausts its
/// retry budget; the pages quarantine, the frontier still advances (no
/// allocation wedge — the workload below runs to completion), and the
/// store flips to `ReadOnly(FlushQuarantine)`. Reads of intact state keep
/// serving, reads into quarantined pages return `Corrupt`, the fallible
/// mutation API returns `OpError::ReadOnly`, and maintenance actuators
/// refuse to run.
#[test]
fn permanent_flush_failure_degrades_to_read_only() {
    for seed in fault_seed_range(4) {
        let ctx = format!("seed={seed}");
        let fault = FaultDevice::wrap(MemDevice::new(2));
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(harness_cfg(), CountStore, fault.clone());
        let mut oracle = HashMap::new();
        let mut rng = XorShift64::new(seed);
        // Healthy prefix, flushed cleanly so its pages stay readable cold.
        run_ops(&store, &mut oracle, &mut rng, 200, Mix::Upserts, |_, _| true);
        store.log().shift_read_only_to_tail(None);
        store.log().wait_flush_quiesced();
        // The device dies for good. The doomed phase writes *unique* keys:
        // once evicted, their only copies sit on quarantined pages, so the
        // read sweep below is guaranteed to hit the quarantine path. This
        // loop terminating is itself the no-wedge assertion — quarantine
        // advances the flush frontier, so allocation never stalls on a
        // dead device.
        fault.domain().fail_next_writes(u32::MAX);
        {
            let session = store.start_session();
            for i in 0..2000u64 {
                let key = 10_000 + i;
                let value = rng.next_u64() | 1;
                if session.upsert(&key, &value).is_ok() {
                    oracle.insert(key, value);
                }
            }
            session.complete_pending(true);
        }
        // Shrink the buffer and nudge the allocator so the doomed pages
        // actually evict (reads of them must now go to the device).
        store.log().set_active_pages(2);
        run_ops(&store, &mut oracle, &mut rng, 64, Mix::Upserts, |_, _| true);
        store.log().shift_read_only_to_tail(None);
        store.log().wait_flush_quiesced();

        let health = store.health();
        assert!(
            matches!(health, StoreHealth::ReadOnly(HealthReason::FlushQuarantine { .. })),
            "[{ctx}] expected ReadOnly(FlushQuarantine), got {health:?}"
        );
        let m = store.metrics();
        assert!(m.hlog.pages_quarantined > 0, "[{ctx}] no page was quarantined");
        assert!(
            m.hlog.flush_retries >= m.hlog.pages_quarantined,
            "[{ctx}] quarantine must be preceded by retries"
        );
        assert_eq!(m.health.state, 2, "[{ctx}] health metric disagrees");
        assert_eq!(m.health.reason, "flush_quarantine", "[{ctx}] health reason disagrees");

        let debug = store.log().flush_debug();
        assert!(
            debug.pending_above_frontier.is_empty() && debug.inflight == 0,
            "[{ctx}] quarantine left the flush frontier gapped: {debug:?}"
        );

        let session = store.start_session();
        // The fallible mutation API reports the degradation...
        assert!(
            matches!(session.upsert(&1, &1), Err(OpError::ReadOnly(_))),
            "[{ctx}] upsert must refuse on a read-only store"
        );
        assert!(
            matches!(session.rmw(&1, &1), Err(OpError::ReadOnly(_))),
            "[{ctx}] rmw must refuse on a read-only store"
        );
        assert!(
            matches!(session.delete(&1), Err(OpError::ReadOnly(_))),
            "[{ctx}] delete must refuse on a read-only store"
        );
        // ...while reads still serve: resident state exactly, quarantined
        // pages as a typed Corrupt (never fabricated data, never a wedge).
        let mut served = 0u64;
        let mut corrupt = 0u64;
        for (&key, &want) in &oracle {
            match read_result(&session, key) {
                Ok(Some(got)) => {
                    assert_eq!(got, want, "[{ctx}] read-only store served a wrong value");
                    served += 1;
                }
                Ok(None) => panic!("[{ctx}] key {key} vanished instead of erroring"),
                Err(IoError::Corrupt { .. }) => corrupt += 1,
                Err(e) => panic!("[{ctx}] unexpected read error: {e}"),
            }
        }
        assert!(served > 0, "[{ctx}] nothing readable on a read-only store");
        assert!(corrupt > 0, "[{ctx}] expected some reads to hit quarantined pages");

        // Maintenance refuses: no compaction (truncation would destroy the
        // only intact copies) and no checkpoint churn.
        let acts = store.maintenance_actuators(None);
        assert_eq!(
            acts.compact(store.log().safe_read_only_address().raw()),
            0,
            "[{ctx}] compaction must refuse on a read-only store"
        );
        assert!(!acts.checkpoint(), "[{ctx}] checkpoint must refuse on a read-only store");
    }
}

/// Scenario 3: corrupted device sectors. After forcing the buffer down so
/// cold reads happen, every flushed page's data region is overwritten with
/// garbage (footers left intact). Every subsequent read must come back as
/// either the oracle's exact value (resident page) or `IoError::Corrupt`
/// (checksum caught it) — never wrong data. The store degrades but stays
/// writable.
#[test]
fn corrupted_sectors_never_serve_wrong_data() {
    for seed in fault_seed_range(4) {
        let ctx = format!("seed={seed}");
        let device: Arc<dyn Device> = MemDevice::new(2);
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(harness_cfg(), CountStore, device.clone());
        let mut oracle = HashMap::new();
        run_ops(&store, &mut oracle, &mut XorShift64::new(seed), 3000, Mix::Upserts, |_, _| true);
        // Shrink the buffer and let the head advance: most pages evict.
        store.log().set_active_pages(2);
        run_ops(&store, &mut oracle, &mut XorShift64::new(seed ^ 0xDEAD), 64, Mix::Upserts, |_, _| true);
        store.log().shift_read_only_to_tail(None);
        store.log().wait_flush_quiesced();
        let head_page = store.log().head_address().raw() / PAGE_SIZE;
        assert!(head_page > 1, "[{ctx}] workload too small to evict any page");

        // Scribble over the data region of every evicted page (sparing the
        // footers: the checksums must now disagree with the data).
        let stride = faster_hlog::checksum::stride(PAGE_SIZE);
        for page in 0..head_page {
            device
                .write_blocking(page * stride, vec![0xA5u8; PAGE_SIZE as usize])
                .expect("raw scribble write failed");
        }

        let session = store.start_session();
        let mut corrupt = 0u64;
        for (&key, &want) in &oracle {
            match read_result(&session, key) {
                Ok(Some(got)) => {
                    assert_eq!(
                        got, want,
                        "[{ctx}] key {key}: corruption was served as data"
                    );
                }
                Ok(None) => panic!("[{ctx}] key {key} silently vanished"),
                Err(IoError::Corrupt { .. }) => corrupt += 1,
                Err(e) => panic!("[{ctx}] unexpected read error: {e}"),
            }
        }
        assert!(corrupt > 0, "[{ctx}] no cold read hit the corrupted pages");
        let m = store.metrics();
        assert!(m.hlog.corrupt_reads > 0, "[{ctx}] corrupt reads not counted");
        assert!(
            matches!(store.health(), StoreHealth::Degraded(HealthReason::CorruptRead { .. })),
            "[{ctx}] corrupt reads must degrade (only) to Degraded, got {:?}",
            store.health()
        );
        // Degraded is not read-only: new writes are still safe.
        assert!(
            session.upsert(&(KEYSPACE + 1), &7).is_ok(),
            "[{ctx}] a degraded store must still accept writes"
        );
    }
}

/// Scenario 4: the device reports out of space. The failed flush is
/// permanent (no retry can help), so the page quarantines immediately and
/// the store flips to `ReadOnly(DeviceFull)`.
#[test]
fn device_full_flips_read_only() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, fault.clone());
    let mut oracle = HashMap::new();
    let mut rng = XorShift64::new(7);
    run_ops(&store, &mut oracle, &mut rng, 200, Mix::Upserts, |_, _| true);
    store.log().shift_read_only_to_tail(None);
    store.log().wait_flush_quiesced();
    // Everything flushed so far fits; the next flush trips the limit.
    fault.domain().set_full_after_bytes(Some(0));
    run_ops(&store, &mut oracle, &mut rng, 2000, Mix::Upserts, |_, _| true);
    store.log().shift_read_only_to_tail(None);
    store.log().wait_flush_quiesced();

    assert_eq!(
        store.health(),
        StoreHealth::ReadOnly(HealthReason::DeviceFull),
        "full device must flip the store read-only"
    );
    let m = store.metrics();
    assert_eq!(m.health.reason, "device_full");
    // Full is permanent: no retry storm, immediate quarantine.
    assert!(m.hlog.pages_quarantined > 0);
    let session = store.start_session();
    assert!(matches!(session.upsert(&1, &1), Err(OpError::ReadOnly(_))));
    // Intact (still-resident) state keeps serving.
    let mut served = 0u64;
    for (&key, &want) in &oracle {
        if let Ok(Some(got)) = read_result(&session, key) {
            assert_eq!(got, want, "full-device store served a wrong value");
            served += 1;
        }
    }
    assert!(served > 0, "nothing readable after device-full flip");
}

/// Scenario 5: the WAL device dies. The next group commit fails, the
/// session surfaces the error from `wait_wal_durable`, and the store flips
/// to `ReadOnly(WalFailed)` — acked-in-memory appends can no longer be
/// made durable.
#[test]
fn wal_failure_flips_read_only() {
    use faster_integration_tests::fault_harness::wal_harness_cfg;
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let wal_fault = FaultDevice::wrap(MemDevice::new(1));
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new_with_wal(wal_harness_cfg(), CountStore, log_dev, wal_fault.clone());
    {
        let session = store.start_session();
        session.upsert(&1, &11).expect("writable");
        session.wait_wal_durable().expect("healthy WAL must commit");
    }
    assert_eq!(store.health(), StoreHealth::Healthy);

    wal_fault.domain().fail_next_writes(u32::MAX);
    let session = store.start_session();
    let _ = session.upsert(&2, &22);
    assert!(
        session.wait_wal_durable().is_err(),
        "dead WAL must fail the durability wait"
    );
    assert_eq!(
        store.health(),
        StoreHealth::ReadOnly(HealthReason::WalFailed),
        "WAL failure must flip the store read-only"
    );
    assert!(matches!(session.upsert(&3, &33), Err(OpError::ReadOnly(_))));
    // The log itself is fine: already-written state still reads back.
    assert_eq!(read_blocking(&session, 1), Some(11));
    assert_eq!(store.metrics().health.reason, "wal_failed");
}

/// Scenario 6: the degradation flip races live multi-threaded traffic.
/// Writer threads hammer the mutation API while the device dies
/// under them; the run must terminate (no allocation wedge), never panic,
/// and settle into a read-only store whose surviving state still serves.
#[test]
fn degradation_races_foreground_traffic() {
    for seed in fault_seed_range(4) {
        let ctx = format!("seed={seed}");
        let fault = FaultDevice::wrap(MemDevice::new(2));
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(harness_cfg(), CountStore, fault.clone());
        {
            let mut oracle = HashMap::new();
            run_ops(&store, &mut oracle, &mut XorShift64::new(seed), 100, Mix::Upserts, |_, _| true);
        }

        let threads: Vec<_> = (0..3u64)
            .map(|t| {
                let store = store.clone();
                let fault = fault.clone();
                std::thread::spawn(move || {
                    let session = store.start_session();
                    let mut rng = XorShift64::new((seed << 8) | t);
                    for i in 0..1500u64 {
                        // One thread kills the device mid-run.
                        if t == 0 && i == 300 {
                            fault.domain().fail_next_writes(u32::MAX);
                        }
                        let key = rng.next_u64() % KEYSPACE;
                        match rng.next_u64() % 4 {
                            0 => {
                                // The mutation may refuse once the flip
                                // lands; it must never panic.
                                let _ = session.upsert(&key, &(i | 1));
                            }
                            1 => {
                                let _ = read_result(&session, key);
                            }
                            _ => {
                                let _ = session.upsert(&key, &(i | 1));
                            }
                        }
                    }
                    session.complete_pending(true);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap_or_else(|_| panic!("[{ctx}] traffic thread panicked"));
        }
        store.log().shift_read_only_to_tail(None);
        store.log().wait_flush_quiesced();

        assert!(
            matches!(store.health(), StoreHealth::ReadOnly(_)),
            "[{ctx}] dead device must leave the store read-only, got {:?}",
            store.health()
        );
        // Post-flip: the store is still a working read path.
        let session = store.start_session();
        let mut served = 0u64;
        for key in 0..KEYSPACE {
            if let Ok(Some(_)) = read_result(&session, key) {
                served += 1;
            }
        }
        assert!(served > 0, "[{ctx}] nothing readable after the racing flip");
    }
}
