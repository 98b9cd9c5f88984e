//! Crash-consistency fault-injection tests: torn writes, crash-point
//! sweeps, transient-error schedules, and recovery invariant checking.
//!
//! The sweep is parameterized by `FASTER_FAULT_SEED_BASE` /
//! `FASTER_FAULT_SEEDS` so CI shards cover disjoint schedules; any failure
//! prints its seed and script for local replay.

use faster_core::checkpoint::CheckpointData;
use faster_core::{CountStore, FasterKv, OpError, Outcome};
use faster_integration_tests::fault_harness::{
    fault_seed_range, harness_cfg, sweep, Axis, CrashPoint, Mix, Step, KEYSPACE, PHASE1_OPS,
};
use faster_integration_tests::read_blocking;
use faster_storage::{
    CompletionRing, Cqe, Device, FaultDevice, FileDevice, IoError, MemDevice, ReadFaultRate,
    Sqe, TornWrite,
};
use faster_util::Address;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on post-checkpoint operations: enough to trigger several
/// page flushes (and therefore reach any swept crash point), bounded so a
/// crashed device, whose frozen `flushed_until` eventually wedges
/// `allocate()`, is never asked for more than a buffer's worth of tail.
const PHASE2_OPS_MAX: u64 = 3000;

/// A checkpoint, then churn with the crash armed until it fires. One crash
/// in four also loses an acked write before the crash point: recovery must
/// not depend on it, since everything it held was post-t2.
fn script(seed: u64, point: Option<CrashPoint>) -> Vec<Step> {
    let mut steps = vec![Step::Ops { n: PHASE1_OPS, mix: Mix::All }, Step::Checkpoint];
    if let Some(CrashPoint::Write(k, _)) = point {
        if k > 0 && (seed + k / 2).is_multiple_of(4) {
            steps.push(Step::DropWrite(faster_util::hash_u64(seed ^ k) % k));
        }
    }
    steps.extend([Step::Arm(point), Step::Ops { n: PHASE2_OPS_MAX, mix: Mix::All }]);
    steps
}

/// The tentpole sweep: 10 seeds x 10 crash points by default (CI shards
/// raise the seed count), each run crashing the device mid-flush with a
/// varied torn-write model and occasionally a dropped (acknowledged but
/// unpersisted) flush before the crash. Every run must recover to exactly
/// the oracle snapshot at checkpoint time.
#[test]
fn crash_point_sweep_preserves_checkpoint_prefix() {
    let mut runs = 0u64;
    let mut fired = 0u64;
    for seed in fault_seed_range(10) {
        // Crash points fan out across the post-checkpoint flush traffic.
        let points = (0..10).map(|i| i * 2 + seed % 3);
        let axis = Axis::Writes { torn_bytes: 900 };
        for (_, report) in sweep(seed, false, axis, points, |p| script(seed, p)) {
            runs += 1;
            fired += report.crashed as u64;
            assert!(report.snapshot_keys > 0, "seed {seed}: empty oracle snapshot");
        }
    }
    // Crash points are swept over real flush traffic: if most never fire,
    // the sweep is vacuous (e.g. the workload stopped allocating).
    assert!(runs >= 100, "sweep ran only {runs} cases");
    assert!(
        fired * 2 >= runs,
        "only {fired}/{runs} crash points fired; sweep is not exercising flush traffic"
    );
}

/// Builds a store whose early keys have been evicted to the device, so
/// reads of them must take the pending I/O path.
fn evicted_store(
    device: std::sync::Arc<FaultDevice>,
) -> FasterKv<u64, u64, CountStore> {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, device);
    let session = store.start_session();
    for k in 0..KEYSPACE {
        session.upsert(&k, &(k * 10 + 1)).expect("writable");
    }
    // Push the early records out of the in-memory buffer.
    for k in 10_000..14_000u64 {
        session.upsert(&k, &k).expect("writable");
    }
    session.complete_pending(true);
    drop(session);
    store.log().flush_barrier().unwrap();
    store
}

/// Reads through transient faults by re-issuing on a failed completion.
/// Returns the final result; panics only if the op never completes at all.
fn read_through_faults(
    session: &faster_core::Session<u64, u64, CountStore>,
    key: u64,
) -> Option<u64> {
    for _ in 0..64 {
        match session.read(&key, &0) {
            Ok(Outcome::Value(v)) => return Some(v),
            Err(OpError::NotFound) => return None,
            Err(OpError::Pending(id)) => {
                let mut failed = false;
                for c in session.complete_pending(true) {
                    if c.id != id {
                        continue;
                    }
                    match c.result {
                        Ok(Outcome::Value(v)) => return Some(v),
                        Err(OpError::NotFound) => return None,
                        Err(OpError::Io(_)) => failed = true,
                        other => panic!("pending read {id} completed oddly: {other:?}"),
                    }
                }
                assert!(failed, "pending read {id} of key {key} vanished");
            }
            other => panic!("read of {key} refused: {other:?}"),
        }
    }
    panic!("read of key {key} failed 64 consecutive retry rounds");
}

/// Satellite regression: a single transient read fault must not surface as
/// "key absent". Before the bounded-retry fix, `complete_pending` answered
/// `None` for any `IoError`, silently losing durable data.
#[test]
fn transient_read_fault_is_not_key_absent() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store = evicted_store(fault.clone());
    let session = store.start_session();
    for key in [3u64, 40, 99] {
        fault.domain().fail_next_reads(1);
        assert_eq!(
            read_blocking(&session, key),
            Some(key * 10 + 1),
            "one transient fault turned durable key {key} into a false absent"
        );
    }
    // Scripted single-read faults behave identically.
    fault.domain().fail_read_at(0);
    assert_eq!(read_blocking(&session, 7), Some(71));
}

/// A sustained (but probabilistic) fault rate: every read retries through
/// it and lands the true value — zero false "key absent" answers.
#[test]
fn read_fault_rate_never_fabricates_absence() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store = evicted_store(fault.clone());
    fault.domain().set_read_fault_rate(Some(ReadFaultRate { seed: 0xFA17, num: 1, den: 4 }));
    let session = store.start_session();
    for key in 0..KEYSPACE {
        assert_eq!(
            read_through_faults(&session, key),
            Some(key * 10 + 1),
            "key {key} lost under a 1/4 transient read-fault rate"
        );
    }
    assert!(fault.domain().reads_issued() > 0, "workload never touched the device");
}

/// When faults are persistent the retry budget must exhaust into an
/// explicit `Err(OpError::Io)` completion — never a fabricated `NotFound`.
#[test]
fn exhausted_retries_report_failure_not_absence() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store = evicted_store(fault.clone());
    fault.domain().set_read_fault_rate(Some(ReadFaultRate { seed: 1, num: 1, den: 1 }));
    let session = store.start_session();
    match session.read(&5, &0) {
        Err(OpError::Pending(id)) => {
            let done = session.complete_pending(true);
            assert!(
                done.iter().any(|c| c.id == id && matches!(c.result, Err(OpError::Io(_)))),
                "persistently failing read must complete as an I/O error, got {done:?}"
            );
            assert!(
                !done.iter().any(|c| c.id == id && matches!(c.result, Err(OpError::NotFound))),
                "persistently failing read fabricated a false absent"
            );
        }
        other => panic!("key 5 should be disk-resident (pending read), got {other:?}"),
    }
    assert_eq!(session.pending_count(), 0);
    // Clearing the fault restores the key: nothing was lost.
    fault.domain().set_read_fault_rate(None);
    assert_eq!(read_blocking(&session, 5), Some(51));
}

/// Satellite: real-file checkpoint -> process "death" (drop) -> reopen ->
/// recover, with `DeviceStats` proving traffic actually hit the file.
#[test]
fn file_device_checkpoint_recovery_round_trip() {
    let mut path = std::env::temp_dir();
    path.push(format!("faster-recovery-faults-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let ckpt_bytes;
    {
        let device = FileDevice::create(&path, 2).expect("create log file");
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(harness_cfg(), CountStore, device.clone());
        {
            let session = store.start_session();
            for k in 0..600u64 {
                session.upsert(&k, &(k * 3 + 1)).expect("writable");
            }
            session.complete_pending(true);
        }
        let ckpt = store.checkpoint().expect("checkpoint on a file device");
        ckpt_bytes = ckpt.to_bytes();
        let stats = device.stats();
        assert!(stats.writes > 0, "checkpoint flushed no pages to the file");
        assert!(
            stats.bytes_written >= 600 * 24,
            "flushed {} bytes, less than the records written",
            stats.bytes_written
        );
        drop(store);
    }

    // "Reboot": reopen the file cold and recover from the serialized
    // checkpoint alone.
    let ckpt = CheckpointData::from_bytes(&ckpt_bytes).expect("checkpoint bytes parse");
    let device = FileDevice::open(&path, 2).expect("reopen log file");
    assert_eq!(device.stats().reads, 0);
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(harness_cfg(), CountStore, device.clone(), &ckpt);
    let replay_stats = device.stats();
    assert!(replay_stats.reads > 0, "recovery replay read nothing from the file");
    {
        let session = store.start_session();
        for k in 0..600u64 {
            assert_eq!(read_blocking(&session, k), Some(k * 3 + 1), "key {k} after reopen");
        }
    }
    let final_stats = device.stats();
    assert!(final_stats.bytes_read >= replay_stats.bytes_read);
    drop(store);
    let _ = std::fs::remove_file(&path);
}

/// Drains `ring` until exactly `n` CQEs have arrived, returned sorted by
/// SQE id (device completions may land out of submission order).
fn reap_exactly(ring: &CompletionRing, n: usize) -> Vec<Cqe> {
    let mut out = Vec::with_capacity(n);
    let mut buf = Vec::new();
    while out.len() < n {
        if ring.reap(&mut buf) == 0 {
            ring.wait_nonempty(Duration::from_millis(5));
            continue;
        }
        out.append(&mut buf);
    }
    assert_eq!(out.len(), n, "reaped more CQEs than SQEs submitted");
    out.sort_by_key(|c| c.id);
    out
}

/// Satellite: transient read faults fire on SQE submission — the scripted
/// count is consumed in submission order and each fault arrives as an
/// error CQE, never a lost completion.
#[test]
fn ring_read_faults_fire_on_sqe_submission() {
    let fault = FaultDevice::wrap(MemDevice::new(1));
    let ring = Arc::new(CompletionRing::new());
    fault.submit(Sqe::write(0, 0, vec![0xAB; 64], &ring));
    assert!(reap_exactly(&ring, 1)[0].result.is_ok());

    fault.domain().fail_next_reads(2);
    for id in 1..=3u64 {
        fault.submit(Sqe::read(id, 0, 64, &ring));
    }
    let cqes = reap_exactly(&ring, 3);
    for cqe in &cqes[..2] {
        assert!(
            matches!(&cqe.result, Err(IoError::Failed(m)) if m.contains("read fault")),
            "SQE {} should have drawn an injected fault, got {:?}",
            cqe.id,
            cqe.result
        );
    }
    assert_eq!(cqes[2].result.as_deref().expect("third read retries clean"), &[0xAB; 64][..]);
    assert_eq!(fault.domain().reads_issued(), 3, "every SQE must consume a read sequence number");
}

/// Satellite: a crash point armed on the write sequence space fires on SQE
/// submission, persists exactly the torn prefix to the inner device, and
/// refuses every subsequent SQE — the prefix-persisted model.
#[test]
fn ring_write_crash_point_tears_exact_prefix() {
    let mem = MemDevice::new(1);
    let fault = FaultDevice::wrap(mem.clone());
    let ring = Arc::new(CompletionRing::new());
    fault.domain().arm_crash(2, TornWrite::Bytes(24));

    for (id, fill) in [(0u64, 1u8), (1, 2), (2, 3), (3, 4)] {
        fault.submit(Sqe::write(id, id * 64, vec![fill; 64], &ring));
    }
    let cqes = reap_exactly(&ring, 4);
    assert!(cqes[0].result.is_ok());
    assert!(cqes[1].result.is_ok());
    assert!(matches!(&cqes[2].result, Err(IoError::Failed(m)) if m.contains("torn write")));
    assert!(matches!(&cqes[3].result, Err(IoError::Failed(m)) if m.contains("crashed")));
    assert!(fault.domain().crashed());

    // Reads through the crashed wrapper are refused too.
    fault.submit(Sqe::read(9, 0, 8, &ring));
    assert!(
        matches!(&reap_exactly(&ring, 1)[0].result, Err(IoError::Failed(m)) if m.contains("crashed"))
    );

    // The inner device holds exactly the post-crash image: writes 0 and 1
    // in full, 24 bytes of write 2, nothing after.
    let check = Arc::new(CompletionRing::new());
    mem.submit(Sqe::read(0, 0, 64, &check));
    mem.submit(Sqe::read(1, 64, 64, &check));
    mem.submit(Sqe::read(2, 128, 24, &check));
    let back = reap_exactly(&check, 3);
    assert_eq!(back[0].result.as_deref().unwrap(), &[1u8; 64][..]);
    assert_eq!(back[1].result.as_deref().unwrap(), &[2u8; 64][..]);
    assert_eq!(back[2].result.as_deref().unwrap(), &[3u8; 24][..]);
    mem.submit(Sqe::read(3, 128, 64, &check));
    if let Ok(bytes) = &reap_exactly(&check, 1)[0].result {
        assert_ne!(&bytes[24..], &[3u8; 40][..], "bytes past the torn prefix persisted");
    }
}

/// Satellite: writes completing into different rings (a shared one, and
/// the private one behind `write_blocking`) draw from one write sequence
/// space, so a crash point lands on the same write whoever submits it, and
/// after the crash every submitter is refused.
#[test]
fn every_ring_shares_one_sequence_space() {
    let fault = FaultDevice::wrap(MemDevice::new(1));
    let ring = Arc::new(CompletionRing::new());
    fault.domain().arm_crash(3, TornWrite::Nothing);

    // wsn 0 (ring), 1 (blocking), 2 (ring), 3 (blocking — the crash point).
    fault.submit(Sqe::write(0, 0, vec![1; 32], &ring));
    assert_eq!(fault.write_blocking(32, vec![2; 32]), Ok(()));
    fault.submit(Sqe::write(2, 64, vec![3; 32], &ring));
    let crash = fault.write_blocking(96, vec![4; 32]);

    assert!(reap_exactly(&ring, 2).iter().all(|c| c.result.is_ok()));
    assert!(matches!(crash, Err(IoError::Failed(m)) if m.contains("torn write")));
    assert!(fault.domain().crashed());

    // Post-crash refusal, whichever ring the CQE is bound for.
    fault.submit(Sqe::write(9, 256, vec![9; 8], &ring));
    assert!(reap_exactly(&ring, 1)[0].result.is_err());
    assert!(fault.write_blocking(256, vec![9; 8]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Satellite: corruption of serialized checkpoint bytes — truncation at
    /// any point or any single bit flip — must yield a typed
    /// `CheckpointError` (or, in the astronomically unlikely
    /// checksum-collision case, the exact original), and must never panic or
    /// produce a differing checkpoint.
    #[test]
    fn corrupted_checkpoint_bytes_never_parse_to_garbage(
        t1 in 0u64..Address::MASK,
        span in 0u64..1_000_000,
        begin in 0u64..Address::MASK,
        k_bits in 1u8..16,
        tag_bits in 1u8..15,
        entries in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
        cut_raw in any::<u64>(),
        flip_raw in any::<u64>(),
    ) {
        let t2 = t1.saturating_add(span) & Address::MASK;
        let data = CheckpointData {
            t1: Address::new(t1),
            t2: Address::new(t2),
            begin: Address::new(begin.min(t1)),
            index: faster_index::IndexCheckpoint { k_bits, tag_bits, entries },
        };
        let bytes = data.to_bytes();
        // Pristine bytes round-trip exactly.
        prop_assert_eq!(CheckpointData::from_bytes(&bytes).as_ref().ok(), Some(&data));

        // Truncation: every strict prefix is rejected (with a typed error)
        // or identical.
        let cut = (cut_raw % bytes.len() as u64) as usize;
        match CheckpointData::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(&parsed, &data, "truncated parse at cut {}", cut),
        }

        // Single bit flip anywhere: rejected or identical.
        let mut flipped = bytes.clone();
        let bit = (flip_raw % (bytes.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        match CheckpointData::from_bytes(&flipped) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(&parsed, &data, "bit flip {} parsed to garbage", bit),
        }
    }
}
