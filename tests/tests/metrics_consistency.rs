//! Metrics-consistency oracle (DESIGN.md §8): a seeded concurrent workload
//! whose exact operation counts are known, followed by assertions on the
//! counter identities the instrumentation guarantees:
//!
//! * `reads == rc_hits + mem_reads + reads_pending` — every public read is
//!   classified exactly once, at its first synchronous return.
//! * `writes == in_place + rcu + appends` — every successful mutation lands
//!   in exactly one update-scheme bucket.
//! * `deltas ⊆ appends`, `io_issued == io_completed` once drained, and (with
//!   a read cache) `hits + misses == reads`.
//!
//! With `--features metrics-off` every counter is compiled to a no-op, so
//! the exact-count assertions are skipped (the identities hold trivially).

use faster_core::{
    BatchOp, CountStore, FasterKv, FasterKvConfig, HealthReason, OpError, Outcome, StoreHealth,
};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::fault_harness::harness_cfg;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::{FaultDevice, MemDevice};
use std::sync::{Arc, Barrier};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 6_000;
const KEYS_PER_THREAD: u64 = 512;

fn small_cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        // Small buffer so the workload spills and reads go pending.
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(64)
}

/// Per-thread tally of public operations actually issued.
#[derive(Default, Clone, Copy)]
struct Oracle {
    reads: u64,
    upserts: u64,
    rmws: u64,
    deletes: u64,
}

#[test]
fn counter_identities_hold_under_concurrency() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(small_cfg(), CountStore, MemDevice::new(2));
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = store.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(0xC0FFEE + t);
                let base = t * KEYS_PER_THREAD;
                let mut o = Oracle::default();
                barrier.wait();
                for _ in 0..OPS_PER_THREAD {
                    let k = base + rng.next_below(KEYS_PER_THREAD);
                    match rng.next_below(10) {
                        0..=3 => {
                            session.upsert(&k, &k).unwrap();
                            o.upserts += 1;
                        }
                        4..=6 => {
                            rmw_blocking(&session, k, 1);
                            o.rmws += 1;
                        }
                        7..=8 => {
                            read_blocking(&session, k);
                            o.reads += 1;
                        }
                        _ => {
                            session.delete(&k).unwrap();
                            o.deletes += 1;
                        }
                    }
                }
                session.complete_pending(true);
                o
            })
        })
        .collect();
    let mut exp = Oracle::default();
    for h in handles {
        let o = h.join().unwrap();
        exp.reads += o.reads;
        exp.upserts += o.upserts;
        exp.rmws += o.rmws;
        exp.deletes += o.deletes;
    }

    // Snapshot after every worker session has retired; totals fold the
    // retired accumulator, so nothing is lost with the sessions gone.
    let m = store.metrics();
    let t = &m.sessions.totals;

    // Structural identities: hold under any feature combination (under
    // `metrics-off` both sides are zero).
    assert_eq!(
        t.reads,
        t.rc_hits + t.mem_reads + t.reads_pending,
        "read classification identity; totals: {t:?}"
    );
    assert_eq!(
        t.writes,
        t.in_place + t.rcu + t.appends,
        "write update-scheme identity; totals: {t:?}"
    );
    assert!(t.deltas <= t.appends, "deltas are a subset of appends; totals: {t:?}");
    assert_eq!(t.io_issued, t.io_completed, "all pending I/O drained; totals: {t:?}");
    assert_eq!(t.io_failed, 0, "MemDevice never fails; totals: {t:?}");
    assert_eq!(m.sessions.queue_depth(), 0);
    assert!(m.read_cache.is_none(), "no cache configured");
    assert_eq!(m.sessions.live_sessions, 0, "worker sessions retired");

    // Gauges are filled from the live structures regardless of features.
    assert_eq!(m.index.buckets, 1u64 << m.index.k_bits);
    assert!(m.epoch.current >= m.epoch.safe);
    assert!(m.hlog.tail > 0, "tail gauge populated");
    assert!(m.hlog.tail >= m.hlog.read_only && m.hlog.read_only >= m.hlog.head);

    if cfg!(feature = "metrics-off") {
        return; // counters are compiled out; the exact counts below are all zero
    }

    // Exact op accounting against the oracle.
    assert_eq!(t.reads, exp.reads);
    assert_eq!(t.upserts, exp.upserts);
    assert_eq!(t.rmws, exp.rmws);
    assert_eq!(t.deletes, exp.deletes);
    assert_eq!(t.rc_hits, 0, "no read cache, so no rc-served reads");

    // Every upsert and every completed RMW writes exactly once; deletes
    // write at most once (a miss appends no tombstone).
    assert!(t.writes >= t.upserts + t.rmws, "totals: {t:?}");
    assert!(t.writes <= t.upserts + t.rmws + t.deletes, "totals: {t:?}");

    // The store is sized so the workload actually exercises every path.
    assert!(t.reads_pending > 0, "workload never spilled: {t:?}");
    assert!(t.in_place > 0 && t.appends > 0, "totals: {t:?}");
    assert!(t.io_issued > 0);
}

#[test]
fn read_cache_hit_accounting_matches_session_classification() {
    let cfg = small_cfg().with_read_cache(HLogConfig {
        page_bits: 12,
        buffer_pages: 8,
        mutable_pages: 4,
        io_threads: 1,
    });
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    let session = store.start_session();
    for k in 0..100u64 {
        session.upsert(&k, &(k + 500)).unwrap();
    }
    for k in 10_000..14_000u64 {
        session.upsert(&k, &1).unwrap(); // push 0..100 to disk
    }
    store.log().flush_barrier().unwrap();

    // First pass populates the cache from disk; second pass hits it.
    for k in 0..50u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 500));
    }
    for k in 0..50u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 500));
    }

    let m = store.metrics();
    let t = &m.sessions.totals;
    let rc = m.read_cache.as_ref().expect("cache configured");
    assert_eq!(
        rc.hits + rc.misses,
        t.reads,
        "every read while caching is on is a hit or a miss; rc: {rc:?}, totals: {t:?}"
    );
    assert_eq!(rc.hits, t.rc_hits, "cache hits mirror session classification");
    assert_eq!(t.reads, t.rc_hits + t.mem_reads + t.reads_pending);
    if cfg!(feature = "metrics-off") {
        return;
    }
    assert_eq!(t.reads, 100);
    assert!(rc.inserts > 0, "cold reads populated the cache: {rc:?}");
    assert!(t.rc_hits > 0, "second pass hit the cache: {t:?}");
    assert!(rc.hit_rate() > 0.0);
}

#[test]
fn batched_ops_keep_the_identities() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(small_cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    let keys: Vec<u64> = (0..256u64).collect();
    let upserts: Vec<_> = keys.iter().map(|&key| BatchOp::Upsert { key, value: key * 2 }).collect();
    assert!(session.execute_batch(&upserts).iter().all(|r| *r == Ok(Outcome::Done)));
    for k in 5_000..9_000u64 {
        session.upsert(&k, &1).unwrap(); // spill so some batched reads go pending
    }
    store.log().flush_barrier().unwrap();

    let reads: Vec<_> = keys.iter().map(|&key| BatchOp::Read { key, input: 0 }).collect();
    let results = session.execute_batch(&reads);
    assert_eq!(results.len(), keys.len());
    session.complete_pending(true);

    let mixed: Vec<BatchOp<u64, u64, u64>> = (0..64u64)
        .map(|i| match i % 4 {
            0 => BatchOp::Upsert { key: i, value: i },
            1 => BatchOp::Rmw { key: i, input: 1 },
            2 => BatchOp::Read { key: i, input: 0 },
            _ => BatchOp::Delete { key: i },
        })
        .collect();
    let outcomes = session.execute_batch(&mixed);
    assert_eq!(outcomes.len(), mixed.len());
    session.complete_pending(true);

    let m = store.metrics();
    let t = &m.sessions.totals;
    assert_eq!(t.reads, t.rc_hits + t.mem_reads + t.reads_pending, "totals: {t:?}");
    assert_eq!(t.writes, t.in_place + t.rcu + t.appends, "totals: {t:?}");
    assert_eq!(t.io_issued, t.io_completed);
    if cfg!(feature = "metrics-off") {
        return;
    }
    assert_eq!(t.batches, 3, "upserts, reads, mixed");
    assert_eq!(t.reads, 256 + 16);
    assert_eq!(t.upserts, 256 + 4_000 + 16);
    assert!(t.reads_pending > 0, "batched reads straddled the disk: {t:?}");

    // A batched read probes the index once: its stage-2 probe is the one
    // its walk starts from.
    let resident: Vec<_> = (8_936..9_000u64).map(|key| BatchOp::Read { key, input: 0 }).collect();
    let before = store.metrics().index.probes;
    let results = session.execute_batch(&resident);
    assert!(results.iter().all(|r| *r == Ok(Outcome::Value(1))), "{results:?}");
    assert_eq!(store.metrics().index.probes - before, resident.len() as u64);
}

/// A mutation the read-only gate refuses is no op on either surface:
/// `execute_batch` counts exactly what the scalar calls count.
#[test]
fn refused_mutations_count_alike_batched_and_scalar() {
    let fault = FaultDevice::wrap(MemDevice::new(2));
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(harness_cfg(), CountStore, fault.clone());
    let session = store.start_session();
    for k in 0..200u64 {
        session.upsert(&k, &1).unwrap();
    }
    store.log().shift_read_only_to_tail(None);
    store.log().wait_flush_quiesced();
    // Everything flushed so far fits; the next flush trips the limit.
    fault.domain().set_full_after_bytes(Some(0));
    for k in 0..2_000u64 {
        let _ = session.upsert(&k, &2);
    }
    store.log().shift_read_only_to_tail(None);
    store.log().wait_flush_quiesced();
    assert_eq!(store.health(), StoreHealth::ReadOnly(HealthReason::DeviceFull));

    // The op counters both surfaces must move alike.
    let counts = || {
        let t = store.metrics().sessions.totals;
        [t.reads, t.upserts, t.rmws, t.deletes, t.writes]
    };
    let since = |before: [u64; 5]| {
        let now = counts();
        std::array::from_fn::<u64, 5, _>(|i| now[i] - before[i])
    };
    let before = counts();
    let ops = [
        BatchOp::Read { key: 1, input: 0 },
        BatchOp::Upsert { key: 1, value: 3 },
        BatchOp::Rmw { key: 1, input: 3 },
        BatchOp::Delete { key: 1 },
    ];
    let out = session.execute_batch(&ops);
    assert!(out[1..].iter().all(|r| matches!(r, Err(OpError::ReadOnly(_)))), "{out:?}");
    session.complete_pending(true);
    let batched = since(before);

    let scalar = store.start_session();
    let before = counts();
    let _ = scalar.read(&1, &0);
    assert!(matches!(scalar.upsert(&1, &3), Err(OpError::ReadOnly(_))));
    assert!(matches!(scalar.rmw(&1, &3), Err(OpError::ReadOnly(_))));
    assert!(matches!(scalar.delete(&1), Err(OpError::ReadOnly(_))));
    scalar.complete_pending(true);
    assert_eq!(batched, since(before), "[reads, upserts, rmws, deletes, writes]");
    if !cfg!(feature = "metrics-off") {
        assert_eq!(batched, [1, 0, 0, 0, 0]);
    }
}

/// Scalar ops are the only timed ones, so under `metrics-timing` each
/// histogram's population must equal the matching op counter exactly.
#[cfg(all(feature = "metrics-timing", not(feature = "metrics-off")))]
#[test]
fn latency_histograms_count_every_scalar_op() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(small_cfg(), CountStore, MemDevice::new(1));
    let session = store.start_session();
    for k in 0..100u64 {
        session.upsert(&k, &k);
    }
    for k in 0..50u64 {
        rmw_blocking(&session, k, 1);
    }
    for k in 0..70u64 {
        read_blocking(&session, k);
    }
    for k in 0..10u64 {
        session.delete(&k);
    }
    session.complete_pending(true);

    let m = store.metrics();
    let lat = m.sessions.latency.as_ref().expect("timing feature + latency enabled");
    assert_eq!(lat.upsert.total, 100);
    assert_eq!(lat.rmw.total, 50);
    assert_eq!(lat.read.total, 70);
    assert_eq!(lat.delete.total, 10);
    assert!(lat.read.max >= lat.read.p50());
}
