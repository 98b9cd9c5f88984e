//! Log garbage collection end to end (Appendix C): expiration and
//! roll-to-tail compaction over spilled data, interleaved with traffic.

use faster_core::{CountCrdt, CountStore, FasterKv, FasterKvConfig, Functions, Session};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::MemDevice;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

fn cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(16)
}

#[test]
fn compaction_keeps_counters_exact() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    // Counters built up over time + churn that pushes them cold.
    for round in 0..20u64 {
        for k in 0..32u64 {
            rmw_blocking(&session, k, 1);
        }
        for k in 0..200u64 {
            session.upsert(&(100_000 + round * 200 + k), &round).unwrap();
        }
    }
    store.log().flush_barrier().unwrap();
    session.refresh();
    let target = store.log().safe_read_only_address();
    let rolled = store.compact_until(target, &session);
    assert!(rolled > 0);
    for k in 0..32u64 {
        assert_eq!(read_blocking(&session, k), Some(20), "counter {k} after compaction");
    }
    // Compact a second time (idempotence at the new begin address).
    let rolled2 = store.compact_until(store.log().safe_read_only_address(), &session);
    let _ = rolled2;
    for k in 0..32u64 {
        assert_eq!(read_blocking(&session, k), Some(20), "counter {k} after second pass");
    }
}

#[test]
fn compaction_drops_deleted_keys() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    for k in 0..100u64 {
        session.upsert(&k, &(k + 1)).unwrap();
    }
    for k in 0..50u64 {
        session.delete(&k).unwrap();
    }
    for k in 10_000..13_000u64 {
        session.upsert(&k, &1).unwrap();
    }
    store.log().flush_barrier().unwrap();
    session.refresh();
    store.compact_until(store.log().safe_read_only_address(), &session);
    for k in 0..50u64 {
        assert_eq!(read_blocking(&session, k), None, "deleted key {k} must stay gone");
    }
    for k in 50..100u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 1), "live key {k}");
    }
}

#[test]
fn expiration_is_observed_lazily_by_all_ops() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    for k in 0..100u64 {
        session.upsert(&k, &k).unwrap();
    }
    for k in 10_000..14_000u64 {
        session.upsert(&k, &1).unwrap();
    }
    store.log().flush_barrier().unwrap();
    let head = store.log().head_address();
    assert!(head.raw() > 0);
    store.truncate_until(head);
    // Reads below begin: absent. RMW below begin: reinitialize. Upserts: fine.
    assert_eq!(read_blocking(&session, 1), None);
    rmw_blocking(&session, 2, 5);
    assert_eq!(read_blocking(&session, 2), Some(5), "RMW of expired key reinitializes");
    session.upsert(&3, &33).unwrap();
    assert_eq!(read_blocking(&session, 3), Some(33));
}

/// Writes to keys `0..keys` for `rounds` rounds on one session — each key
/// read back first, to the value `write(session, key, last)` returned for
/// it last time — while another session rolls the read-only prefix to the
/// tail and truncates it. Each pass rescans from `begin`, so the cost of a
/// pass grows with the log: the compactor stops after `MAX_PASSES` passes
/// over a non-empty prefix.
fn race_compactor<F: Functions<u64, u64, Input = u64, Output = u64>>(
    functions: F,
    keys: u64,
    rounds: u64,
    write: impl Fn(&Session<u64, u64, F>, u64, Option<u64>) -> u64,
) {
    const MAX_PASSES: u32 = 200;
    let store = FasterKv::new(cfg(), functions, MemDevice::new(2));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = store.start_session();
            let mut passes = 0;
            while passes < MAX_PASSES && !stop.load(Relaxed) {
                session.refresh();
                let (until, begin) = (store.log().safe_read_only_address(), store.log().begin_address());
                if until > begin {
                    store.compact_until(until, &session);
                    passes += 1;
                }
            }
        });
        let session = store.start_session();
        let mut last = vec![None; keys as usize];
        for round in 0..rounds {
            for k in 0..keys {
                let (got, want) = (read_blocking(&session, k), last[k as usize]);
                if got != want {
                    stop.store(true, Relaxed);
                    panic!("round {round} key {k}: read {got:?}, last wrote {want:?}");
                }
                last[k as usize] = Some(write(&session, k, want));
            }
        }
        stop.store(true, Relaxed);
    });
}

/// A roll published over an entry that moved since its liveness walk would
/// resurrect a replaced value.
#[test]
fn compaction_never_resurrects_a_replaced_value() {
    race_compactor(CountStore, 1000, 30, |session, k, last| {
        let v = last.map_or(k + 1, |v| v + 1000);
        session.upsert(&k, &v).expect("writable");
        v
    });
}

/// A base rolled with a delta folded in that an RMW still updates in place
/// (a move of no entry) would lose the increment. The non-mergeable counter
/// races its pending RMWs against the same rolls, and answers each with the
/// count it made.
#[test]
fn compaction_never_loses_an_increment() {
    fn increments<F: Functions<u64, u64, Input = u64, Output = u64>>(functions: F) {
        let filler = std::cell::Cell::new(1u64 << 32);
        race_compactor(functions, 64, 300, |session, k, last| {
            let answered = rmw_blocking(session, k, 1);
            let count = last.unwrap_or(0) + 1;
            // A CRDT delta answers no value.
            assert!(answered.is_none() || answered == Some(count), "key {k}: {answered:?}");
            // A fresh key moves the tail, so bases and deltas turn read-only.
            session.upsert(&filler.replace(filler.get() + 1), &0).expect("writable");
            count
        });
    }
    increments(CountCrdt);
    increments(CountStore);
}
