//! CRDT (mergeable RMW) integration: delta records across regions and their
//! reconciliation on reads (§6.3).

use faster_core::{CountCrdt, FasterKv, FasterKvConfig};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::MemDevice;
use std::sync::{Arc, Barrier};

fn cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16)
}

#[test]
fn deltas_on_cold_keys_reconcile() {
    let store: FasterKv<u64, u64, CountCrdt> = FasterKv::new(cfg(), CountCrdt, MemDevice::new(2));
    let session = store.start_session();
    rmw_blocking(&session, 1, 100); // base
    // Evict key 1 far below head.
    for k in 1000..5000u64 {
        session.upsert(&k, &k).expect("writable");
    }
    store.log().flush_barrier().unwrap();
    // Three cold increments: the first appends a delta without I/O; the
    // delta lands at the tail (mutable), so the rest update it in place.
    let reads_before = store.log().device().stats().reads;
    let m0 = store.metrics().sessions.totals;
    for _ in 0..3 {
        assert!(session.rmw(&1, &10).is_ok());
    }
    assert_eq!(store.log().device().stats().reads, reads_before);
    let m1 = store.metrics().sessions.totals;
    assert!(m1.deltas - m0.deltas >= 1, "totals: {m1:?}");
    assert!(m1.in_place - m0.in_place >= 2, "totals: {m1:?}");
    // The read walks delta(s) then the disk base and merges.
    assert_eq!(read_blocking(&session, 1), Some(130));
}

#[test]
fn concurrent_crdt_increments_exact_across_eviction() {
    let store: FasterKv<u64, u64, CountCrdt> = FasterKv::new(cfg(), CountCrdt, MemDevice::new(2));
    let threads = 4u64;
    let per = 3_000u64;
    let keys = 8u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = store.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(t + 21);
                barrier.wait();
                for i in 0..per {
                    let k = rng.next_below(keys);
                    rmw_blocking(&session, k, 1);
                    if i % 100 == 0 {
                        // Churn cold keys so the counted keys cycle through
                        // every region (mutable, fuzzy, read-only, disk).
                        session.upsert(&(10_000 + t * per + i), &0).expect("writable");
                    }
                }
                session.complete_pending(true);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let session = store.start_session();
    let total: u64 = (0..keys).map(|k| read_blocking(&session, k).unwrap_or(0)).sum();
    assert_eq!(total, threads * per, "CRDT increments must merge exactly");
}

#[test]
fn delete_then_crdt_restarts_from_identity() {
    let store: FasterKv<u64, u64, CountCrdt> = FasterKv::new(cfg(), CountCrdt, MemDevice::new(1));
    let session = store.start_session();
    rmw_blocking(&session, 3, 50);
    session.delete(&3).unwrap();
    rmw_blocking(&session, 3, 5);
    assert_eq!(read_blocking(&session, 3), Some(5), "post-delete counter restarts");
}

/// Compaction rolls what its liveness walk saw: a base on disk with a
/// newer delta above it rolls as `merge(base, delta)`, not as the bare
/// base, which would land above the delta and hide it from every read.
#[test]
fn compaction_keeps_deltas_above_their_base() {
    let store: FasterKv<u64, u64, CountCrdt> = FasterKv::new(cfg(), CountCrdt, MemDevice::new(2));
    let session = store.start_session();
    session.upsert(&7, &10).expect("writable");
    for k in 1000..3000u64 {
        session.upsert(&k, &k).expect("writable");
    }
    store.log().flush_barrier().unwrap();
    let mid = store.log().tail_address();
    // The base is on disk, so the increment appends a delta.
    rmw_blocking(&session, 7, 1);
    for k in 3000..5000u64 {
        session.upsert(&k, &k).expect("writable");
    }
    store.log().flush_barrier().unwrap();
    store.compact_until(mid, &session);
    assert_eq!(read_blocking(&session, 7), Some(11));
}
