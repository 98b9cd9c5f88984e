//! Cross-crate concurrency: multiple sessions, mixed operations, spilling
//! log, and epoch-coordinated maintenance all at once.

use faster_core::{CountCrdt, CountStore, FasterKv, FasterKvConfig, Functions, OpError};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::read_blocking;
use faster_storage::MemDevice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn spilling_config() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 13, buffer_pages: 8, mutable_pages: 6, io_threads: 2 })
        .with_max_sessions(32)
        .with_refresh_interval(64)
}

/// Counted increments beside churn and reads, on the CRDT counter (cold
/// RMWs append deltas) and on the plain one (cold RMWs go pending).
#[test]
fn mixed_workload_with_spill_is_exact() {
    mixed_workload_is_exact(CountCrdt);
    mixed_workload_is_exact(CountStore);
}

fn mixed_workload_is_exact<F: Functions<u64, u64, Input = u64, Output = u64>>(functions: F) {
    let store = FasterKv::new(spilling_config(), functions, MemDevice::new(2));
    let threads = 6u64;
    let per_thread = 8_000u64;
    let counted_keys = 64u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let increments = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = store.clone();
            let barrier = barrier.clone();
            let increments = increments.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(t + 11);
                barrier.wait();
                for i in 0..per_thread {
                    match rng.next_below(10) {
                        // 60%: counted increments on the hot keys.
                        0..=5 => {
                            let k = rng.next_below(counted_keys);
                            if let Err(OpError::Pending(_)) = session.rmw(&k, &1) {
                                session.complete_pending(true);
                            }
                            increments.fetch_add(1, Ordering::Relaxed);
                        }
                        // 30%: churn writes to cold keys (drives eviction).
                        6..=8 => {
                            let k = 1_000_000 + t * per_thread + i;
                            session.upsert(&k, &i).unwrap();
                        }
                        // 10%: reads anywhere.
                        _ => {
                            let k = rng.next_below(counted_keys * 4);
                            let _ = session.read(&k, &0);
                            session.complete_pending(false);
                        }
                    }
                }
                session.complete_pending(true);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0, "workload must spill");
    let session = store.start_session();
    let mut total = 0u64;
    for k in 0..counted_keys {
        total += read_blocking(&session, k).unwrap_or(0);
    }
    assert_eq!(total, increments.load(Ordering::Relaxed), "all increments accounted");
}

#[test]
fn sessions_register_and_release() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(spilling_config(), CountStore, MemDevice::new(1));
    assert_eq!(store.epoch().active_threads(), 0);
    {
        let _s1 = store.start_session();
        let _s2 = store.start_session();
        assert_eq!(store.epoch().active_threads(), 2);
    }
    assert_eq!(store.epoch().active_threads(), 0);
    // Session slots are reusable indefinitely.
    for _ in 0..100 {
        let s = store.start_session();
        s.upsert(&1, &1).unwrap();
    }
    assert_eq!(store.epoch().active_threads(), 0);
}

#[test]
fn concurrent_deletes_and_inserts_converge() {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(spilling_config(), CountStore, MemDevice::new(2));
    let threads = 4;
    let keys = 32u64;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let store = store.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(t + 5);
                barrier.wait();
                for _ in 0..5_000 {
                    let k = rng.next_below(keys);
                    if rng.next_below(2) == 0 {
                        session.upsert(&k, &(t + 1)).unwrap();
                    } else {
                        session.delete(&k).unwrap();
                    }
                }
                session.complete_pending(true);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every key must be readable (present or absent) without error, and
    // present keys must hold one of the written values.
    let session = store.start_session();
    for k in 0..keys {
        if let Some(v) = read_blocking(&session, k) {
            assert!((1..=threads as u64).contains(&v), "key {k} holds foreign value {v}");
        }
    }
}
