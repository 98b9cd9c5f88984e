//! Index resizing over a live store with spilled data — exercises chunked
//! migration, record relinking, shared disk tails (grow) and merge
//! meta-records (shrink) end to end (Appendix B).

use faster_core::{CountCrdt, CountStore, FasterKv, FasterKvConfig};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::MemDevice;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

fn cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 6, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(32)
}

#[test]
fn grow_with_disk_resident_chains() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    let n = 3000u64;
    for k in 0..n {
        session.upsert(&k, &(k + 9)).unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0, "chains must reach disk");
    let k0 = store.index().k_bits();
    assert!(store.grow_index(Some(&session)));
    assert_eq!(store.index().k_bits(), k0 + 1);
    for k in (0..n).step_by(13) {
        assert_eq!(read_blocking(&session, k), Some(k + 9), "key {k} after grow");
    }
}

#[test]
fn shrink_with_disk_resident_chains_links_meta_records() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    let session = store.start_session();
    let n = 3000u64;
    for k in 0..n {
        session.upsert(&k, &(k * 2)).unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0);
    assert!(store.shrink_index(Some(&session)));
    // All keys remain reachable — including through merge meta-records.
    for k in (0..n).step_by(7) {
        assert_eq!(read_blocking(&session, k), Some(k * 2), "key {k} after shrink");
    }
    // And the store remains writable.
    session.upsert(&1, &42).unwrap();
    assert_eq!(read_blocking(&session, 1), Some(42));
}

/// Compaction liveness must follow a merge record's second chain even after
/// the merge record itself has been evicted to storage: otherwise a newer
/// version on that chain is invisible, the older one is judged live, and
/// rolling it to the tail resurrects it over the newer value.
#[test]
fn compaction_sees_newer_version_behind_disk_resident_merge_record() {
    // Two tag bits: shrink pairs up tags, so most destinations get a merge
    // record joining two disk-resident chains.
    let cfg = cfg().with_index(IndexConfig { k_bits: 6, tag_bits: 2, max_resize_chunks: 4 });
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    let session = store.start_session();
    let n = 400u64;
    let mut filler_key = 1_000_000u64;
    let mut filler = |count: u64| {
        for _ in 0..count {
            session.upsert(&filler_key, &filler_key).unwrap();
            filler_key += 1;
        }
    };
    for k in 0..n {
        session.upsert(&k, &(k + 1_000)).unwrap();
    }
    filler(600);
    let mid = store.log().tail_address();
    for k in 0..n {
        session.upsert(&k, &(k + 2_000)).unwrap();
    }
    filler(600);
    session.refresh();
    store.log().shift_read_only_to_tail(None);
    store.log().flush_barrier().unwrap();
    let before_shrink = store.log().tail_address();
    assert!(store.shrink_index(Some(&session)));
    let after_shrink = store.log().tail_address();
    assert!(after_shrink > before_shrink, "shrink must allocate merge records");
    while store.log().head_address() < after_shrink {
        filler(200);
        session.refresh();
    }
    // Version history crosses the on-disk merge records to both chains.
    for k in 0..n {
        assert_eq!(session.read_history(&k, 4), vec![k + 2_000, k + 1_000], "history of {k}");
    }
    store.compact_until(mid, &session);
    for k in 0..n {
        assert_eq!(read_blocking(&session, k), Some(k + 2_000), "key {k} after compaction");
    }
}

#[test]
fn grow_during_concurrent_traffic() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    {
        let s = store.start_session();
        for k in 0..2000u64 {
            s.upsert(&k, &k).unwrap();
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let store = store.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(t + 77);
                barrier.wait();
                // Unbounded: workers hammer the store until told to stop.
                // The resize must finish *under* this traffic — prioritized
                // chunk claims guarantee the migrator drains pins in bounded
                // time, even when saturated ops share a single core.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = rng.next_below(2000);
                    session.upsert(&k, &k).unwrap();
                    let _ = session.read(&k, &0);
                    session.complete_pending(false);
                }
                session.complete_pending(true);
            })
        })
        .collect();
    barrier.wait();
    // Run the grow on its own thread so the test can hold it to a wall-clock
    // deadline while the workers keep running at full rate.
    let (tx, rx) = std::sync::mpsc::channel();
    let grower = {
        let store = store.clone();
        std::thread::spawn(move || {
            let _ = tx.send(store.grow_index(None));
        })
    };
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(ok) => assert!(ok, "grow while traffic flows"),
        Err(_) => panic!(
            "grow did not complete within 60s under unbounded worker traffic — \
             resize claim-priority regression (migration starved by op pins)"
        ),
    }
    grower.join().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let session = store.start_session();
    for k in (0..2000u64).step_by(11) {
        assert_eq!(read_blocking(&session, k), Some(k), "key {k}");
    }
}

#[test]
fn shrink_during_concurrent_traffic() {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, MemDevice::new(2));
    {
        let s = store.start_session();
        for k in 0..2000u64 {
            s.upsert(&k, &(k + 3)).unwrap();
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let store = store.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = store.start_session();
                let mut rng = faster_util::XorShift64::new(t + 177);
                barrier.wait();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = rng.next_below(2000);
                    session.upsert(&k, &(k + 3)).unwrap();
                    let _ = session.read(&k, &0);
                    session.complete_pending(false);
                }
                session.complete_pending(true);
            })
        })
        .collect();
    barrier.wait();
    let (tx, rx) = std::sync::mpsc::channel();
    let shrinker = {
        let store = store.clone();
        std::thread::spawn(move || {
            let _ = tx.send(store.shrink_index(None));
        })
    };
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(ok) => assert!(ok, "shrink while traffic flows"),
        Err(_) => panic!(
            "shrink did not complete within 60s under unbounded worker traffic — \
             resize claim-priority regression (migration starved by op pins)"
        ),
    }
    shrinker.join().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let session = store.start_session();
    for k in (0..2000u64).step_by(11) {
        assert_eq!(read_blocking(&session, k), Some(k + 3), "key {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Grow → shrink → grow round-trips with disk-resident tails preserve
    /// every key. Each resize re-threads hash chains whose tails live on
    /// disk (`link_disk_tails` on grow, merge meta-records on shrink), and
    /// writes between the resizes chain fresh mutable records onto those
    /// re-threaded tails — the combination that loses keys if any migration
    /// step drops or mislinks an entry. An RMW of every key after each
    /// resize must find its record through the re-threaded chains too.
    #[test]
    fn grow_shrink_grow_round_trip_preserves_keys(
        keys in proptest::collection::vec((0u64..4_096, any::<u64>()), 50..300),
        update_stride in 1u64..7,
        rmw_input in 1u64..1_000,
    ) {
        let store: FasterKv<u64, u64, CountCrdt> =
            FasterKv::new(cfg(), CountCrdt, MemDevice::new(2));
        let session = store.start_session();
        let mut model = std::collections::HashMap::new();
        let rmw_all = |model: &mut std::collections::HashMap<u64, u64>| {
            for &(k, _) in &keys {
                rmw_blocking(&session, k, rmw_input);
                let v = model.get_mut(&k).expect("key loaded");
                *v = v.wrapping_add(rmw_input);
            }
        };
        // Filler volume guarantees chains spill to disk regardless of how
        // few random keys this case drew.
        for k in 10_000..12_500u64 {
            session.upsert(&k, &k).unwrap();
            model.insert(k, k);
        }
        for &(k, v) in &keys {
            session.upsert(&k, &v).unwrap();
            model.insert(k, v);
        }
        store.log().flush_barrier().unwrap();
        prop_assert!(store.log().head_address().raw() > 0, "chains must reach disk");

        let k0 = store.index().k_bits();
        prop_assert!(store.grow_index(Some(&session)));
        rmw_all(&mut model);
        // Mutate between resizes: new in-memory records now chain onto the
        // grow-re-threaded disk tails.
        for (i, &(k, _)) in keys.iter().enumerate() {
            if (i as u64).is_multiple_of(update_stride) {
                let v2 = model[&k].wrapping_add(1);
                session.upsert(&k, &v2).unwrap();
                model.insert(k, v2);
            }
        }
        prop_assert!(store.shrink_index(Some(&session)));
        rmw_all(&mut model);
        store.log().flush_barrier().unwrap();
        prop_assert!(store.grow_index(Some(&session)));
        rmw_all(&mut model);
        prop_assert_eq!(store.index().k_bits(), k0 + 1);

        for (&k, &v) in &model {
            prop_assert_eq!(read_blocking(&session, k), Some(v), "key {} after round trip", k);
        }
    }
}
