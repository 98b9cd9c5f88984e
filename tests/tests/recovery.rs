//! Recovery and failure-injection integration tests (§6.5).

use faster_core::{CountStore, FasterKv, FasterKvConfig};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::read_blocking;
use faster_storage::MemDevice;
use std::sync::Arc;

fn cfg() -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 6, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(32)
}

#[test]
fn checkpoint_under_concurrent_updates_recovers_consistently() {
    let device = MemDevice::new(2);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, device.clone());
    // Writer thread churns while the checkpoint runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let store = store.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let session = store.start_session();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                session.upsert(&(i % 512), &i).unwrap();
                i += 1;
            }
            session.complete_pending(true);
        })
    };
    // Base data.
    {
        let session = store.start_session();
        for k in 10_000..10_500u64 {
            session.upsert(&k, &k).unwrap();
        }
    }
    let data = store.checkpoint().expect("checkpoint under concurrent updates");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    drop(store);

    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg(), CountStore, device, &data);
    let session = store2.start_session();
    // The stable keys (written before t1) must be intact.
    for k in 10_000..10_500u64 {
        assert_eq!(read_blocking(&session, k), Some(k), "stable key {k}");
    }
    // Churned keys: whatever value is present must be a valid write (any i
    // with i % 512 == k), i.e. the store must not serve corrupt values.
    for k in 0..512u64 {
        if let Some(v) = read_blocking(&session, k) {
            assert_eq!(v % 512, k, "churned key {k} holds torn value {v}");
        }
    }
}

#[test]
fn recovery_replays_fuzzy_window() {
    // Construct a deterministic t1 < t2 window: updates issued between the
    // two tail reads inside checkpoint() are racy by nature, so instead do
    // an explicit two-phase: checkpoint, then verify replay from a *manual*
    // CheckpointData with an early t1 (covering pre-checkpoint records).
    let device = MemDevice::new(2);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, device.clone());
    {
        let session = store.start_session();
        for k in 0..300u64 {
            session.upsert(&k, &(k + 1)).unwrap();
        }
    }
    let mut data = store.checkpoint().expect("checkpoint before the fuzzy-window replay");
    // Pretend the fuzzy capture started at the very beginning: replay must
    // then rebuild entries for *all* records and still match.
    data.t1 = store.log().begin_address();
    drop(store);
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg(), CountStore, device, &data);
    let session = store2.start_session();
    for k in 0..300u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 1), "key {k}");
    }
}

#[test]
fn injected_read_faults_do_not_wedge_sessions() {
    let device = MemDevice::new(2);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, device.clone());
    let session = store.start_session();
    session.upsert(&7, &70).unwrap();
    for k in 100..4000u64 {
        session.upsert(&k, &k).unwrap(); // evict key 7
    }
    store.log().flush_barrier().unwrap();
    device.fail_next_reads(1);
    // A transiently faulted read retries and lands the true value: it must
    // neither hang nor fabricate a "key absent" answer.
    assert_eq!(read_blocking(&session, 7), Some(70));
    assert_eq!(session.pending_count(), 0);
    // The injected fault was consumed; the key stays readable.
    assert_eq!(read_blocking(&session, 7), Some(70));
}

#[test]
fn checkpoint_bytes_survive_serialization() {
    let device = MemDevice::new(1);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg(), CountStore, device.clone());
    {
        let session = store.start_session();
        for k in 0..100u64 {
            session.upsert(&k, &(k * 5)).unwrap();
        }
    }
    let data = store.checkpoint().expect("checkpoint before serialization");
    let bytes = data.to_bytes();
    drop(store);
    let parsed = faster_core::checkpoint::CheckpointData::from_bytes(&bytes).expect("parse");
    assert_eq!(parsed, data);
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg(), CountStore, device, &parsed);
    let session = store2.start_session();
    for k in 0..100u64 {
        assert_eq!(read_blocking(&session, k), Some(k * 5));
    }
}
