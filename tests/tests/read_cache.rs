//! Appendix D read-cache integration: disk reads populate a second,
//! never-flushed HybridLog; repeat reads hit it without I/O; updates splice
//! the cache copy out; eviction restores primary index addresses.

use faster_core::{CountStore, FasterKv, FasterKvConfig, Outcome};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::MemDevice;

fn cfg_with_cache(cache_pages: u64) -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(16)
        .with_read_cache(HLogConfig {
            page_bits: 12,
            buffer_pages: cache_pages,
            mutable_pages: (cache_pages / 2).max(1),
            io_threads: 1,
        })
}

/// Builds a store where keys 0..100 are cold (on disk) and returns it.
fn store_with_cold_keys(cache_pages: u64) -> FasterKv<u64, u64, CountStore> {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(cfg_with_cache(cache_pages), CountStore, MemDevice::new(2));
    let session = store.start_session();
    for k in 0..100u64 {
        session.upsert(&k, &(k + 500)).expect("writable");
    }
    for k in 10_000..14_000u64 {
        session.upsert(&k, &1).expect("writable"); // push 0..100 to disk
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0);
    store
}

#[test]
fn second_read_hits_cache_without_io() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    // First read: from disk (pending), populates the cache.
    assert_eq!(read_blocking(&session, 5), Some(505));
    let reads_after_first = store.log().device().stats().reads;
    // Second read: cache hit — synchronous, no device read.
    match session.read(&5, &0) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 505),
        other => panic!("expected cache hit, got {other:?}"),
    }
    assert_eq!(store.log().device().stats().reads, reads_after_first, "no extra device read");
}

#[test]
fn rmw_on_cached_key_needs_no_io() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 7), Some(507)); // cache it
    let reads_before = store.log().device().stats().reads;
    // CountStore is a CRDT so the delta path would dodge I/O anyway; what we
    // check is that the cache-hit RMW path computes the right value.
    assert!(session.rmw(&7, &3).is_ok(), "cache-hit RMW must complete synchronously");
    assert_eq!(store.log().device().stats().reads, reads_before);
    assert_eq!(read_blocking(&session, 7), Some(510));
}

#[test]
fn upsert_over_cached_key_wins() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 9), Some(509));
    session.upsert(&9, &42).expect("writable");
    assert_eq!(read_blocking(&session, 9), Some(42));
    // And the value survives another round trip to disk. (Churn on the same
    // session: every registered session must keep refreshing — §2.5 — or
    // epoch-gated log maintenance stalls.)
    for k in 20_000..24_000u64 {
        session.upsert(&k, &1).expect("writable");
    }
    store.log().flush_barrier().unwrap();
    assert_eq!(read_blocking(&session, 9), Some(42));
}

#[test]
fn delete_of_cached_key_sticks() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 11), Some(511));
    session.delete(&11).expect("writable");
    assert_eq!(read_blocking(&session, 11), None);
}

#[test]
fn eviction_restores_primary_addresses() {
    // Tiny cache: 2 pages of 4 KB = ~340 records; read 100 cold keys twice
    // over so early entries get evicted, then verify every key still reads
    // correctly (via disk again after the entry was restored).
    let store = store_with_cold_keys(2);
    let session = store.start_session();
    for round in 0..3 {
        for k in 0..100u64 {
            assert_eq!(read_blocking(&session, k), Some(k + 500), "round {round} key {k}");
        }
        session.refresh();
    }
}

#[test]
fn checkpoint_with_read_cache_resolves_tagged_entries() {
    let device = MemDevice::new(2);
    let data;
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg_with_cache(8), CountStore, device.clone());
        let session = store.start_session();
        for k in 0..100u64 {
            session.upsert(&k, &(k + 500)).expect("writable");
        }
        for k in 10_000..14_000u64 {
            session.upsert(&k, &1).expect("writable");
        }
        store.log().flush_barrier().unwrap();
        // Cache a handful of cold keys so their index entries are tagged.
        for k in 0..20u64 {
            assert_eq!(read_blocking(&session, k), Some(k + 500));
        }
        drop(session);
        data = store.checkpoint().expect("checkpoint with tagged entries");
        // No tagged addresses may leak into the checkpoint.
        for &(_, raw) in &data.index.entries {
            let e = faster_index::HashBucketEntry(raw);
            assert!(
                !faster_core::read_cache::is_rc(e.address()),
                "tagged entry leaked into checkpoint"
            );
        }
    }
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg_with_cache(8), CountStore, device, &data);
    let session = store2.start_session();
    for k in 0..100u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 500), "key {k} after recovery");
    }
}

#[test]
fn recovered_store_keeps_its_read_cache() {
    let device = MemDevice::new(2);
    let data = {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg_with_cache(8), CountStore, device.clone());
        let session = store.start_session();
        for k in 0..100u64 {
            session.upsert(&k, &(k + 500)).expect("writable");
        }
        drop(session);
        store.checkpoint().expect("checkpoint on a fault-free device")
    };
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg_with_cache(8), CountStore, device, &data);
    assert!(store.read_cache_log().is_some(), "recovery dropped the configured read cache");
    // The recovered log resumes on a fresh page, so every recovered key is
    // cold: the first read goes to the device and fills the cache.
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 5), Some(505));
    let reads_after_first = store.log().device().stats().reads;
    match session.read(&5, &0) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 505),
        other => panic!("expected cache hit, got {other:?}"),
    }
    assert_eq!(store.log().device().stats().reads, reads_after_first, "no extra device read");
}

#[test]
fn crdt_deltas_bypass_cache_coherently() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 13), Some(513)); // cached
    // CRDT increment: cache-hit RMW (old value available) writes a primary
    // record; subsequent reads must see the updated value, not the stale
    // cached one.
    rmw_blocking(&session, 13, 100);
    assert_eq!(read_blocking(&session, 13), Some(613));
    rmw_blocking(&session, 13, 1);
    assert_eq!(read_blocking(&session, 13), Some(614));
}
