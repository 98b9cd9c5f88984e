//! Store-level unit, semantics, and concurrency tests.

use crate::checkpoint::CheckpointData;
use crate::functions::{BlindKv, CountCrdt, CountStore};
use crate::*;
use faster_hlog::HLogConfig;
use faster_storage::MemDevice;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

fn count_store(cfg: FasterKvConfig) -> FasterKv<u64, u64, CountStore> {
    FasterKv::new(cfg, CountStore, MemDevice::new(2))
}

fn count_crdt(cfg: FasterKvConfig) -> FasterKv<u64, u64, CountCrdt> {
    FasterKv::new(cfg, CountCrdt, MemDevice::new(2))
}

fn read_now<F: Functions<u64, u64, Input = u64, Output = u64>>(
    s: &Session<u64, u64, F>,
    key: u64,
) -> Option<u64> {
    match s.read(&key, &0) {
        Ok(Outcome::Value(v)) => Some(v),
        Err(OpError::NotFound) => None,
        Err(OpError::Pending(id)) => {
            let done = s.complete_pending(true);
            for c in done {
                if c.id == id {
                    return match c.result {
                        Ok(Outcome::Value(v)) => Some(v),
                        Err(OpError::NotFound) => None,
                        other => panic!("pending read {id} completed oddly: {other:?}"),
                    };
                }
            }
            panic!("pending read {id} did not complete");
        }
        other => panic!("read of {key} refused: {other:?}"),
    }
}

fn rmw_now<F: Functions<u64, u64, Input = u64, Output = u64>>(
    s: &Session<u64, u64, F>,
    key: u64,
    input: u64,
) {
    if let Err(OpError::Pending(_)) = s.rmw(&key, &input) {
        s.complete_pending(true);
    }
}

/// Upserts 200 keys to `k * 10`, optionally pushes them out of the buffer
/// with `filler` fresh keys, seals and flushes the log, then halves a
/// 64-bucket, 2-bit-tag index: collided tags leave merge records joining two
/// bucket chains (Appendix B). Returns the keys an RMW of `+1` then loses.
fn rmw_after_shrink_lost<F>(functions: F, buffer_pages: u64, filler: u64) -> Vec<u64>
where
    F: Functions<u64, u64, Input = u64, Output = u64>,
{
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 6, tag_bits: 2, max_resize_chunks: 8 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages, mutable_pages: 1, io_threads: 2 });
    let store = FasterKv::new(cfg, functions, MemDevice::new(2));
    let s = store.start_session();
    for k in 0..200u64 {
        s.upsert(&k, &(k * 10)).unwrap();
    }
    for k in 0..filler {
        s.upsert(&(1 << 32 | k), &0).unwrap();
    }
    s.refresh();
    store.log().shift_read_only_to_tail(None);
    store.log().flush_barrier().unwrap();
    assert!(store.shrink_index(Some(&s)));
    for k in 0..200u64 {
        rmw_now(&s, k, 1);
    }
    (0..200u64).filter(|&k| read_now(&s, k) != Some(k * 10 + 1)).collect()
}

#[test]
fn rmw_after_shrink_follows_merge_records_count_crdt() {
    let lost = rmw_after_shrink_lost(CountCrdt, 64, 0);
    assert!(lost.is_empty(), "{} keys lost: {lost:?}", lost.len());
}

#[test]
fn rmw_after_shrink_follows_merge_records_resident() {
    let lost = rmw_after_shrink_lost(CountStore, 64, 0);
    assert!(lost.is_empty(), "{} keys lost: {lost:?}", lost.len());
}

#[test]
fn rmw_after_shrink_follows_merge_records_on_disk() {
    // The tails are evicted before the shrink: the merge records are
    // resident, the chains they join are on disk.
    let lost = rmw_after_shrink_lost(CountStore, 4, 2_000);
    assert!(lost.is_empty(), "{} keys lost: {lost:?}", lost.len());
}

#[test]
fn count_crdt_rmw_never_goes_pending() {
    // Wherever a CountCrdt key's record lives, its RMW updates in place,
    // copies, or appends a delta (§6.3) and never waits on a read.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 6, tag_bits: 2, max_resize_chunks: 8 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 });
    let store = count_crdt(cfg);
    let s = store.start_session();
    let incr = |k: u64| {
        assert!(s.rmw(&k, &1).is_ok(), "key {k}");
        assert_eq!(s.pending_count(), 0, "key {k}");
    };
    let region = |k: u64| store.log().classify(s.entry_address(hash_key(&k)).unwrap());
    // On disk, behind the merge records of a shrink (Appendix B).
    for k in 0..200u64 {
        s.upsert(&k, &(k * 10)).unwrap();
    }
    for k in 0..2_000u64 {
        s.upsert(&(1 << 32 | k), &0).unwrap();
    }
    s.refresh();
    store.log().shift_read_only_to_tail(None);
    store.log().flush_barrier().unwrap();
    assert!(store.shrink_index(Some(&s)));
    for k in 0..200u64 {
        incr(k);
    }
    // Mutable.
    s.upsert(&5_000, &7).unwrap();
    assert_eq!(region(5_000), faster_hlog::Region::Mutable);
    incr(5_000);
    // Read-only.
    s.upsert(&5_001, &7).unwrap();
    store.log().shift_read_only_to_tail(None);
    s.refresh();
    assert_eq!(region(5_001), faster_hlog::Region::ReadOnly);
    incr(5_001);
    for k in 0..200u64 {
        assert_eq!(read_now(&s, k), Some(k * 10 + 1), "key {k}");
    }
    assert_eq!(read_now(&s, 5_000), Some(8));
    assert_eq!(read_now(&s, 5_001), Some(8));
}

#[test]
fn basic_upsert_read_delete() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    assert_eq!(read_now(&s, 1), None);
    s.upsert(&1, &100).unwrap();
    assert_eq!(read_now(&s, 1), Some(100));
    s.upsert(&1, &200).unwrap();
    assert_eq!(read_now(&s, 1), Some(200));
    s.delete(&1).unwrap();
    assert_eq!(read_now(&s, 1), None);
    // Reinsert after delete.
    s.upsert(&1, &300).unwrap();
    assert_eq!(read_now(&s, 1), Some(300));
}

#[test]
fn rmw_creates_and_increments() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    assert_eq!(s.rmw(&7, &5), Ok(Outcome::Value(5)), "an initial RMW answers its value");
    assert_eq!(read_now(&s, 7), Some(5));
    assert_eq!(s.rmw(&7, &3), Ok(Outcome::Value(8)), "an in-place RMW answers its value");
    assert_eq!(read_now(&s, 7), Some(8));
    // In-memory RMWs are in-place: log tail should not grow per op.
    let t0 = store.log().tail_address();
    for _ in 0..100 {
        rmw_now(&s, 7, 1);
    }
    assert_eq!(store.log().tail_address(), t0, "in-place updates must not grow the log");
    assert_eq!(read_now(&s, 7), Some(108));
}

#[test]
fn count_store_rmw_answers_its_value_in_every_region() {
    // Table 2 for the non-mergeable counter: an initial value, an in-place
    // add, a fuzzy-region retry, a copy-update and an on-disk read-then-copy
    // each answer the count the RMW produced.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    let region = || store.log().classify(s.entry_address(hash_key(&1u64)).unwrap());
    let complete = |id: u64| {
        let done = s.complete_pending(true);
        done.into_iter().find(|c| c.id == id).expect("the pending RMW completes").result
    };
    assert_eq!(s.rmw(&1, &5), Ok(Outcome::Value(5)));
    assert_eq!(region(), faster_hlog::Region::Mutable);
    assert_eq!(s.rmw(&1, &2), Ok(Outcome::Value(7)));
    // A sibling that has not refreshed since the shift holds safe-read-only
    // back, so the record sits in the fuzzy region.
    let sibling = store.start_session();
    store.log().shift_read_only_to_tail(None);
    s.refresh();
    assert_eq!(region(), faster_hlog::Region::Fuzzy);
    let Err(OpError::Pending(id)) = s.rmw(&1, &3) else { panic!("a fuzzy RMW goes pending") };
    drop(sibling);
    assert_eq!(complete(id), Ok(Outcome::Value(10)));
    store.log().shift_read_only_to_tail(None);
    s.refresh();
    assert_eq!(region(), faster_hlog::Region::ReadOnly);
    assert_eq!(s.rmw(&1, &1), Ok(Outcome::Value(11)));
    for k in 1000..4000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    let Err(OpError::Pending(id)) = s.rmw(&1, &1) else { panic!("an on-disk RMW goes pending") };
    assert_eq!(complete(id), Ok(Outcome::Value(12)));
    assert_eq!(read_now(&s, 1), Some(12));
}

#[test]
fn rmw_after_delete_reinitializes() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    rmw_now(&s, 9, 10);
    s.delete(&9).unwrap();
    rmw_now(&s, 9, 4);
    assert_eq!(read_now(&s, 9), Some(4), "delete resets the counter");
}

#[test]
fn many_keys_round_trip() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    for k in 0..5_000u64 {
        s.upsert(&k, &(k * 2)).unwrap();
    }
    for k in 0..5_000u64 {
        assert_eq!(read_now(&s, k), Some(k * 2), "key {k}");
    }
}

#[test]
fn concurrent_count_store_exactness() {
    // The paper's canonical correctness property: with RMW increments, the
    // total equals the number of increments — across threads, in-place and
    // RCU paths alike.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 14, buffer_pages: 16, mutable_pages: 12, io_threads: 2 })
        .with_max_sessions(32)
        .with_refresh_interval(64);
    let store = count_store(cfg);
    let threads = 8u64;
    let per_thread = 20_000u64;
    let keys = 128u64;
    let barrier = std::sync::Arc::new(Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = store.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let s = store.start_session();
            barrier.wait();
            let mut rng = faster_util::XorShift64::new(t + 1);
            for _ in 0..per_thread {
                let k = rng.next_below(keys);
                if let Err(OpError::Pending(_)) = s.rmw(&k, &1) {
                    s.complete_pending(true);
                }
            }
            s.complete_pending(true);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = store.start_session();
    let mut total = 0u64;
    for k in 0..keys {
        total += read_now(&s, k).unwrap_or(0);
    }
    assert_eq!(total, threads * per_thread, "every increment must be counted exactly once");
}

#[test]
fn batched_ops_match_scalar_inmemory() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    let upserts: Vec<_> =
        (0..2_000u64).map(|key| BatchOp::Upsert { key, value: key * 3 }).collect();
    assert!(s.execute_batch(&upserts).iter().all(|r| *r == Ok(Outcome::Done)));
    // Batch straddles present and absent keys.
    let keys: Vec<u64> = (0..2_100u64).collect();
    let reads: Vec<_> = keys.iter().map(|&key| BatchOp::Read { key, input: 0 }).collect();
    let results = s.execute_batch(&reads);
    assert_eq!(results.len(), keys.len());
    for (k, r) in keys.iter().zip(&results) {
        match r {
            Ok(Outcome::Value(v)) if *k < 2_000 => assert_eq!(*v, k * 3, "key {k}"),
            Err(OpError::NotFound) if *k >= 2_000 => {}
            other => panic!("key {k}: unexpected {other:?}"),
        }
    }
    let incs: Vec<_> = (0..2_000u64).map(|key| BatchOp::Rmw { key, input: 5 }).collect();
    for r in s.execute_batch(&incs) {
        assert!(r.is_ok(), "in-memory RMW never pends: {r:?}");
    }
    assert_eq!(read_now(&s, 10), Some(35));
    // Heterogeneous batch through execute_batch, in submission order:
    // the later Read must observe the earlier Upsert/Rmw/Delete.
    let ops = vec![
        BatchOp::Upsert { key: 5_000, value: 1 },
        BatchOp::Rmw { key: 5_000, input: 2 },
        BatchOp::Read { key: 5_000, input: 0 },
        BatchOp::Delete { key: 5_000 },
        BatchOp::Read { key: 5_000, input: 0 },
    ];
    let out = s.execute_batch(&ops);
    assert_eq!(out[0], Ok(Outcome::Done));
    assert!(out[1].is_ok());
    assert_eq!(out[2], Ok(Outcome::Value(3)));
    assert_eq!(out[3], Ok(Outcome::Done));
    assert_eq!(out[4], Err(OpError::NotFound));
}

#[test]
fn concurrent_batched_rmw_exactness() {
    // The CountStore exactness property, driven through all-RMW batches: batching
    // must not lose, duplicate, or reorder increments across threads.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 14, buffer_pages: 16, mutable_pages: 12, io_threads: 2 })
        .with_max_sessions(32)
        .with_refresh_interval(64);
    let store = count_store(cfg);
    let threads = 8u64;
    let batches = 400u64;
    let batch_len = 48usize;
    let keys = 128u64;
    let barrier = std::sync::Arc::new(Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = store.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let s = store.start_session();
            barrier.wait();
            let mut rng = faster_util::XorShift64::new(t + 1);
            let mut batch = Vec::with_capacity(batch_len);
            for _ in 0..batches {
                batch.clear();
                batch.extend(
                    (0..batch_len).map(|_| BatchOp::Rmw { key: rng.next_below(keys), input: 1 }),
                );
                if s.execute_batch(&batch).iter().any(|r| matches!(r, Err(OpError::Pending(_)))) {
                    s.complete_pending(true);
                }
            }
            s.complete_pending(true);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = store.start_session();
    let mut total = 0u64;
    for k in 0..keys {
        total += read_now(&s, k).unwrap_or(0);
    }
    assert_eq!(
        total,
        threads * batches * batch_len as u64,
        "every batched increment must be counted exactly once"
    );
}

#[test]
fn read_batch_straddling_disk_goes_pending_and_completes() {
    // Spill most keys to disk, then read a batch mixing resident and cold
    // keys: the cold ones must pend and complete with the right values.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    let n = 4_000u64;
    for k in 0..n {
        s.upsert(&k, &(k + 1)).unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0, "data must have spilled");
    // Early keys are on disk, the newest keys still resident.
    let keys: Vec<u64> = (0..64u64).chain(n - 8..n).chain(n..n + 4).collect();
    let reads: Vec<_> = keys.iter().map(|&key| BatchOp::Read { key, input: 0 }).collect();
    let results = s.execute_batch(&reads);
    let mut pending: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut pending_seen = 0u32;
    for (k, r) in keys.iter().zip(&results) {
        match r {
            Ok(Outcome::Value(v)) => assert_eq!(*v, k + 1, "resident key {k}"),
            Err(OpError::NotFound) => assert!(*k >= n, "key {k} lost"),
            Err(OpError::Pending(id)) => {
                pending_seen += 1;
                pending.insert(*id, *k);
            }
            other => panic!("key {k}: unexpected {other:?}"),
        }
    }
    assert!(pending_seen > 0, "cold keys must take the async path");
    for c in s.complete_pending(true) {
        let k = pending[&c.id];
        assert_eq!(c.result, Ok(Outcome::Value(k + 1)), "pending key {k}");
    }
}

/// A batch call submits the cold reads it queued before it returns (§5.3:
/// the issuing thread keeps working while the device reads): the device
/// has counted one read per `Pending` result before any `complete_pending`.
#[test]
fn batch_calls_submit_their_cold_reads_before_returning() {
    use std::collections::HashMap;
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    // Non-mergeable, so an on-disk RMW reads its old value too.
    let store = count_store(cfg);
    let s = store.start_session();
    let n = 4_000u64;
    for k in 0..n {
        s.upsert(&k, &(k + 1)).unwrap();
    }
    store.log().flush_barrier().unwrap();
    let device_reads = || store.log().device().stats().reads;
    // Maps each pending id to its key once the batch that returned
    // `results` for `keys` is known to have submitted a read for each.
    let submitted = |what: &str, keys: &[u64], results: &[OpResult<u64>], before: u64| {
        let pending: HashMap<u64, u64> = keys
            .iter()
            .zip(results)
            .filter_map(|(&k, r)| match r {
                Err(OpError::Pending(id)) => Some((*id, k)),
                _ => None,
            })
            .collect();
        assert_eq!(pending.len(), keys.len(), "{what}: every key is on disk");
        assert_eq!(device_reads() - before, pending.len() as u64, "{what}: reads not submitted");
        pending
    };

    // A mixed batch, whose reads re-probe after its first mutation.
    let keys: Vec<u64> = (0..64).collect();
    let mut ops: Vec<_> = keys.iter().map(|&key| BatchOp::Read { key, input: 0 }).collect();
    ops.push(BatchOp::Upsert { key: n, value: 1 });
    ops.extend([1, 0].map(|key| BatchOp::Read { key, input: 0 }));
    let before = device_reads();
    let results = s.execute_batch(&ops);
    let keys: Vec<u64> = keys.into_iter().chain([1, 0]).collect();
    let results: Vec<_> = results.into_iter().filter(|r| *r != Ok(Outcome::Done)).collect();
    let pending = submitted("mixed execute_batch", &keys, &results, before);
    let done = s.complete_pending(true);
    assert_eq!(done.len(), pending.len());
    for c in done {
        let k = pending[&c.id];
        assert_eq!(c.result, Ok(Outcome::Value(k + 1)), "mixed execute_batch key {k}");
    }

    // All reads: every read walks from its stage-2 head.
    let keys: Vec<u64> = (64..128).collect();
    let ops: Vec<_> = keys.iter().map(|&key| BatchOp::Read { key, input: 0 }).collect();
    let before = device_reads();
    let pending = submitted("read execute_batch", &keys, &s.execute_batch(&ops), before);
    let done = s.complete_pending(true);
    assert_eq!(done.len(), pending.len());
    for c in done {
        let k = pending[&c.id];
        assert_eq!(c.result, Ok(Outcome::Value(k + 1)), "read execute_batch key {k}");
    }

    let keys: Vec<u64> = (128..192).collect();
    let ops: Vec<_> = keys.iter().map(|&key| BatchOp::Rmw { key, input: 100 }).collect();
    let before = device_reads();
    let pending = submitted("rmw execute_batch", &keys, &s.execute_batch(&ops), before);
    let done = s.complete_pending(true);
    assert_eq!(done.len(), pending.len());
    for c in &done {
        let k = pending[&c.id];
        assert_eq!(c.result, Ok(Outcome::Value(k + 101)), "rmw completion of key {k}");
    }
    for k in keys {
        assert_eq!(read_now(&s, k), Some(k + 101), "rmw execute_batch key {k}");
    }
}

#[test]
fn larger_than_memory_spill_and_read_back() {
    // Tiny buffer: 4 pages of 4 KB = 16 KB memory for ~24 B records.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    let n = 4_000u64; // ~96 KB of records >> 16 KB buffer
    for k in 0..n {
        s.upsert(&k, &(k + 1)).unwrap();
    }
    store.log().flush_barrier().unwrap();
    assert!(
        store.log().head_address().raw() > 0,
        "data must have spilled: {:?}",
        store.log().regions()
    );
    let mut pending_seen = false;
    for k in (0..n).step_by(7) {
        match s.read(&k, &0) {
            Ok(Outcome::Value(v)) => assert_eq!(v, k + 1),
            Err(OpError::NotFound) => panic!("key {k} lost"),
            Err(OpError::Pending(id)) => {
                pending_seen = true;
                let done = s.complete_pending(true);
                let mut found = false;
                for c in done {
                    if c.id == id {
                        assert_eq!(c.result, Ok(Outcome::Value(k + 1)), "key {k}");
                        found = true;
                    }
                }
                assert!(found, "completion for key {k}");
            }
            other => panic!("read of {k} refused: {other:?}"),
        }
    }
    assert!(pending_seen, "cold reads must go through the async path");
}

#[test]
fn rmw_on_disk_record_goes_pending_and_completes() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    // Non-mergeable functions force the I/O path (CRDTs would use deltas).
    let store: FasterKv<u64, u64, BlindKv<u64>> =
        FasterKv::new(cfg, BlindKv::new(), MemDevice::new(2));
    let s = store.start_session();
    s.upsert(&42, &1000).unwrap();
    // Push key 42 to disk.
    for k in 1000..4000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    match s.rmw(&42, &777) {
        Err(OpError::Pending(_)) => {
            s.complete_pending(true);
        }
        Ok(_) => { /* possible if still resident */ }
        other => panic!("rmw refused: {other:?}"),
    }
    assert_eq!(read_now(&s, 42), Some(777), "RMW (blind replace) applied after IO");
}

#[test]
fn crdt_disk_rmw_avoids_io_with_delta() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_crdt(cfg);
    let s = store.start_session();
    rmw_now(&s, 5, 100);
    for k in 1000..4000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    // Key 5's base is cold now; a CRDT RMW must return Done (delta appended).
    let reads_before = store.log().device().stats().reads;
    assert_eq!(s.rmw(&5, &11), Ok(Outcome::Done), "CRDT RMW must not read disk (Table 2)");
    assert_eq!(store.log().device().stats().reads, reads_before, "no device read issued");
    // The delta is mutable now: adding to it in place still yields only a
    // partial, so the RMW answers no value either.
    assert_eq!(s.rmw(&5, &1), Ok(Outcome::Done), "in-place add to a delta");
    // The read reconciles base + delta, possibly via IO.
    assert_eq!(read_now(&s, 5), Some(112));
}

#[test]
fn upsert_never_pends_even_below_head() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    s.upsert(&3, &1).unwrap();
    for k in 1000..4000u64 {
        s.upsert(&k, &k).unwrap();
    }
    // Key 3 cold; blind update completes synchronously (Table 2).
    s.upsert(&3, &2).unwrap();
    assert_eq!(read_now(&s, 3), Some(2));
    assert_eq!(s.pending_count(), 0);
}

#[test]
fn table2_update_scheme_by_region() {
    // Drive the log so one key's record sits in each region, and check the
    // stats counters reflect the Table 2 actions.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(8);
    let store: FasterKv<u64, u64, BlindKv<u64>> =
        FasterKv::new(cfg, BlindKv::new(), MemDevice::new(2));
    let s = store.start_session();

    // Mutable region: in-place.
    s.upsert(&1, &10).unwrap();
    let totals = || store.metrics().sessions.totals;
    let st0 = totals();
    s.rmw(&1, &11).unwrap();
    assert_eq!(totals().in_place, st0.in_place + 1, "mutable RMW is in-place");

    // Push key 1 into the read-only region (2 mutable pages => write ~3 pages).
    for k in 100..((3 * 4096 / 24) as u64 + 100) {
        s.upsert(&k, &k).unwrap();
    }
    s.refresh();
    let st1 = totals();
    match s.rmw(&1, &12) {
        Ok(_) => {
            let st2 = totals();
            assert!(
                st2.rcu > st1.rcu || st2.in_place > st1.in_place,
                "read-only RMW copies to tail (or still mutable): {st2:?}"
            );
        }
        Err(OpError::Pending(_)) => {
            // Fuzzy-region hit: legal; complete it.
            assert_eq!(totals().fuzzy_pending, st1.fuzzy_pending + 1);
            s.complete_pending(true);
        }
        other => panic!("rmw refused: {other:?}"),
    }
    assert_eq!(read_now(&s, 1), Some(12));
}

#[test]
fn lost_update_anomaly_prevented() {
    // §6.2 regression: concurrent RMW increments while the read-only offset
    // shifts must never lose updates. The fuzzy region forces RMWs pending
    // instead of racing in-place vs. RCU.
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 6, tag_bits: 15, max_resize_chunks: 2 })
        .with_log(HLogConfig { page_bits: 10, buffer_pages: 32, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(16)
        .with_refresh_interval(16);
    let store = count_store(cfg);
    let threads = 6u64;
    let per_thread = 5_000u64;
    let keys = 16u64; // few keys + tiny mutable region => fuzzy hits
    let barrier = std::sync::Arc::new(Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = store.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let s = store.start_session();
            barrier.wait();
            let mut rng = faster_util::XorShift64::new(t * 7 + 1);
            for i in 0..per_thread {
                let k = rng.next_below(keys);
                if let Err(OpError::Pending(_)) = s.rmw(&k, &1) {
                    s.complete_pending(true);
                }
                if i % 251 == 0 {
                    // churn the log so the read-only offset keeps moving
                    s.upsert(&(1_000_000 + t * per_thread + i), &0).unwrap();
                }
            }
            s.complete_pending(true);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = store.start_session();
    let mut total = 0u64;
    for k in 0..keys {
        total += read_now(&s, k).unwrap_or(0);
    }
    assert_eq!(total, threads * per_thread, "no update may be lost (§6.2)");
}

#[test]
fn rmw_beside_advancing_head_keeps_the_record_it_resolved() {
    // Head-advance regression. `rmw` resolves a record at `addr >= head`
    // under its guard; a sibling's page seal or a flush completion on the
    // device thread may then move `head` past `addr` before the update is
    // applied. The resolved pointer stays valid until the session refreshes,
    // so the RMW must act on what it holds — looking `addr` up again used
    // to panic on `expect("resident")`.
    //
    // A side thread appends fresh keys so the 4-page buffer seals, flushes
    // and evicts continuously. The two threads pace each other — the main
    // thread never runs ahead of `SIDE_PER_OP` appends per op, the side
    // thread at most `SIDE_SLACK` (a few pages) ahead of that — so that,
    // whatever their speeds, a revisited hot key's record has aged about
    // one buffer: most RMWs land in the read-only pages just above `head`,
    // the rest on either side of it, and `head` can pass a record while the
    // main thread sits between resolving and updating it.
    const OPS: u64 = 60_000;
    const HOT: u64 = 128;
    const SIDE_PER_OP: u64 = 4;
    const SIDE_SLACK: u64 = 512;
    /// Unpaces the side thread when the main thread leaves its loop — by
    /// panic too, so a regression fails the test instead of hanging it.
    struct Unpace<'a>(&'a std::sync::atomic::AtomicU64);
    impl Drop for Unpace<'_> {
        fn drop(&mut self) {
            self.0.store(OPS, Ordering::Release);
        }
    }
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let ops = std::sync::atomic::AtomicU64::new(0);
    let appended = std::sync::atomic::AtomicU64::new(0);
    let mut oracle = vec![None; HOT as usize];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let s = store.start_session();
            for fresh in 0..OPS * SIDE_PER_OP {
                while fresh >= (ops.load(Ordering::Acquire) + 1) * SIDE_PER_OP + SIDE_SLACK {
                    // Ahead: keep the epoch moving (the main thread's pending
                    // RMWs and evictions wait on our refresh) and let it run.
                    s.refresh();
                    std::thread::yield_now();
                }
                s.upsert(&(1 << 32 | fresh), &fresh).unwrap();
                appended.store(fresh + 1, Ordering::Release);
            }
        });
        let _unpace = Unpace(&ops);
        let s = store.start_session();
        let mut rng = faster_util::XorShift64::new(0x5EED);
        for i in 0..OPS {
            while appended.load(Ordering::Acquire) < i * SIDE_PER_OP {
                s.refresh();
                std::thread::yield_now();
            }
            let k = rng.next_below(HOT);
            if i % 8 == 7 {
                s.upsert(&k, &i).unwrap();
                oracle[k as usize] = Some(i);
            } else {
                match s.rmw(&k, &1) {
                    Ok(_) => {}
                    Err(OpError::Pending(_)) => {
                        s.complete_pending(true);
                    }
                    Err(e) => panic!("rmw of {k} at op {i}: {e}"),
                }
                oracle[k as usize] = Some(oracle[k as usize].map_or(1, |v| v + 1));
            }
            ops.store(i + 1, Ordering::Release);
        }
    });
    let pages_evicted = store.log().head_address().raw() >> 12;
    assert!(pages_evicted > 1000, "head must keep advancing under the RMWs: {pages_evicted} pages");
    let s = store.start_session();
    for (k, want) in oracle.iter().enumerate() {
        assert_eq!(read_now(&s, k as u64), *want, "key {k}");
    }
}

#[test]
fn checkpoint_recover_round_trip() {
    let cfg = FasterKvConfig::small();
    let device = MemDevice::new(2);
    let data: CheckpointData;
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg, CountStore, device.clone());
        let s = store.start_session();
        for k in 0..500u64 {
            s.upsert(&k, &(k * 3)).unwrap();
        }
        drop(s); // quiesce so the checkpoint flush trigger can fire
        data = store.checkpoint().expect("checkpoint on a fault-free device");
        // Post-checkpoint updates are allowed to be lost.
        let s2 = store.start_session();
        s2.upsert(&0, &999_999).unwrap();
    }
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg, CountStore, device, &data);
    let s = store2.start_session();
    for k in 1..500u64 {
        assert_eq!(read_now(&s, k), Some(k * 3), "key {k} after recovery");
    }
    // Key 0: either the checkpointed value (post-checkpoint update lost)...
    let v0 = read_now(&s, 0);
    assert_eq!(v0, Some(0), "checkpointed value for key 0");
    // And the store keeps working.
    s.upsert(&12345, &1).unwrap();
    assert_eq!(read_now(&s, 12345), Some(1));
}

#[test]
fn checkpoint_replay_catches_fuzzy_window_updates() {
    // Updates between t1 and t2 may or may not be in the fuzzy snapshot;
    // replay must make them visible either way. We approximate by updating
    // around the checkpoint call under a live session.
    let cfg = FasterKvConfig::small();
    let device = MemDevice::new(2);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, device.clone());
    {
        let s = store.start_session();
        for k in 0..100u64 {
            s.upsert(&k, &k).unwrap();
        }
    }
    let data = store.checkpoint().expect("checkpoint on a fault-free device");
    assert!(data.t2 >= data.t1);
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg, CountStore, device, &data);
    let s = store2.start_session();
    for k in 0..100u64 {
        assert_eq!(read_now(&s, k), Some(k));
    }
}

#[test]
fn gc_truncate_makes_cold_keys_absent() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 10, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    s.upsert(&1, &111).unwrap();
    for k in 1000..4000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    let head = store.log().head_address();
    assert!(head.raw() > 0);
    store.truncate_until(head);
    // Key 1 lived below the truncation point: now absent (expired).
    assert_eq!(read_now(&s, 1), None, "expired key reads as absent");
    // Hot keys unaffected.
    assert_eq!(read_now(&s, 3999), Some(3999));
}

#[test]
fn gc_compact_preserves_live_keys() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_store(cfg);
    let s = store.start_session();
    // Cold live keys.
    for k in 0..50u64 {
        s.upsert(&k, &(k + 7)).unwrap();
    }
    // Overwrite some (dead old versions) and add churn.
    for k in 0..25u64 {
        s.upsert(&k, &(k + 1000)).unwrap();
    }
    for k in 5000..8000u64 {
        s.upsert(&k, &1).unwrap();
    }
    store.log().flush_barrier().unwrap();
    s.refresh();
    let compact_to = store.log().safe_read_only_address();
    assert!(compact_to.raw() > 0);
    let rolled = store.compact_until(compact_to, &s);
    assert!(rolled > 0, "live records must roll to tail");
    assert_eq!(store.log().begin_address(), compact_to);
    for k in 0..25u64 {
        assert_eq!(read_now(&s, k), Some(k + 1000), "overwritten key {k}");
    }
    for k in 25..50u64 {
        assert_eq!(read_now(&s, k), Some(k + 7), "old live key {k}");
    }
}

/// A read that went pending before compaction rolled its key's base above
/// `begin` reaches the old base's address after the truncation. Its walk
/// must re-probe the index and answer from the rolled base, not from the
/// delta it folded before the cut (Appendix C).
#[test]
fn pending_read_across_compaction_finds_the_rolled_base() {
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(32);
    let store = count_crdt(cfg);
    let s = store.start_session();
    let k = 7u64;
    rmw_now(&s, k, 5);
    let past_base = store.log().tail_address();
    for f in 10_000..13_000u64 {
        s.upsert(&f, &1).unwrap();
    }
    rmw_now(&s, k, 3); // on disk: a CRDT appends a delta
    for f in 20_000..23_000u64 {
        s.upsert(&f, &1).unwrap();
    }
    store.log().flush_barrier().unwrap();
    s.refresh();
    let reader = store.start_session();
    let Err(OpError::Pending(id)) = reader.read(&k, &0) else {
        panic!("the delta is on disk: the read must go pending");
    };
    store.compact_until(past_base, &s);
    assert_eq!(read_now(&s, k), Some(8), "a fresh read sees the rolled base");
    let done = reader.complete_pending(true);
    let c = done.iter().find(|c| c.id == id).expect("the pending read completes");
    assert!(matches!(c.result, Ok(Outcome::Value(8))), "pending read: {:?}", c.result);
}

#[test]
fn index_grow_under_store_load() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    for k in 0..2000u64 {
        s.upsert(&k, &k).unwrap();
    }
    let k_before = store.index().k_bits();
    // grow_index with an active session: pass it so waits refresh.
    assert!(store.grow_index(Some(&s)));
    assert_eq!(store.index().k_bits(), k_before + 1);
    for k in 0..2000u64 {
        assert_eq!(read_now(&s, k), Some(k), "key {k} after grow");
    }
    assert!(store.shrink_index(Some(&s)));
    assert_eq!(store.index().k_bits(), k_before);
    for k in 0..2000u64 {
        assert_eq!(read_now(&s, k), Some(k), "key {k} after shrink");
    }
}

#[test]
fn session_op_counters_populate() {
    let store = count_store(FasterKvConfig::small());
    let s = store.start_session();
    s.upsert(&1, &1).unwrap();
    rmw_now(&s, 1, 1);
    let _ = read_now(&s, 1);
    s.delete(&1).unwrap();
    let st = store.metrics().sessions.totals;
    assert_eq!(st.upserts, 1);
    assert_eq!(st.rmws, 1);
    assert_eq!(st.reads, 1);
    assert_eq!(st.deletes, 1);
    assert!(st.in_place >= 1);
}

#[test]
fn read_with_input_selects_output() {
    // Output computed from value + input (Appendix E's field-selection use).
    #[derive(Clone, Default)]
    struct FieldStore;
    impl Functions<u64, [u32; 4]> for FieldStore {
        type Input = usize;
        type Output = u32;
        fn single_reader(&self, _k: &u64, field: &usize, v: &[u32; 4]) -> u32 {
            v[*field]
        }
        fn initial_updater(&self, _k: &u64, _i: &usize, v: &mut [u32; 4]) -> u32 {
            *v = [0; 4];
            0
        }
        fn in_place_updater(&self, _k: &u64, i: &usize, v: &ValueCell<[u32; 4]>) -> u32 {
            v.load()[*i]
        }
        fn copy_updater(&self, _k: &u64, i: &usize, old: &[u32; 4], new: &mut [u32; 4]) -> u32 {
            *new = *old;
            old[*i]
        }
    }
    let store: FasterKv<u64, [u32; 4], FieldStore> =
        FasterKv::new(FasterKvConfig::small(), FieldStore, MemDevice::new(1));
    let s = store.start_session();
    s.upsert(&1, &[10, 20, 30, 40]).unwrap();
    match s.read(&1, &2) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 30),
        other => panic!("{other:?}"),
    }
}

#[test]
fn read_history_returns_versions_newest_first() {
    // Append-only mode: every update materializes a version (Appendix F).
    let cfg = FasterKvConfig::small()
        .with_index(faster_index::IndexConfig { k_bits: 6, tag_bits: 15, max_resize_chunks: 2 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 0, io_threads: 2 })
        .with_max_sessions(4)
        .with_refresh_interval(16);
    let store: FasterKv<u64, u64, BlindKv<u64>> =
        FasterKv::new(cfg, BlindKv::new(), MemDevice::new(2));
    let s = store.start_session();
    for v in 1..=5u64 {
        s.upsert(&7, &(v * 100)).unwrap();
    }
    let hist = s.read_history(&7, 10);
    assert_eq!(hist, vec![500, 400, 300, 200, 100], "newest first");
    assert_eq!(s.read_history(&7, 2), vec![500, 400], "limit respected");
    assert!(s.read_history(&99, 10).is_empty());
    // History crosses to storage when old versions are evicted.
    for k in 1000..5000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    let hist = s.read_history(&7, 10);
    assert_eq!(hist, vec![500, 400, 300, 200, 100], "history readable from disk");
    // Tombstone ends history.
    s.delete(&7).unwrap();
    assert!(s.read_history(&7, 10).is_empty());
}

#[test]
fn read_history_lists_delta_partials_unfolded() {
    // A CountCrdt RMW over a disk-resident base appends a delta holding
    // only its increment (§6.3); history lists each record's own value.
    let cfg = FasterKvConfig::small()
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 0, io_threads: 2 })
        .with_refresh_interval(16);
    let store = count_crdt(cfg);
    let s = store.start_session();
    s.upsert(&7, &10).unwrap();
    for k in 1000..5000u64 {
        s.upsert(&k, &k).unwrap();
    }
    store.log().flush_barrier().unwrap();
    for inc in 1..=3u64 {
        assert_eq!(s.rmw(&7, &inc), Ok(Outcome::Done), "delta RMW never goes pending");
    }
    assert_eq!(read_now(&s, 7), Some(16), "reads fold the deltas");
    assert_eq!(s.read_history(&7, 10), vec![3, 2, 1, 10], "raw partials, then the base");
}
