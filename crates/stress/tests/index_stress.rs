//! Seeded op-granular stress of the real `HashIndex`: writers, a reader, a
//! tentative-insert straddler, and a resizer (grow ⇄ shrink) interleaved by
//! the deterministic scheduler. Every inserted key must stay reachable
//! through every interleaving, including tentative claims that straddle a
//! full resize (the `collect_entries` displacement case fixed by
//! finalize-time validation).
//!
//! Each virtual-thread step is one complete index operation, so no step ever
//! holds a chunk pin across a scheduler switch — which is what lets the
//! resizer run `grow`/`shrink` to completion synchronously inside its own
//! step (no other actor holds an epoch guard either; all ops are guardless).
//! The one state carried across steps is the straddler's tentative
//! `CreatedEntry`, deliberately spanning resizes.

use faster_epoch::Epoch;
use faster_index::{CreateOutcome, HashIndex, IndexConfig, RecordAccess};
use faster_stress::{Scheduler, Step, VThread};
use faster_util::{Address, KeyHash};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Minimal in-memory record allocator: every record stays resident, so
/// migration relinks chains without disk tails or meta records.
#[derive(Default)]
struct MemRecords {
    next: AtomicU64,
    recs: Mutex<HashMap<u64, (KeyHash, Address)>>,
}

impl MemRecords {
    fn alloc(&self, hash: KeyHash, prev: Address) -> Address {
        let raw = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        self.recs.lock().unwrap().insert(raw, (hash, prev));
        Address::new(raw)
    }

    fn chain(&self, head: Address) -> Vec<Address> {
        let recs = self.recs.lock().unwrap();
        let mut out = Vec::new();
        let mut cur = head;
        while cur.is_valid() {
            out.push(cur);
            cur = recs.get(&cur.raw()).expect("resident record").1;
        }
        out
    }
}

impl RecordAccess for MemRecords {
    fn record_hash(&self, addr: Address) -> Option<KeyHash> {
        self.recs.lock().unwrap().get(&addr.raw()).map(|r| r.0)
    }

    fn record_prev(&self, addr: Address) -> Address {
        self.recs.lock().unwrap()[&addr.raw()].1
    }

    fn set_record_prev(&self, addr: Address, prev: Address) {
        self.recs.lock().unwrap().get_mut(&addr.raw()).expect("resident record").1 = prev;
    }

    fn try_alloc_merge_meta(&self, _guard: Option<&faster_epoch::EpochGuard>) -> Option<Address> {
        unreachable!("all records mutable in this stress test")
    }
    fn set_merge_meta(&self, _meta: Address, _a: Address, _b: Address) {
        unreachable!("all records mutable in this stress test")
    }
}

/// Upsert `key` as one atomic step: route, link the new record ahead of any
/// existing chain head, publish.
fn upsert(index: &HashIndex, recs: &MemRecords, key: u64) -> Address {
    let hash = KeyHash::of_u64(key);
    loop {
        match index.find_or_create_tag(hash, None) {
            CreateOutcome::Found(mut slot) => {
                let addr = recs.alloc(hash, slot.observed().address());
                if slot.cas_address(addr).is_ok() {
                    return addr;
                }
            }
            CreateOutcome::Created(created) => {
                let addr = recs.alloc(hash, Address::INVALID);
                created.finalize(addr);
                return addr;
            }
        }
    }
}

fn assert_reachable(index: &HashIndex, recs: &MemRecords, key: u64, addr: Address, ctx: &str) {
    let hash = KeyHash::of_u64(key);
    let slot = index
        .find_tag(hash, None)
        .unwrap_or_else(|| panic!("{ctx}: no index entry for key {key}"));
    let chain = recs.chain(slot.observed().address());
    assert!(
        chain.contains(&addr),
        "{ctx}: key {key} record {addr:?} unreachable (chain {chain:?})"
    );
}

fn run_case(seed: u64) -> Vec<usize> {
    let epoch = Epoch::new(16);
    let index =
        HashIndex::new(IndexConfig { k_bits: 3, tag_bits: 15, max_resize_chunks: 4 }, epoch);
    let recs = std::sync::Arc::new(MemRecords::default());
    // key -> latest record address, shared by writers/reader/straddler.
    let committed: RefCell<HashMap<u64, Address>> = RefCell::new(HashMap::new());
    let mut rng = faster_util::XorShift64::new(seed.wrapping_mul(0x9e3779b9) | 1);

    let report = {
        let mut threads: Vec<VThread<'_>> = Vec::new();
        // Two writers on disjoint key spaces.
        for w in 0..2u64 {
            let index = &index;
            let recs = &recs;
            let committed = &committed;
            let mut next = 0u64;
            threads.push(Box::new(move || {
                if next >= 40 {
                    return Step::Done;
                }
                let key = w * 1_000 + next;
                next += 1;
                let addr = upsert(index, recs, key);
                committed.borrow_mut().insert(key, addr);
                Step::Progress
            }));
        }
        // A reader validating a pseudo-random committed key each step.
        {
            let index = &index;
            let recs = &recs;
            let committed = &committed;
            let mut picks = rng.next_u64() | 1;
            let mut reads = 0u32;
            threads.push(Box::new(move || {
                if reads >= 60 {
                    return Step::Done;
                }
                reads += 1;
                let map = committed.borrow();
                if map.is_empty() {
                    return Step::Stalled;
                }
                picks ^= picks << 13;
                picks ^= picks >> 7;
                picks ^= picks << 17;
                let (key, addr) = map
                    .iter()
                    .nth((picks % map.len() as u64) as usize)
                    .map(|(k, a)| (*k, *a))
                    .expect("nonempty");
                drop(map);
                assert_reachable(index, recs, key, addr, "mid-run read");
                Step::Progress
            }));
        }
        // The straddler: claims a tentative entry in one step, finalizes it
        // in a later one — spanning whatever resizes the scheduler interleaves.
        {
            let index = &index;
            let recs = &recs;
            let committed = &committed;
            let mut pending: Option<(u64, faster_index::CreatedEntry<'_>)> = None;
            let mut next = 0u64;
            threads.push(Box::new(move || {
                match pending.take() {
                    Some((key, created)) => {
                        let hash = KeyHash::of_u64(key);
                        let addr = recs.alloc(hash, Address::INVALID);
                        created.finalize(addr);
                        committed.borrow_mut().insert(key, addr);
                        Step::Progress
                    }
                    None => {
                        if next >= 15 {
                            return Step::Done;
                        }
                        let key = 5_000 + next;
                        next += 1;
                        let hash = KeyHash::of_u64(key);
                        match index.find_or_create_tag(hash, None) {
                            CreateOutcome::Created(created) => {
                                pending = Some((key, created));
                                Step::Progress
                            }
                            CreateOutcome::Found(mut slot) => {
                                // Tag collision with an earlier key: treat as
                                // a plain upsert instead.
                                let addr = recs.alloc(hash, slot.observed().address());
                                slot.cas_address(addr).expect("single-threaded step");
                                committed.borrow_mut().insert(key, addr);
                                Step::Progress
                            }
                        }
                    }
                }
            }));
        }
        // The resizer: each step completes one full grow or shrink.
        {
            let index = &index;
            let recs = recs.clone();
            let mut resizes = 0u32;
            let mut grow_next = true;
            threads.push(Box::new(move || {
                if resizes >= 6 {
                    return Step::Done;
                }
                resizes += 1;
                let access: std::sync::Arc<dyn RecordAccess> = recs.clone();
                let ok = if grow_next {
                    index.grow(access, None)
                } else {
                    index.shrink(access, None)
                };
                assert!(ok, "resize must start from a stable phase between steps");
                grow_next = !grow_next;
                Step::Progress
            }));
        }

        Scheduler::from_seed(seed).run(&mut threads, 5_000)
    };
    assert!(!report.starved(), "index stress starved at seed {seed}: {:?}", report.outcome);

    // Quiesced: every committed key must be reachable in the final table.
    for (key, addr) in committed.borrow().iter() {
        assert_reachable(&index, &recs, *key, *addr, &format!("final check (seed {seed})"));
    }
    report.trace
}

#[test]
fn seeded_ops_with_resizes_preserve_all_keys() {
    for seed in faster_stress::seed_range_from_env(16) {
        run_case(seed);
    }
}

#[test]
fn index_stress_is_deterministic() {
    let a = run_case(7);
    let b = run_case(7);
    assert_eq!(a, b, "same seed must give an identical schedule");
}
