//! Cross-crate property-based tests of core invariants.

use faster_core::checkpoint::CheckpointData;
use faster_core::record::RecordRef;
use faster_core::VarValue;
use faster_index::{CreateOutcome, HashIndex, IndexCheckpoint, IndexConfig};
use faster_epoch::Epoch;
use faster_util::{Address, KeyHash};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// The §3.2 invariant, model-checked: after any sequence of inserts and
    /// deletes, each (offset, tag) has at most one visible entry and the
    /// index agrees with a map model keyed by (bucket, tag).
    #[test]
    fn index_matches_class_model(ops in proptest::collection::vec((0u64..500, any::<bool>()), 1..300)) {
        let index = HashIndex::new(
            IndexConfig { k_bits: 3, tag_bits: 4, max_resize_chunks: 2 },
            Epoch::new(4),
        );
        let mut model: HashMap<(usize, u16), u64> = HashMap::new();
        for &(key, is_insert) in &ops {
            let h = KeyHash::of_u64(key);
            let class = (h.bucket_index(3), h.tag(3, 4));
            if is_insert {
                let addr = 64 + key * 8;
                match index.find_or_create_tag(h, None) {
                    CreateOutcome::Created(c) => { c.finalize(Address::new(addr)); }
                    CreateOutcome::Found(mut slot) => {
                        slot.cas_address(Address::new(addr)).unwrap();
                    }
                }
                model.insert(class, addr);
            } else if let Some(slot) = index.find_tag(h, None) {
                slot.cas_delete().unwrap();
                model.remove(&class);
            } else {
                prop_assert!(!model.contains_key(&class));
            }
        }
        // Compare every class.
        for key in 0u64..500 {
            let h = KeyHash::of_u64(key);
            let class = (h.bucket_index(3), h.tag(3, 4));
            let got = index.find_tag(h, None).map(|s| s.observed().address().raw());
            prop_assert_eq!(got, model.get(&class).copied(), "class {:?}", class);
        }
        prop_assert_eq!(index.count_entries(), model.len());
    }

    /// Addresses round-trip through every page-bits decomposition.
    #[test]
    fn address_page_offset_round_trip(raw in 0u64..(1 << 48), page_bits in 6u32..30) {
        let a = Address::new(raw);
        let rebuilt = Address::from_page_offset(a.page(page_bits), a.offset(page_bits), page_bits);
        prop_assert_eq!(rebuilt, a);
    }

    /// Record images round-trip through raw bytes for arbitrary contents.
    #[test]
    fn record_parse_round_trip(prev in 0u64..(1 << 48), key: u64, value: u64,
                               tomb: bool, delta: bool) {
        use faster_core::record::{RecordHeader, DELTA_BIT, TOMBSTONE_BIT};
        let mut buf = vec![0u8; RecordRef::<u64, u64>::size()];
        {
            let r = unsafe { RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr()) };
            let mut h = RecordHeader::new(Address::new(prev));
            if tomb { h = h.with(TOMBSTONE_BIT); }
            if delta { h = h.with(DELTA_BIT); }
            r.init_header(h);
            r.init_key(&key);
            unsafe { *r.value_mut() = value };
        }
        let (h, k, v) = RecordRef::<u64, u64>::parse_bytes(&buf).expect("live record");
        prop_assert_eq!(h.prev(), Address::new(prev));
        prop_assert_eq!(h.is_tombstone(), tomb);
        prop_assert_eq!(h.is_delta(), delta);
        prop_assert_eq!(k, key);
        prop_assert_eq!(v, value);
    }

    /// Checkpoint metadata survives arbitrary contents.
    #[test]
    fn checkpoint_bytes_round_trip(t1 in 0u64..(1<<48), t2 in 0u64..(1<<48),
                                   begin in 0u64..(1<<48),
                                   entries in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..50),
                                   k_bits in 1u8..30, tag_bits in 0u8..16) {
        let data = CheckpointData {
            t1: Address::new(t1.min(t2)),
            t2: Address::new(t2.max(t1)),
            begin: Address::new(begin),
            index: IndexCheckpoint { k_bits, tag_bits: tag_bits.min(15), entries },
        };
        let parsed = CheckpointData::from_bytes(&data.to_bytes()).expect("round trip");
        prop_assert_eq!(parsed, data);
    }

    /// VarValue round-trips arbitrary payloads up to capacity.
    #[test]
    fn var_value_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v: VarValue<64> = VarValue::new(&bytes);
        prop_assert_eq!(v.as_bytes(), &bytes[..]);
        prop_assert_eq!(v.len(), bytes.len());
    }

    /// Every cache policy's miss count is bounded below by the number of
    /// distinct keys (cold misses) and above by the trace length.
    #[test]
    fn cache_policies_miss_bounds(trace in proptest::collection::vec(0u64..64, 1..400),
                                  cap in 1usize..32) {
        use faster_cachesim::*;
        let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        let policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(Fifo::new(cap)),
            Box::new(Lru::new(cap)),
            Box::new(LruK::new(cap, 2)),
            Box::new(Clock::new(cap)),
            Box::new(HLog::new(cap, 0.9)),
        ];
        for mut p in policies {
            let mut misses = 0u64;
            for &k in &trace {
                if !p.access(k) { misses += 1; }
            }
            prop_assert!(misses >= distinct, "{}: misses {} < distinct {}", p.name(), misses, distinct);
            prop_assert!(misses <= trace.len() as u64);
            // With capacity >= distinct keys, only cold misses occur
            // (HLOG excepted: replication can evict early).
            if cap as u64 >= 2 * distinct {
                prop_assert_eq!(misses, distinct, "{} with ample capacity", p.name());
            }
        }
    }

    /// The B+-tree baseline agrees with a BTreeMap model.
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec((0u64..200, 0u8..3, any::<u64>()), 1..400)) {
        let tree: faster_baselines::BTreeIndex<u64> = faster_baselines::BTreeIndex::new();
        let mut model = std::collections::BTreeMap::new();
        for &(k, op, v) in &ops {
            match op {
                0 => { tree.upsert(k, v); model.insert(k, v); }
                1 => { prop_assert_eq!(tree.delete(k), model.remove(&k).is_some()); }
                _ => { prop_assert_eq!(tree.get(k), model.get(&k).copied()); }
            }
        }
        let scan = tree.range(0, u64::MAX);
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scan, expect);
    }
}
