//! Criterion microbenchmarks for the core primitives: hashing, epoch
//! operations, index probes and inserts, log allocation, workload
//! generation, and end-to-end single-thread operations.

use criterion::{criterion_group, criterion_main, Criterion};
use faster_core::{BatchOp, CountStore, FasterKv, FasterKvConfig, Outcome};
use faster_epoch::Epoch;
use faster_hlog::{HLogConfig, HybridLog};
use faster_index::{CreateOutcome, HashIndex, IndexConfig};
use faster_storage::{MemDevice, NullDevice};
use faster_util::{Address, KeyHash};
use faster_ycsb::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hash(c: &mut Criterion) {
    c.bench_function("hash_u64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            std::hint::black_box(faster_util::hash_u64(k))
        })
    });
}

fn bench_epoch(c: &mut Criterion) {
    let epoch = Epoch::new(16);
    let guard = epoch.acquire();
    c.bench_function("epoch_refresh", |b| b.iter(|| guard.refresh()));
    c.bench_function("epoch_bump_with_noop", |b| {
        b.iter(|| {
            guard.bump_with(|| {});
            guard.refresh();
        })
    });
}

fn bench_index(c: &mut Criterion) {
    let epoch = Epoch::new(8);
    let index = HashIndex::new(
        IndexConfig { k_bits: 16, tag_bits: 15, max_resize_chunks: 8 },
        epoch,
    );
    // Populate 50k entries.
    for k in 0..50_000u64 {
        if let CreateOutcome::Created(cr) = index.find_or_create_tag(KeyHash::of_u64(k), None) {
            cr.finalize(Address::new(64 + k * 8));
        }
    }
    c.bench_function("index_find_hit", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 50_000;
            std::hint::black_box(index.find_tag(KeyHash::of_u64(k), None))
        })
    });
    c.bench_function("index_find_miss", |b| {
        let mut k = 1_000_000u64;
        b.iter(|| {
            k += 1;
            std::hint::black_box(index.find_tag(KeyHash::of_u64(k), None))
        })
    });
}

fn bench_log_allocate(c: &mut Criterion) {
    let epoch = Epoch::new(8);
    let log = HybridLog::new(
        HLogConfig { page_bits: 20, buffer_pages: 32, mutable_pages: 4, io_threads: 2 },
        epoch.clone(),
        NullDevice::new(),
    );
    let guard = epoch.acquire();
    c.bench_function("hlog_allocate_24B", |b| {
        b.iter(|| std::hint::black_box(log.allocate(24, &guard)))
    });
}

fn bench_zipf(c: &mut Criterion) {
    let z = ZipfianGenerator::new(1 << 20, 0.99);
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("zipf_next_rank", |b| {
        b.iter(|| std::hint::black_box(z.next_rank(&mut rng)))
    });
}

fn bench_store_ops(c: &mut Criterion) {
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(
        FasterKvConfig::for_keys(1 << 16),
        CountStore,
        MemDevice::new(2),
    );
    let session = store.start_session();
    for k in 0..(1u64 << 16) {
        session.upsert(&k, &1).unwrap();
    }
    c.bench_function("faster_read_hot", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) & 0xFFFF;
            match session.read(&k, &0) {
                Ok(Outcome::Value(v)) => std::hint::black_box(v),
                _ => 0,
            }
        })
    });
    c.bench_function("faster_read_batch32_hot", |b| {
        let mut base = 0u64;
        let mut ops = vec![BatchOp::Read { key: 0u64, input: 0u64 }; 32];
        b.iter(|| {
            for (i, op) in ops.iter_mut().enumerate() {
                *op = BatchOp::Read { key: (base + i as u64 * 97) & 0xFFFF, input: 0 };
            }
            base = base.wrapping_add(1);
            std::hint::black_box(session.execute_batch(&ops))
        })
    });
    c.bench_function("faster_rmw_in_place", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) & 0xFFFF;
            session.rmw(&k, &1)
        })
    });
    c.bench_function("faster_upsert_hot", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) & 0xFFFF;
            session.upsert(&k, &7)
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_hash, bench_epoch, bench_index, bench_log_allocate, bench_zipf, bench_store_ops
}
criterion_main!(benches);
