//! Single layers timed from outside, through their public functions, on
//! devices with the same latency model the store runs on and with the same
//! CPU placement: device threads on the harness CPU, the caller (standing in
//! for the server worker) and the WAL commit thread on the SUT CPU.

use crate::affinity::{pin, HARNESS_CPU, SUT_CPU};
use faster_server::Store;
use faster_storage::{CompletionRing, Device, LatencyModel, MemDevice, Sqe};
use faster_util::KeyHash;
use faster_wal::{Wal, WalConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RING_PARK: Duration = Duration::from_millis(100);

/// Mean ns per `HashIndex::find_tag` over `keys` (the workload's own key
/// stream) against the loaded store's index.
pub fn index_find_ns(store: &Store, keys: &[u64]) -> f64 {
    let hashes: Vec<KeyHash> = keys.iter().map(KeyHash::of_pod).collect();
    let session = store.start_session();
    let index = store.index();
    let start = Instant::now();
    let mut found = 0usize;
    for &h in &hashes {
        found += black_box(index.find_tag(h, Some(session.guard()))).is_some() as usize;
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(found, hashes.len(), "every loaded key has an index entry");
    ns / hashes.len() as f64
}

/// Mean µs from `Device::submit(Sqe::read)` to its CQE reaped, with `depth`
/// reads in flight, on a `MemDevice` carrying the NVMe latency model.
pub fn storage_read_us(depth: usize, rounds: usize) -> f64 {
    const SECTOR: usize = 512;
    const EXTENT: u64 = 1 << 20;
    pin(HARNESS_CPU);
    let dev = MemDevice::with_latency(2, LatencyModel::nvme());
    pin(SUT_CPU);
    let ring = Arc::new(CompletionRing::new());
    let mut cqes = Vec::new();
    dev.submit(Sqe::write(0, 0, vec![0xA5; EXTENT as usize], &ring));
    while ring.reap(&mut cqes) == 0 {
        ring.wait_nonempty(RING_PARK);
    }
    let mut total = Duration::ZERO;
    let mut offset = 0u64;
    for _ in 0..rounds {
        cqes.clear();
        let start = Instant::now();
        for id in 0..depth as u64 {
            offset = (offset + 7 * SECTOR as u64) % (EXTENT - SECTOR as u64);
            dev.submit(Sqe::read(id, offset, SECTOR, &ring));
        }
        while cqes.len() < depth {
            if ring.reap(&mut cqes) == 0 {
                ring.wait_nonempty(RING_PARK);
            }
        }
        total += start.elapsed();
        assert!(cqes.iter().all(|c| c.result.is_ok()), "probe reads succeed");
    }
    // Each read of a round is in flight for the whole round.
    total.as_secs_f64() * 1e6 / rounds as f64
}

/// Mean µs for one `Wal::append` → `wait_durable` with nothing else
/// appending: the floor under every durable ack at depth 1.
pub fn wal_commit_us(rounds: usize) -> f64 {
    pin(HARNESS_CPU);
    let dev = MemDevice::with_latency(1, LatencyModel::nvme());
    pin(SUT_CPU);
    let wal = Wal::new(
        dev,
        WalConfig {
            batch_window: Duration::ZERO,
            segment_size: 1 << 20,
        },
    );
    let payload = [0x5Au8; 24];
    let start = Instant::now();
    for _ in 0..rounds {
        let lsn = wal.append(&payload).expect("append to a healthy WAL");
        wal.wait_durable(lsn).expect("commit on a healthy device");
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}
