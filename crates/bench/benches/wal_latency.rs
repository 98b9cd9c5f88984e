//! Group-commit WAL throughput vs. per-operation fsync (DESIGN.md §10).
//!
//! Both modes run against one WAL on a `MemDevice` with the NVMe latency
//! model, so every flush barrier costs a realistic ~20 µs fsync:
//!
//! - `per_op`: sessions serialize append + `wait_durable` under a mutex —
//!   the classic one-fsync-per-commit discipline of a shared log file.
//!   Aggregate throughput is pinned near `1 / fsync_latency` regardless of
//!   session count.
//! - `group`: sessions append concurrently and block on `wait_durable`;
//!   whoever finds the log idle leads everything that arrived during the
//!   previous barrier as one group, so each fsync amortizes across it.
//!
//! Prints one `json,...` row per configuration; `scripts/bench_smoke.sh`
//! collects them into `BENCH_wal.json` and gates on group commit at 8
//! sessions beating per-op fsync by `FASTER_BENCH_WAL_MIN_RATIO` (default
//! 3×). A second sweep varies the batch window at 8 sessions — the
//! EXPERIMENTS.md recipe for picking a window on real hardware.
//!
//! Knobs: `FASTER_BENCH_WAL_SECS` (seconds per config, default 0.5).

use faster_storage::{Device, LatencyModel, MemDevice};
use faster_wal::{Wal, WalConfig};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const PAYLOAD: [u8; 64] = [0x5A; 64];

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Run `sessions` committer threads for `dur`; returns total acked ops.
fn run(wal: &Arc<Wal>, sessions: usize, dur: Duration, serialize: Option<&Arc<Mutex<()>>>) -> u64 {
    let start_gate = Arc::new(Barrier::new(sessions + 1));
    let mut handles = Vec::new();
    for _ in 0..sessions {
        let wal = wal.clone();
        let gate = start_gate.clone();
        let lock = serialize.cloned();
        handles.push(std::thread::spawn(move || {
            gate.wait();
            let start = Instant::now();
            let mut ops = 0u64;
            while start.elapsed() < dur {
                match &lock {
                    Some(m) => {
                        let _g = m.lock().unwrap();
                        let lsn = wal.append(&PAYLOAD).expect("append");
                        wal.wait_durable(lsn).expect("durable");
                    }
                    None => {
                        let lsn = wal.append(&PAYLOAD).expect("append");
                        wal.wait_durable(lsn).expect("durable");
                    }
                }
                ops += 1;
            }
            ops
        }));
    }
    start_gate.wait();
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

fn bench_config(mode: &str, sessions: usize, window: Duration, dur: Duration) -> f64 {
    // Fresh log per config: a big segment so the run never needs a
    // mid-flight segment roll, on an NVMe-latency device.
    let device: Arc<dyn Device> = MemDevice::with_latency(1, LatencyModel::nvme());
    let wal = Wal::new(device, WalConfig { batch_window: window, segment_size: 1 << 26 });
    let serialize = (mode == "per_op").then(|| Arc::new(Mutex::new(())));

    // Short warmup so the device pool is hot.
    run(&wal, sessions, Duration::from_millis(50), serialize.as_ref());
    let start = Instant::now();
    let ops = run(&wal, sessions, dur, serialize.as_ref());
    let secs = start.elapsed().as_secs_f64();
    let kops = ops as f64 / secs / 1e3;
    let lat_us = sessions as f64 * secs * 1e6 / ops as f64;
    let window_us = window.as_micros();
    println!(
        "wal_latency mode={mode:<7} sessions={sessions:<2} window={window_us:>4}us \
         {kops:>9.1} Kops  {lat_us:>7.1} us/commit"
    );
    println!(
        "json,{{\"bench\":\"wal_latency\",\"mode\":\"{mode}\",\"sessions\":{sessions},\
         \"window_us\":{window_us},\"ops\":{ops},\"secs\":{secs:.4},\"kops\":{kops:.2},\
         \"lat_us\":{lat_us:.2}}}"
    );
    kops
}

fn main() {
    let dur = Duration::from_secs_f64(env_f64("FASTER_BENCH_WAL_SECS", 0.5).clamp(0.1, 30.0));
    println!(
        "# wal_latency: 64 B records, NVMe latency model (~20 us fsync), {:.1}s/config",
        dur.as_secs_f64()
    );

    let mut per_op_8 = 0.0;
    let mut group_8 = 0.0;
    for sessions in [1usize, 2, 4, 8] {
        let p = bench_config("per_op", sessions, Duration::ZERO, dur);
        let g = bench_config("group", sessions, Duration::ZERO, dur);
        if sessions == 8 {
            per_op_8 = p;
            group_8 = g;
        }
    }

    // Batch-window sweep at 8 sessions: longer windows trade commit latency
    // for bigger groups (matters once fsync is cheap relative to arrivals).
    for window_us in [50u64, 200, 1000] {
        bench_config("group", 8, Duration::from_micros(window_us), dur);
    }

    if per_op_8 > 0.0 {
        println!("speedup: group/per_op at 8 sessions {:.2}x", group_8 / per_op_8);
    }
}
