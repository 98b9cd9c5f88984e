//! Self-tuning gate for the background maintenance service (DESIGN.md §11).
//!
//! Starts a store whose index is deliberately undersized for the keyspace
//! (long probe chains, the untuned seed measured ~5.6 steps/probe at 2 M
//! keys over a 2^16-bucket index), enables the real `MaintenanceService`
//! thread, and runs a load + uniform-read workload. No manual `grow_index`
//! call anywhere: the policy alone must observe the windowed probe length
//! and resize the index until the signal drops inside its band.
//!
//! Prints one `json,...` row that `scripts/bench_smoke.sh` collects into
//! `BENCH_maint.json` and gates on: the final measurement window's average
//! probe length must come in at or under `FASTER_BENCH_MAINT_MAX_PROBE`
//! (default 2.0) with at least one policy-driven grow.
//!
//! Knobs: `FASTER_BENCH_MAINT_KEYS` (default 2 M), `FASTER_BENCH_MAINT_K_BITS`
//! (default 16), `FASTER_BENCH_MAINT_SECS` (tuning deadline, default 30).

use faster_bench::in_memory_log;
use faster_core::maintenance::{Policy, PolicyConfig};
use faster_core::{CountStore, FasterKv, FasterKvConfig, Outcome};
use faster_index::IndexConfig;
use faster_storage::MemDevice;
use faster_util::XorShift64;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Windowed mean probe length between two metric snapshots.
fn window_probe_len(m0: &faster_metrics::StoreMetrics, m1: &faster_metrics::StoreMetrics) -> f64 {
    let probes = m1.index.probes.saturating_sub(m0.index.probes);
    let steps = m1.index.probe_steps.saturating_sub(m0.index.probe_steps);
    if probes == 0 {
        0.0
    } else {
        steps as f64 / probes as f64
    }
}

fn main() {
    let keys = env_u64("FASTER_BENCH_MAINT_KEYS", 2_000_000);
    let k_bits_start = env_u64("FASTER_BENCH_MAINT_K_BITS", 16) as u8;
    let deadline = Duration::from_secs(env_u64("FASTER_BENCH_MAINT_SECS", 30));

    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(
        FasterKvConfig::for_keys(keys)
            .with_log(in_memory_log(keys, 24, 0.9))
            .with_index(IndexConfig { k_bits: k_bits_start, tag_bits: 15, max_resize_chunks: 64 }),
        CountStore,
        MemDevice::new(2),
    );

    // The service under test: default hysteresis bands, fast-but-settled
    // ticks (the post-resize window must be observed before the next grow,
    // or a mid-resize probe inflation cascades to `max_k_bits`), every
    // non-index arm disabled — this gate pins the probe-length feedback
    // loop in isolation. `max_k_bits` 22 is ~2x the keyspace's natural
    // size, so the policy has headroom but a runaway is bounded.
    let service = store.start_maintenance(
        None,
        Policy::new(PolicyConfig {
            resize_cooldown_ticks: 2,
            max_k_bits: 22,
            tick_interval: Duration::from_millis(10),
            compact_min_bytes: u64::MAX,
            rc_min_samples: u64::MAX,
            ckpt_growth_bytes: u64::MAX,
            ..PolicyConfig::default()
        }),
    );

    let session = store.start_session();
    let t0 = Instant::now();
    for k in 0..keys {
        session.upsert(&k, &k).unwrap();
    }
    session.complete_pending(true);
    let load_secs = t0.elapsed().as_secs_f64();

    // Baseline window: the untuned probe length right after load (the
    // service may already be resizing underneath — that's the point).
    let mut rng = XorShift64::new(0x5E1F);
    let round = (keys / 4).max(1 << 16);
    let mut m0 = store.metrics();
    for _ in 0..round {
        std::hint::black_box(session.read(&rng.next_below(keys), &0)).unwrap();
    }
    let probe_start = window_probe_len(&m0, &store.metrics());

    // Keep reading until the service has settled the signal inside its
    // band (or the deadline passes — the smoke gate then fails loudly).
    let tune0 = Instant::now();
    let mut probe_final;
    loop {
        m0 = store.metrics();
        for _ in 0..round {
            std::hint::black_box(session.read(&rng.next_below(keys), &0)).unwrap();
        }
        probe_final = window_probe_len(&m0, &store.metrics());
        if probe_final <= 1.5 || tune0.elapsed() > deadline {
            break;
        }
    }
    let tune_secs = tune0.elapsed().as_secs_f64();

    let grows = service.stats().grows.load(std::sync::atomic::Ordering::Relaxed);
    let m = store.metrics();
    let mut hits = 0u64;
    for _ in 0..1024 {
        if let Ok(Outcome::Value(_)) = session.read(&rng.next_below(keys), &0) {
            hits += 1;
        }
    }
    assert_eq!(hits, 1024, "self-tuned store lost keys");
    drop(session);
    drop(service);

    println!(
        "# maint_selftune: {keys} keys, index 2^{k_bits_start} -> 2^{} ({grows} grows), \
         probe len {probe_start:.2} -> {probe_final:.2}",
        m.index.k_bits
    );
    faster_bench::emit("maint", "probe_len_final", m.index.k_bits, format!("{probe_final:.3}"));
    println!(
        "json,{{\"bench\":\"maint_selftune\",\"keys\":{keys},\"k_bits_start\":{k_bits_start},\
         \"k_bits_final\":{},\"grows\":{grows},\"probe_len_start\":{probe_start:.3},\
         \"probe_len_final\":{probe_final:.3},\"load_secs\":{load_secs:.3},\
         \"tune_secs\":{tune_secs:.3}}}",
        m.index.k_bits
    );
}
