//! # faster-maintenance
//!
//! Metrics-driven background maintenance (DESIGN.md §11). FASTER's index and
//! HybridLog only stay fast if somebody grows the index before probe chains
//! explode, compacts dead log space, sizes the read cache to the workload,
//! and checkpoints on cadence. This crate turns those operator jobs into a
//! service with two strictly separated halves:
//!
//! * [`Policy`] — a **pure, deterministic** tuning engine: feed it a
//!   [`StoreMetrics`] snapshot per tick, get back a `Vec<Action>`. No
//!   threads, no clocks, no store handle — every decision is replayable in a
//!   unit test or proptest from a scripted snapshot sequence. All four
//!   decisions carry hysteresis (distinct arm/disarm thresholds plus
//!   cooldown ticks) so adjacent snapshots can never make the policy flap
//!   between an action and its inverse.
//! * [`MaintenanceService`] — a thin actuator loop on a background thread:
//!   snapshot, decide, apply each action through the [`Actuators`] trait
//!   (implemented by `faster-core` on the store). The loop holds no state of
//!   its own beyond the policy, so the races it can participate in are
//!   exactly the actuator calls — which the seeded cooperative scheduler in
//!   `crates/stress` drives deterministically via [`run_tick`].
//!
//! ## Signals and actuators
//!
//! | signal (windowed per tick)              | actuator                     |
//! |-----------------------------------------|------------------------------|
//! | probe steps / probe (+ overflow allocs) | `grow_index` / `shrink_index`|
//! | `hlog.dead_space()` / log size          | `compact(until)`             |
//! | read-cache hit rate                     | `resize_read_cache(pages)`   |
//! | log tail + WAL bytes since last ckpt    | `checkpoint()`               |

use faster_metrics::StoreMetrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One decision emitted by the [`Policy`]. Applied by an [`Actuators`] impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Double the hash index (probe chains too long / buckets overflowing).
    GrowIndex,
    /// Halve the hash index (probe chains degenerate, index oversized).
    ShrinkIndex,
    /// Roll live records in `[begin, until)` to the tail, then truncate.
    Compact {
        /// Upper bound of the compaction scan (a log address).
        until: u64,
    },
    /// Retarget the read cache's resident page budget.
    ResizeReadCache {
        /// New budget; the log clamps to `[2, buffer_pages]`.
        pages: u64,
    },
    /// Take a checkpoint generation (log + WAL growth since the last one).
    Checkpoint,
}

/// Thresholds and hysteresis bands for every policy decision.
///
/// Each decision uses a Schmitt-trigger pair (`*_hi` arms, `*_lo`/resume
/// disarms; the gap is the dead band) plus a cooldown in ticks. Opposing
/// index resizes additionally get a 4× cooldown so a grow can never be
/// reversed by the very probe-length drop it caused.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Grow the index when the windowed mean probe length exceeds this.
    pub grow_probe_hi: f64,
    /// Shrink when the windowed mean probe length falls below this (must be
    /// `< grow_probe_hi`; the gap is the hysteresis band).
    pub shrink_probe_lo: f64,
    /// Minimum probes in a window before the probe signal is trusted.
    pub min_probe_samples: u64,
    /// Never shrink below / grow above these table-size exponents.
    pub min_k_bits: u64,
    pub max_k_bits: u64,
    /// Ticks between same-direction resizes (opposing direction waits 4×).
    pub resize_cooldown_ticks: u64,

    /// Compact when `dead_space / log_size` exceeds this (and the trigger is
    /// armed).
    pub compact_dead_ratio_hi: f64,
    /// Re-arm the compaction trigger only after the ratio falls below this.
    pub compact_resume_ratio: f64,
    /// Minimum dead bytes before compaction is worth the copy cost.
    pub compact_min_bytes: u64,
    /// Ticks between compactions.
    pub compact_cooldown_ticks: u64,

    /// Shrink the read cache when the windowed hit rate falls below this.
    pub rc_hit_lo: f64,
    /// Grow it back when the windowed hit rate exceeds this.
    pub rc_hit_hi: f64,
    /// Minimum lookups in a window before the hit-rate signal is trusted.
    pub rc_min_samples: u64,
    /// Ticks between read-cache resizes.
    pub rc_cooldown_ticks: u64,

    /// Checkpoint when log-tail advance + WAL bytes since the last
    /// generation exceed this.
    pub ckpt_growth_bytes: u64,
    /// Minimum ticks between checkpoints.
    pub ckpt_min_interval_ticks: u64,

    /// Service loop period (ignored by the pure policy, which counts ticks).
    pub tick_interval: Duration,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            grow_probe_hi: 1.5,
            shrink_probe_lo: 1.02,
            min_probe_samples: 4096,
            min_k_bits: 8,
            max_k_bits: 28,
            resize_cooldown_ticks: 4,
            compact_dead_ratio_hi: 0.5,
            compact_resume_ratio: 0.25,
            compact_min_bytes: 1 << 20,
            compact_cooldown_ticks: 8,
            rc_hit_lo: 0.05,
            rc_hit_hi: 0.4,
            rc_min_samples: 2048,
            rc_cooldown_ticks: 8,
            ckpt_growth_bytes: 64 << 20,
            ckpt_min_interval_ticks: 16,
            tick_interval: Duration::from_millis(50),
        }
    }
}

impl PolicyConfig {
    fn validate(&self) {
        assert!(self.shrink_probe_lo < self.grow_probe_hi, "probe bands must not overlap");
        assert!(self.compact_resume_ratio < self.compact_dead_ratio_hi, "compact bands must not overlap");
        assert!(self.rc_hit_lo < self.rc_hit_hi, "read-cache bands must not overlap");
        assert!(self.min_k_bits <= self.max_k_bits);
    }
}

/// Windowed counter values remembered from the previous tick.
#[derive(Debug, Clone, Copy, Default)]
struct PrevCounters {
    probes: u64,
    probe_steps: u64,
    overflow_allocs: u64,
    rc_hits: u64,
    rc_misses: u64,
}

/// Which way the last index resize went (for the directional cooldown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResizeDir {
    Grow,
    Shrink,
}

/// The pure tuning engine: `decide()` maps a metrics snapshot to actions.
///
/// Deterministic and thread-free; all cadence is counted in ticks, so a test
/// can replay any scripted snapshot sequence and get identical decisions.
#[derive(Debug, Clone)]
pub struct Policy {
    cfg: PolicyConfig,
    tick: u64,
    prev: Option<PrevCounters>,
    last_resize: Option<(u64, ResizeDir)>,
    /// Schmitt latch: compaction fires only while armed, and re-arms only
    /// after the dead ratio has fallen below `compact_resume_ratio` **or**
    /// the fired compaction's truncation has landed (`bytes_truncated` grew
    /// past the value at disarm). The ratio alone is not enough: under
    /// sustained churn dead space accrues faster than one compaction
    /// reclaims, the ratio never dips below resume, and a ratio-only latch
    /// would disarm permanently. A compaction whose truncation was fully
    /// clamped (GC bound) makes no progress and keeps the latch down — no
    /// compact↔idle flapping against a clamp.
    compact_armed: bool,
    /// `bytes_truncated` observed when the latch last disarmed.
    compact_trunc_base: u64,
    last_compact_tick: Option<u64>,
    last_rc_tick: Option<u64>,
    /// Baselines captured at the last checkpoint (or first tick).
    ckpt_tail_base: u64,
    ckpt_wal_base: u64,
    last_ckpt_tick: u64,
}

impl Policy {
    pub fn new(cfg: PolicyConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            tick: 0,
            prev: None,
            last_resize: None,
            compact_armed: true,
            compact_trunc_base: 0,
            last_compact_tick: None,
            last_rc_tick: None,
            ckpt_tail_base: 0,
            ckpt_wal_base: 0,
            last_ckpt_tick: 0,
        }
    }

    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// The windowed mean probe length this tick would compute from `m`
    /// (`None` until a window exists or below `min_probe_samples`).
    pub fn window_probe_len(&self, m: &StoreMetrics) -> Option<f64> {
        let prev = self.prev?;
        let probes = m.index.probes.saturating_sub(prev.probes);
        if probes < self.cfg.min_probe_samples {
            return None;
        }
        let steps = m.index.probe_steps.saturating_sub(prev.probe_steps);
        Some(steps as f64 / probes as f64)
    }

    fn window_rc_hit_rate(&self, m: &StoreMetrics) -> Option<f64> {
        let prev = self.prev?;
        let rc = m.read_cache.as_ref()?;
        let hits = rc.hits.saturating_sub(prev.rc_hits);
        let misses = rc.misses.saturating_sub(prev.rc_misses);
        if hits + misses < self.cfg.rc_min_samples {
            return None;
        }
        Some(hits as f64 / (hits + misses) as f64)
    }

    fn resize_allowed(&self, dir: ResizeDir) -> bool {
        match self.last_resize {
            None => true,
            Some((at, last_dir)) => {
                // Reversing direction waits 4× as long as repeating it: the
                // drop in probe length a grow causes must never be read as a
                // shrink signal (and vice versa).
                let wait = if dir == last_dir {
                    self.cfg.resize_cooldown_ticks
                } else {
                    self.cfg.resize_cooldown_ticks * 4
                };
                self.tick.saturating_sub(at) >= wait
            }
        }
    }

    /// One policy tick. Feed monotone snapshots in tick order.
    pub fn decide(&mut self, m: &StoreMetrics) -> Vec<Action> {
        self.tick += 1;
        let mut actions = Vec::new();
        let first_tick = self.prev.is_none();
        if first_tick {
            // Baseline tick: establish windows, decide nothing yet.
            self.ckpt_tail_base = m.hlog.tail;
            self.ckpt_wal_base = m.wal.bytes;
        }

        // ---- compaction (gauge-based; works from the first tick's data) --
        let log_size = m.hlog.log_size().max(1);
        let dead_ratio = m.hlog.dead_space() as f64 / log_size as f64;
        if !self.compact_armed
            && (dead_ratio <= self.cfg.compact_resume_ratio
                || m.hlog.bytes_truncated > self.compact_trunc_base)
        {
            self.compact_armed = true;
        }
        if !first_tick
            && self.compact_armed
            && dead_ratio >= self.cfg.compact_dead_ratio_hi
            && m.hlog.dead_space() >= self.cfg.compact_min_bytes
            && self
                .last_compact_tick
                .is_none_or(|at| self.tick.saturating_sub(at) >= self.cfg.compact_cooldown_ticks)
            && m.hlog.safe_read_only > m.hlog.begin
        {
            actions.push(Action::Compact { until: m.hlog.safe_read_only });
            self.compact_armed = false;
            self.compact_trunc_base = m.hlog.bytes_truncated;
            self.last_compact_tick = Some(self.tick);
        }

        // ---- index resize --------------------------------------------------
        if let Some(avg) = self.window_probe_len(m) {
            let overflow_grew = self
                .prev
                .map(|p| m.index.overflow_allocs > p.overflow_allocs)
                .unwrap_or(false);
            // The probe signal inflates while a chunked resize migrates
            // buckets (every probe may walk both old and new chains), so
            // the grow arm is gated on resize-in-progress: never stack a
            // second grow on a signal the first one is still distorting.
            if (avg > self.cfg.grow_probe_hi || (overflow_grew && avg > self.cfg.shrink_probe_lo))
                && m.index.resize_active == 0
                && m.index.k_bits < self.cfg.max_k_bits
                && self.resize_allowed(ResizeDir::Grow)
            {
                actions.push(Action::GrowIndex);
                self.last_resize = Some((self.tick, ResizeDir::Grow));
            } else if avg < self.cfg.shrink_probe_lo
                && !overflow_grew
                && m.index.k_bits > self.cfg.min_k_bits
                && self.resize_allowed(ResizeDir::Shrink)
            {
                actions.push(Action::ShrinkIndex);
                self.last_resize = Some((self.tick, ResizeDir::Shrink));
            }
        }

        // ---- read-cache residency -----------------------------------------
        if let Some(hit) = self.window_rc_hit_rate(m) {
            let active = m.rc_log.active_pages;
            if active >= 2
                && self
                    .last_rc_tick
                    .is_none_or(|at| self.tick.saturating_sub(at) >= self.cfg.rc_cooldown_ticks)
            {
                if hit < self.cfg.rc_hit_lo && active > 2 {
                    actions.push(Action::ResizeReadCache { pages: (active / 2).max(2) });
                    self.last_rc_tick = Some(self.tick);
                } else if hit > self.cfg.rc_hit_hi {
                    actions.push(Action::ResizeReadCache { pages: active * 2 });
                    self.last_rc_tick = Some(self.tick);
                }
            }
        }

        // ---- checkpoint cadence -------------------------------------------
        let growth = m.hlog.tail.saturating_sub(self.ckpt_tail_base)
            + m.wal.bytes.saturating_sub(self.ckpt_wal_base);
        if !first_tick
            && growth >= self.cfg.ckpt_growth_bytes
            && self.tick.saturating_sub(self.last_ckpt_tick) >= self.cfg.ckpt_min_interval_ticks
        {
            actions.push(Action::Checkpoint);
            self.ckpt_tail_base = m.hlog.tail;
            self.ckpt_wal_base = m.wal.bytes;
            self.last_ckpt_tick = self.tick;
        }

        self.prev = Some(PrevCounters {
            probes: m.index.probes,
            probe_steps: m.index.probe_steps,
            overflow_allocs: m.index.overflow_allocs,
            rc_hits: m.read_cache.as_ref().map(|r| r.hits).unwrap_or(0),
            rc_misses: m.read_cache.as_ref().map(|r| r.misses).unwrap_or(0),
        });
        actions
    }
}

/// Store-side verbs the service drives. Implemented by `faster-core` for
/// `FasterKv` (+ optional `CheckpointManager`); tests substitute scripted
/// fakes.
///
/// Epoch contract: every method must be callable from a thread that holds
/// **no idle session** — `checkpoint`'s durability wait is epoch-gated, so an
/// implementation must acquire any session it needs inside the call and drop
/// it before returning.
pub trait Actuators: Send + Sync {
    /// Current metrics snapshot (counters + gauges filled).
    fn snapshot(&self) -> StoreMetrics;
    /// Doubles the index. Returns false if the resize could not run.
    fn grow_index(&self) -> bool;
    /// Halves the index. Returns false if the resize could not run.
    fn shrink_index(&self) -> bool;
    /// Rolls live records below `until` to the tail; returns records rolled.
    fn compact(&self, until: u64) -> u64;
    /// Retargets the read cache's resident pages; returns the clamped value.
    fn resize_read_cache(&self, pages: u64) -> u64;
    /// Takes a checkpoint generation. Returns false on failure or if the
    /// store has no checkpoint manager attached.
    fn checkpoint(&self) -> bool;
}

/// Monotone counters of everything the service has done (lock-free reads for
/// tests, benches, and the JSON gate).
#[derive(Debug, Default)]
pub struct MaintenanceStats {
    pub ticks: AtomicU64,
    pub grows: AtomicU64,
    pub shrinks: AtomicU64,
    pub resize_failures: AtomicU64,
    pub compactions: AtomicU64,
    pub records_rolled: AtomicU64,
    pub rc_resizes: AtomicU64,
    pub checkpoints: AtomicU64,
    pub checkpoint_failures: AtomicU64,
}

/// One snapshot → decide → apply cycle. This is the entire body of the
/// service thread's loop, exposed so deterministic tests (the cooperative
/// stress scheduler, the fault harness) can drive ticks without threads.
pub fn run_tick(policy: &mut Policy, acts: &dyn Actuators, stats: &MaintenanceStats) -> Vec<Action> {
    let snapshot = acts.snapshot();
    let actions = policy.decide(&snapshot);
    stats.ticks.fetch_add(1, Ordering::Relaxed);
    for action in &actions {
        match *action {
            Action::GrowIndex => {
                if acts.grow_index() {
                    stats.grows.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.resize_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            Action::ShrinkIndex => {
                if acts.shrink_index() {
                    stats.shrinks.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.resize_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            Action::Compact { until } => {
                stats.records_rolled.fetch_add(acts.compact(until), Ordering::Relaxed);
                stats.compactions.fetch_add(1, Ordering::Relaxed);
            }
            Action::ResizeReadCache { pages } => {
                acts.resize_read_cache(pages);
                stats.rc_resizes.fetch_add(1, Ordering::Relaxed);
            }
            Action::Checkpoint => {
                if acts.checkpoint() {
                    stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    actions
}

struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The background maintenance thread: ticks the policy every
/// `PolicyConfig::tick_interval` until stopped (or dropped).
pub struct MaintenanceService {
    stop: Arc<StopFlag>,
    stats: Arc<MaintenanceStats>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceService {
    /// Spawns the service. The actuator handle keeps the store alive for the
    /// service's lifetime; drop (or [`stop`](Self::stop)) the service to
    /// release it.
    pub fn start(acts: Arc<dyn Actuators>, policy: Policy) -> Self {
        let interval = policy.config().tick_interval;
        let stop = Arc::new(StopFlag { stopped: Mutex::new(false), cv: Condvar::new() });
        let stats = Arc::new(MaintenanceStats::default());
        let (stop2, stats2) = (stop.clone(), stats.clone());
        let handle = std::thread::Builder::new()
            .name("faster-maintenance".into())
            .spawn(move || {
                let mut policy = policy;
                loop {
                    {
                        let guard = stop2.stopped.lock().unwrap();
                        let (guard, _) = stop2
                            .cv
                            .wait_timeout_while(guard, interval, |stopped| !*stopped)
                            .unwrap();
                        if *guard {
                            break;
                        }
                    }
                    run_tick(&mut policy, &*acts, &stats2);
                }
            })
            .expect("spawn maintenance thread");
        Self { stop, stats, handle: Some(handle) }
    }

    /// Counters of applied actions (shared with the service thread).
    pub fn stats(&self) -> &Arc<MaintenanceStats> {
        &self.stats
    }

    /// Stops the thread and waits for the in-flight tick (if any) to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            *self.stop.stopped.lock().unwrap() = true;
            self.stop.cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for MaintenanceService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_metrics::StoreMetrics;

    fn snap() -> StoreMetrics {
        let mut m = StoreMetrics::default();
        m.index.k_bits = 16;
        m.hlog.tail = 1 << 20;
        m.hlog.safe_read_only = 1 << 19;
        m.hlog.begin = 64;
        m
    }

    /// Builds a snapshot whose window will show `avg` steps per probe.
    fn with_probe_window(base: &StoreMetrics, probes: u64, avg: f64) -> StoreMetrics {
        let mut m = base.clone();
        m.index.probes += probes;
        m.index.probe_steps += (probes as f64 * avg) as u64;
        m
    }

    #[test]
    fn first_tick_decides_nothing() {
        let mut p = Policy::new(PolicyConfig::default());
        let mut m = snap();
        m.hlog.dead_bytes = 1 << 30; // screaming compaction signal
        assert!(p.decide(&m).is_empty());
    }

    #[test]
    fn grow_fires_above_hi_and_respects_cooldown() {
        let mut p = Policy::new(PolicyConfig::default());
        let m0 = snap();
        p.decide(&m0);
        let m1 = with_probe_window(&m0, 10_000, 3.0);
        assert_eq!(p.decide(&m1), vec![Action::GrowIndex]);
        // Still hot next tick, but inside the cooldown window.
        let m2 = with_probe_window(&m1, 10_000, 3.0);
        assert!(p.decide(&m2).is_empty());
    }

    #[test]
    fn grow_gated_while_resize_in_progress() {
        let mut p = Policy::new(PolicyConfig::default());
        let m0 = snap();
        p.decide(&m0);
        // A hot probe signal during a chunked resize must not stack a grow:
        // the migration itself is what inflates the signal.
        let mut m1 = with_probe_window(&m0, 10_000, 3.0);
        m1.index.resize_active = 1;
        assert!(p.decide(&m1).is_empty(), "grow fired mid-resize");
        // The resize completes and the signal is still hot: now it fires.
        let mut m2 = with_probe_window(&m1, 10_000, 3.0);
        m2.index.resize_active = 0;
        assert_eq!(p.decide(&m2), vec![Action::GrowIndex]);
    }

    #[test]
    fn dead_band_is_quiet() {
        let mut p = Policy::new(PolicyConfig::default());
        let mut m = snap();
        p.decide(&m);
        for _ in 0..32 {
            m = with_probe_window(&m, 10_000, 1.2); // between lo and hi
            assert!(p.decide(&m).is_empty());
        }
    }

    #[test]
    fn shrink_blocked_right_after_grow() {
        let cfg = PolicyConfig::default();
        let mut p = Policy::new(cfg);
        let m0 = snap();
        p.decide(&m0);
        let m1 = with_probe_window(&m0, 10_000, 3.0);
        assert_eq!(p.decide(&m1), vec![Action::GrowIndex]);
        // Probe length collapses (as a grow makes it): shrink must wait the
        // 4× reversal cooldown even though the signal is below lo.
        let mut m = m1;
        for _ in 0..(cfg.resize_cooldown_ticks * 4 - 1) {
            m = with_probe_window(&m, 10_000, 1.0);
            assert!(p.decide(&m).is_empty(), "shrink fired inside reversal cooldown");
        }
        m = with_probe_window(&m, 10_000, 1.0);
        assert_eq!(p.decide(&m), vec![Action::ShrinkIndex]);
    }

    #[test]
    fn compact_is_a_schmitt_trigger() {
        let mut p = Policy::new(PolicyConfig { compact_min_bytes: 1, ..Default::default() });
        let mut m = snap();
        p.decide(&m);
        m.hlog.dead_bytes = m.hlog.log_size() * 3 / 4;
        let a = p.decide(&m);
        assert!(matches!(a.as_slice(), [Action::Compact { .. }]));
        // Ratio still high: trigger is disarmed, no second compact.
        for _ in 0..64 {
            assert!(p.decide(&m).is_empty());
        }
        // Ratio falls below resume → re-arms; climbs again → fires again.
        m.hlog.bytes_truncated = m.hlog.dead_bytes;
        assert!(p.decide(&m).is_empty());
        m.hlog.dead_bytes += m.hlog.log_size() * 3 / 4;
        let a = p.decide(&m);
        assert!(matches!(a.as_slice(), [Action::Compact { .. }]));
    }

    #[test]
    fn checkpoint_keyed_on_growth_since_last() {
        let cfg = PolicyConfig {
            ckpt_growth_bytes: 1 << 20,
            ckpt_min_interval_ticks: 1,
            ..Default::default()
        };
        let mut p = Policy::new(cfg);
        let mut m = snap();
        p.decide(&m);
        assert!(p.decide(&m).is_empty(), "no growth, no checkpoint");
        m.hlog.tail += 2 << 20;
        assert_eq!(p.decide(&m), vec![Action::Checkpoint]);
        // Baseline advanced: same tail is no longer growth.
        assert!(p.decide(&m).is_empty());
        m.wal.bytes += 2 << 20; // WAL growth alone also triggers
        assert_eq!(p.decide(&m), vec![Action::Checkpoint]);
    }

    #[test]
    fn rc_resize_follows_hit_rate_bands() {
        let mut p = Policy::new(PolicyConfig { rc_cooldown_ticks: 1, ..Default::default() });
        let mut m = snap();
        m.read_cache = Some(Default::default());
        m.rc_log.active_pages = 8;
        p.decide(&m);
        // Cold cache: hit rate ~0 → halve.
        m.read_cache.as_mut().unwrap().misses += 10_000;
        assert_eq!(p.decide(&m), vec![Action::ResizeReadCache { pages: 4 }]);
        m.rc_log.active_pages = 4;
        // Hot cache: hit rate ~0.9 → double.
        let rc = m.read_cache.as_mut().unwrap();
        rc.hits += 9_000;
        rc.misses += 1_000;
        assert_eq!(p.decide(&m), vec![Action::ResizeReadCache { pages: 8 }]);
        // In the dead band: nothing.
        let rc = m.read_cache.as_mut().unwrap();
        rc.hits += 2_000;
        rc.misses += 8_000;
        m.rc_log.active_pages = 8;
        assert!(p.decide(&m).is_empty());
    }

    #[test]
    fn service_ticks_and_stops() {
        #[derive(Default)]
        struct CountingActs(AtomicU64);
        impl Actuators for CountingActs {
            fn snapshot(&self) -> StoreMetrics {
                self.0.fetch_add(1, Ordering::Relaxed);
                StoreMetrics::default()
            }
            fn grow_index(&self) -> bool {
                true
            }
            fn shrink_index(&self) -> bool {
                true
            }
            fn compact(&self, _until: u64) -> u64 {
                0
            }
            fn resize_read_cache(&self, pages: u64) -> u64 {
                pages
            }
            fn checkpoint(&self) -> bool {
                false
            }
        }
        let acts = Arc::new(CountingActs::default());
        let policy = Policy::new(PolicyConfig {
            tick_interval: Duration::from_millis(1),
            ..Default::default()
        });
        let svc = MaintenanceService::start(acts.clone(), policy);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while svc.stats().ticks.load(Ordering::Relaxed) < 3 {
            assert!(std::time::Instant::now() < deadline, "service never ticked");
            std::thread::yield_now();
        }
        svc.stop();
        let after = acts.0.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(acts.0.load(Ordering::Relaxed), after, "service kept ticking after stop");
    }
}
