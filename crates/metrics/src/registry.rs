//! The store-wide registry and its typed snapshot.
//!
//! `MetricsRegistry` owns one `Arc` per subsystem group; the store hands
//! clones of those `Arc`s to each layer at construction. `snapshot_counters`
//! captures every counter into a plain-data [`StoreMetrics`]; gauge fields
//! (epoch positions, log region addresses, index geometry, device byte
//! totals) are filled in afterwards by `FasterKv::metrics()`, which is the
//! only place that can see the live structures.

use crate::groups::{
    EpochMetrics, HlogMetrics, IndexMetrics, ReadCacheMetrics, SessionHub, SessionTotals,
    WalMetrics,
};
use crate::histogram::HistogramSnapshot;
use crate::MetricsConfig;
use std::sync::Arc;

pub struct MetricsRegistry {
    pub config: MetricsConfig,
    pub epoch: Arc<EpochMetrics>,
    pub index: Arc<IndexMetrics>,
    pub hlog: Arc<HlogMetrics>,
    /// The read cache's internal log (separate so rc churn doesn't pollute
    /// main-log flush/eviction counts).
    pub rc_log: Arc<HlogMetrics>,
    pub read_cache: Arc<ReadCacheMetrics>,
    pub sessions: Arc<SessionHub>,
    /// Write-ahead-log counters (all zero when the store runs without one).
    pub wal: Arc<WalMetrics>,
}

impl MetricsRegistry {
    pub fn new(config: MetricsConfig) -> Self {
        let latency = config.latency;
        MetricsRegistry {
            config,
            epoch: Arc::new(EpochMetrics::default()),
            index: Arc::new(IndexMetrics::default()),
            hlog: Arc::new(HlogMetrics::default()),
            rc_log: Arc::new(HlogMetrics::default()),
            read_cache: Arc::new(ReadCacheMetrics::default()),
            sessions: Arc::new(SessionHub::new(latency)),
            wal: Arc::new(WalMetrics::default()),
        }
    }

    /// Capture all counters. Gauge fields are left zero for the caller
    /// (the store) to fill from live structures.
    pub fn snapshot_counters(&self, with_read_cache: bool) -> StoreMetrics {
        let (totals, live_sessions) = self.sessions.totals();
        StoreMetrics {
            epoch: EpochSnapshot {
                refreshes: self.epoch.refreshes.get(),
                bumps: self.epoch.bumps.get(),
                drain_actions: self.epoch.drain_actions.get(),
                current: 0,
                safe: 0,
            },
            index: IndexSnapshot {
                probes: self.index.probes.get(),
                probe_steps: self.index.probe_steps.get(),
                overflow_allocs: self.index.overflow_allocs.get(),
                tentative_restarts: self.index.tentative_restarts.get(),
                resize_chunk_claims: self.index.resize_chunk_claims.get(),
                resize_backoffs: self.index.resize_backoffs.get(),
                k_bits: 0,
                buckets: 0,
                resize_active: 0,
            },
            hlog: hlog_snapshot(&self.hlog),
            rc_log: hlog_snapshot(&self.rc_log),
            read_cache: if with_read_cache {
                Some(ReadCacheSnapshot {
                    hits: self.read_cache.hits.get(),
                    misses: self.read_cache.misses.get(),
                    promotions: self.read_cache.promotions.get(),
                    inserts: self.read_cache.inserts.get(),
                })
            } else {
                None
            },
            sessions: SessionsSnapshot {
                totals,
                live_sessions: live_sessions as u64,
                io_inflight: totals.io_issued.saturating_sub(totals.io_completed),
                io_depth: self.sessions.io_depth.snapshot(),
                io_latency: self.sessions.io_latency.snapshot(),
                latency: if cfg!(feature = "timing") && self.config.latency {
                    Some(OpLatencies {
                        read: self.sessions.read_latency.snapshot(),
                        upsert: self.sessions.upsert_latency.snapshot(),
                        rmw: self.sessions.rmw_latency.snapshot(),
                        delete: self.sessions.delete_latency.snapshot(),
                    })
                } else {
                    None
                },
            },
            storage: StorageSnapshot::default(),
            wal: WalSnapshot {
                appends: self.wal.appends.get(),
                bytes: self.wal.bytes.get(),
                commits: self.wal.commits.get(),
                commit_failures: self.wal.commit_failures.get(),
                group_size: self.wal.group_size.snapshot(),
                commit_latency: self.wal.commit_latency.snapshot(),
            },
            health: HealthSnapshot::default(),
        }
    }
}

fn hlog_snapshot(m: &HlogMetrics) -> HlogSnapshot {
    HlogSnapshot {
        appends: m.appends.get(),
        alloc_retries: m.alloc_retries.get(),
        page_seals: m.page_seals.get(),
        flushes_issued: m.flushes_issued.get(),
        flushes_completed: m.flushes_completed.get(),
        flushes_failed: m.flushes_failed.get(),
        flush_retries: m.flush_retries.get(),
        pages_quarantined: m.pages_quarantined.get(),
        corrupt_reads: m.corrupt_reads.get(),
        frames_evicted: m.frames_evicted.get(),
        reads_issued: m.reads_issued.get(),
        reads_completed: m.reads_completed.get(),
        dead_bytes: m.dead_bytes.get(),
        bytes_truncated: m.bytes_truncated.get(),
        begin: 0,
        head: 0,
        safe_read_only: 0,
        read_only: 0,
        flushed_until: 0,
        tail: 0,
        active_pages: 0,
    }
}

#[derive(Clone, Debug, Default)]
pub struct EpochSnapshot {
    pub refreshes: u64,
    pub bumps: u64,
    pub drain_actions: u64,
    /// Gauge: current global epoch.
    pub current: u64,
    /// Gauge: safe-to-reclaim epoch.
    pub safe: u64,
}

impl EpochSnapshot {
    /// How far reclamation trails the current epoch.
    pub fn lag(&self) -> u64 {
        self.current.saturating_sub(self.safe)
    }
}

#[derive(Clone, Debug, Default)]
pub struct IndexSnapshot {
    pub probes: u64,
    pub probe_steps: u64,
    pub overflow_allocs: u64,
    pub tentative_restarts: u64,
    pub resize_chunk_claims: u64,
    pub resize_backoffs: u64,
    /// Gauge: table size exponent.
    pub k_bits: u64,
    /// Gauge: main bucket count.
    pub buckets: u64,
    /// Gauge: 1 while a chunked resize (grow or shrink) is in progress —
    /// the maintenance policy must not stack another grow on the inflated
    /// probe signal mid-migration (DESIGN.md §11).
    pub resize_active: u64,
}

impl IndexSnapshot {
    /// Mean entry slots inspected per probe.
    pub fn avg_probe_len(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probe_steps as f64 / self.probes as f64
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct HlogSnapshot {
    pub appends: u64,
    pub alloc_retries: u64,
    pub page_seals: u64,
    pub flushes_issued: u64,
    pub flushes_completed: u64,
    pub flushes_failed: u64,
    pub flush_retries: u64,
    pub pages_quarantined: u64,
    pub corrupt_reads: u64,
    pub frames_evicted: u64,
    pub reads_issued: u64,
    pub reads_completed: u64,
    /// Bytes superseded/tombstoned/abandoned on the log (monotone).
    pub dead_bytes: u64,
    /// Bytes reclaimed by begin-address truncation (monotone).
    pub bytes_truncated: u64,
    /// Gauges: region boundaries at snapshot time.
    pub begin: u64,
    pub head: u64,
    pub safe_read_only: u64,
    pub read_only: u64,
    pub flushed_until: u64,
    pub tail: u64,
    /// Gauge: in-memory page budget currently allowed (≤ configured
    /// `buffer_pages`; shrunk/grown by the maintenance service).
    pub active_pages: u64,
}

impl HlogSnapshot {
    /// Estimated dead bytes still occupying log space. Truncation reclaims
    /// both live and dead bytes, so subtracting `bytes_truncated` makes this
    /// an under-estimate right after a compaction — exactly the conservative
    /// direction a compaction trigger wants.
    pub fn dead_space(&self) -> u64 {
        self.dead_bytes.saturating_sub(self.bytes_truncated)
    }

    /// Addressable log span (begin → tail).
    pub fn log_size(&self) -> u64 {
        self.tail.saturating_sub(self.begin)
    }
}

#[derive(Clone, Debug, Default)]
pub struct ReadCacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub promotions: u64,
    pub inserts: u64,
}

impl ReadCacheSnapshot {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct OpLatencies {
    pub read: HistogramSnapshot,
    pub upsert: HistogramSnapshot,
    pub rmw: HistogramSnapshot,
    pub delete: HistogramSnapshot,
}

#[derive(Clone, Debug, Default)]
pub struct SessionsSnapshot {
    pub totals: SessionTotals,
    /// Gauge: sessions currently registered.
    pub live_sessions: u64,
    /// Gauge: disk reads in flight at snapshot time (issued − completed
    /// across all sessions, live and retired).
    pub io_inflight: u64,
    /// In-flight depth sampled at each ring submission (log2 buckets;
    /// values are counts, not nanoseconds). Not gated on `timing`.
    pub io_depth: HistogramSnapshot,
    /// Disk-read latency (SQE submission → CQE reap), nanoseconds. Not
    /// gated on `timing` — the clock read is noise next to the I/O itself.
    pub io_latency: HistogramSnapshot,
    /// Per-op latency histograms; `None` unless built with the timing
    /// feature and enabled in `MetricsConfig`.
    pub latency: Option<OpLatencies>,
}

impl SessionsSnapshot {
    /// Disk reads in flight at snapshot time (issued − completed).
    pub fn queue_depth(&self) -> u64 {
        self.totals.io_issued.saturating_sub(self.totals.io_completed)
    }
}

/// Write-ahead-log counters and group-commit distributions.
#[derive(Clone, Debug, Default)]
pub struct WalSnapshot {
    pub appends: u64,
    pub bytes: u64,
    pub commits: u64,
    pub commit_failures: u64,
    /// Records per acked group (counts, not nanoseconds).
    pub group_size: HistogramSnapshot,
    /// Append-to-durable latency per acked group, nanoseconds.
    pub commit_latency: HistogramSnapshot,
}

/// Store health (the degradation ladder), filled by `FasterKv::metrics()`
/// from the live health cell — the registry itself has no health state.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// 0 = healthy, 1 = degraded, 2 = read-only.
    pub state: u64,
    /// Token naming the reason for the current state (`none` when healthy;
    /// e.g. `flush_quarantine`, `device_full`, `wal_failed`, `corrupt_read`).
    pub reason: String,
}

impl Default for HealthSnapshot {
    fn default() -> Self {
        Self { state: 0, reason: "none".to_string() }
    }
}

/// Device byte/op totals, pulled from `DeviceStats` at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct StorageSnapshot {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub device_writes: u64,
    pub device_reads: u64,
}

/// The full typed snapshot returned by `FasterKv::metrics()`.
#[derive(Clone, Debug, Default)]
pub struct StoreMetrics {
    pub epoch: EpochSnapshot,
    pub index: IndexSnapshot,
    pub hlog: HlogSnapshot,
    pub rc_log: HlogSnapshot,
    pub read_cache: Option<ReadCacheSnapshot>,
    pub sessions: SessionsSnapshot,
    pub storage: StorageSnapshot,
    pub wal: WalSnapshot,
    pub health: HealthSnapshot,
}

impl StoreMetrics {
    /// Stable `section.key value` text export, one metric per line, sorted
    /// within each section in declaration order.
    pub fn to_text(&self) -> String {
        fn push_line(out: &mut String, k: &str, v: u64) {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        let mut out = String::with_capacity(2048);
        let t = &self.sessions.totals;
        push_line(&mut out, "sessions.live", self.sessions.live_sessions);
        push_line(&mut out, "sessions.reads", t.reads);
        push_line(&mut out, "sessions.rc_hits", t.rc_hits);
        push_line(&mut out, "sessions.mem_reads", t.mem_reads);
        push_line(&mut out, "sessions.reads_pending", t.reads_pending);
        push_line(&mut out, "sessions.upserts", t.upserts);
        push_line(&mut out, "sessions.rmws", t.rmws);
        push_line(&mut out, "sessions.deletes", t.deletes);
        push_line(&mut out, "sessions.batches", t.batches);
        push_line(&mut out, "sessions.writes", t.writes);
        push_line(&mut out, "sessions.in_place", t.in_place);
        push_line(&mut out, "sessions.rcu", t.rcu);
        push_line(&mut out, "sessions.appends", t.appends);
        push_line(&mut out, "sessions.deltas", t.deltas);
        push_line(&mut out, "sessions.fuzzy_pending", t.fuzzy_pending);
        push_line(&mut out, "sessions.io_issued", t.io_issued);
        push_line(&mut out, "sessions.io_completed", t.io_completed);
        push_line(&mut out, "sessions.io_retries", t.io_retries);
        push_line(&mut out, "sessions.io_failed", t.io_failed);
        push_line(&mut out, "sessions.queue_depth", self.sessions.queue_depth());
        push_line(&mut out, "sessions.io_inflight", self.sessions.io_inflight);
        for (name, h, unit) in [
            ("io_depth", &self.sessions.io_depth, ""),
            ("io_latency", &self.sessions.io_latency, "_ns"),
        ] {
            push_line(&mut out, &format!("sessions.{name}.count"), h.total);
            push_line(&mut out, &format!("sessions.{name}.p50{unit}"), h.p50());
            push_line(&mut out, &format!("sessions.{name}.p95{unit}"), h.p95());
            push_line(&mut out, &format!("sessions.{name}.p99{unit}"), h.p99());
            push_line(&mut out, &format!("sessions.{name}.max{unit}"), h.max);
            out.push_str(&format!("sessions.{name}.mean{unit} {:.1}\n", h.mean()));
        }
        push_line(&mut out, "epoch.refreshes", self.epoch.refreshes);
        push_line(&mut out, "epoch.bumps", self.epoch.bumps);
        push_line(&mut out, "epoch.drain_actions", self.epoch.drain_actions);
        push_line(&mut out, "epoch.current", self.epoch.current);
        push_line(&mut out, "epoch.safe", self.epoch.safe);
        push_line(&mut out, "epoch.lag", self.epoch.lag());
        push_line(&mut out, "index.probes", self.index.probes);
        push_line(&mut out, "index.probe_steps", self.index.probe_steps);
        push_line(&mut out, "index.overflow_allocs", self.index.overflow_allocs);
        push_line(&mut out, "index.tentative_restarts", self.index.tentative_restarts);
        push_line(&mut out, "index.resize_chunk_claims", self.index.resize_chunk_claims);
        push_line(&mut out, "index.resize_backoffs", self.index.resize_backoffs);
        push_line(&mut out, "index.k_bits", self.index.k_bits);
        push_line(&mut out, "index.buckets", self.index.buckets);
        push_line(&mut out, "index.resize_active", self.index.resize_active);
        for (prefix, h) in [("hlog", &self.hlog), ("rc_log", &self.rc_log)] {
            push_line(&mut out, &format!("{prefix}.appends"), h.appends);
            push_line(&mut out, &format!("{prefix}.alloc_retries"), h.alloc_retries);
            push_line(&mut out, &format!("{prefix}.page_seals"), h.page_seals);
            push_line(&mut out, &format!("{prefix}.flushes_issued"), h.flushes_issued);
            push_line(&mut out, &format!("{prefix}.flushes_completed"), h.flushes_completed);
            push_line(&mut out, &format!("{prefix}.flushes_failed"), h.flushes_failed);
            push_line(&mut out, &format!("{prefix}.flush_retries"), h.flush_retries);
            push_line(&mut out, &format!("{prefix}.pages_quarantined"), h.pages_quarantined);
            push_line(&mut out, &format!("{prefix}.corrupt_reads"), h.corrupt_reads);
            push_line(&mut out, &format!("{prefix}.frames_evicted"), h.frames_evicted);
            push_line(&mut out, &format!("{prefix}.reads_issued"), h.reads_issued);
            push_line(&mut out, &format!("{prefix}.reads_completed"), h.reads_completed);
            push_line(&mut out, &format!("{prefix}.dead_bytes"), h.dead_bytes);
            push_line(&mut out, &format!("{prefix}.bytes_truncated"), h.bytes_truncated);
            push_line(&mut out, &format!("{prefix}.dead_space"), h.dead_space());
            push_line(&mut out, &format!("{prefix}.begin"), h.begin);
            push_line(&mut out, &format!("{prefix}.head"), h.head);
            push_line(&mut out, &format!("{prefix}.read_only"), h.read_only);
            push_line(&mut out, &format!("{prefix}.tail"), h.tail);
            push_line(&mut out, &format!("{prefix}.active_pages"), h.active_pages);
        }
        if let Some(rc) = &self.read_cache {
            push_line(&mut out, "read_cache.hits", rc.hits);
            push_line(&mut out, "read_cache.misses", rc.misses);
            push_line(&mut out, "read_cache.promotions", rc.promotions);
            push_line(&mut out, "read_cache.inserts", rc.inserts);
            out.push_str(&format!("read_cache.hit_rate {:.4}\n", rc.hit_rate()));
        }
        push_line(&mut out, "health.state", self.health.state);
        out.push_str(&format!("health.reason {}\n", self.health.reason));
        push_line(&mut out, "storage.bytes_written", self.storage.bytes_written);
        push_line(&mut out, "storage.bytes_read", self.storage.bytes_read);
        push_line(&mut out, "storage.device_writes", self.storage.device_writes);
        push_line(&mut out, "storage.device_reads", self.storage.device_reads);
        push_line(&mut out, "wal.appends", self.wal.appends);
        push_line(&mut out, "wal.bytes", self.wal.bytes);
        push_line(&mut out, "wal.commits", self.wal.commits);
        push_line(&mut out, "wal.commit_failures", self.wal.commit_failures);
        for (name, h, unit) in [
            ("group_size", &self.wal.group_size, ""),
            ("commit_latency", &self.wal.commit_latency, "_ns"),
        ] {
            push_line(&mut out, &format!("wal.{name}.count"), h.total);
            push_line(&mut out, &format!("wal.{name}.p50{unit}"), h.p50());
            push_line(&mut out, &format!("wal.{name}.p95{unit}"), h.p95());
            push_line(&mut out, &format!("wal.{name}.p99{unit}"), h.p99());
            push_line(&mut out, &format!("wal.{name}.max{unit}"), h.max);
            out.push_str(&format!("wal.{name}.mean{unit} {:.1}\n", h.mean()));
        }
        if let Some(lat) = &self.sessions.latency {
            for (name, h) in [
                ("read", &lat.read),
                ("upsert", &lat.upsert),
                ("rmw", &lat.rmw),
                ("delete", &lat.delete),
            ] {
                push_line(&mut out, &format!("latency.{name}.count"), h.total);
                push_line(&mut out, &format!("latency.{name}.p50_ns"), h.p50());
                push_line(&mut out, &format!("latency.{name}.p95_ns"), h.p95());
                push_line(&mut out, &format!("latency.{name}.p99_ns"), h.p99());
                push_line(&mut out, &format!("latency.{name}.max_ns"), h.max);
                out.push_str(&format!("latency.{name}.mean_ns {:.1}\n", h.mean()));
            }
        }
        out
    }

    /// JSON export (hand-rolled; the workspace has no serde). Object keys
    /// mirror `to_text` sections.
    pub fn to_json(&self) -> String {
        fn obj(pairs: &[(&str, String)]) -> String {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{{}}}", body.join(","))
        }
        fn hist_unit(h: &HistogramSnapshot, unit: &str) -> String {
            obj(&[
                ("count", h.total.to_string()),
                (&format!("p50{unit}"), h.p50().to_string()),
                (&format!("p95{unit}"), h.p95().to_string()),
                (&format!("p99{unit}"), h.p99().to_string()),
                (&format!("max{unit}"), h.max.to_string()),
                (&format!("mean{unit}"), format!("{:.1}", h.mean())),
            ])
        }
        fn hist(h: &HistogramSnapshot) -> String {
            hist_unit(h, "_ns")
        }
        fn hlog(h: &HlogSnapshot) -> String {
            obj(&[
                ("appends", h.appends.to_string()),
                ("alloc_retries", h.alloc_retries.to_string()),
                ("page_seals", h.page_seals.to_string()),
                ("flushes_issued", h.flushes_issued.to_string()),
                ("flushes_completed", h.flushes_completed.to_string()),
                ("flushes_failed", h.flushes_failed.to_string()),
                ("flush_retries", h.flush_retries.to_string()),
                ("pages_quarantined", h.pages_quarantined.to_string()),
                ("corrupt_reads", h.corrupt_reads.to_string()),
                ("frames_evicted", h.frames_evicted.to_string()),
                ("reads_issued", h.reads_issued.to_string()),
                ("reads_completed", h.reads_completed.to_string()),
                ("dead_bytes", h.dead_bytes.to_string()),
                ("bytes_truncated", h.bytes_truncated.to_string()),
                ("dead_space", h.dead_space().to_string()),
                ("begin", h.begin.to_string()),
                ("head", h.head.to_string()),
                ("read_only", h.read_only.to_string()),
                ("tail", h.tail.to_string()),
                ("active_pages", h.active_pages.to_string()),
            ])
        }
        let t = &self.sessions.totals;
        let mut sections: Vec<(&str, String)> = vec![
            (
                "sessions",
                obj(&[
                    ("live", self.sessions.live_sessions.to_string()),
                    ("reads", t.reads.to_string()),
                    ("rc_hits", t.rc_hits.to_string()),
                    ("mem_reads", t.mem_reads.to_string()),
                    ("reads_pending", t.reads_pending.to_string()),
                    ("upserts", t.upserts.to_string()),
                    ("rmws", t.rmws.to_string()),
                    ("deletes", t.deletes.to_string()),
                    ("batches", t.batches.to_string()),
                    ("writes", t.writes.to_string()),
                    ("in_place", t.in_place.to_string()),
                    ("rcu", t.rcu.to_string()),
                    ("appends", t.appends.to_string()),
                    ("deltas", t.deltas.to_string()),
                    ("fuzzy_pending", t.fuzzy_pending.to_string()),
                    ("io_issued", t.io_issued.to_string()),
                    ("io_completed", t.io_completed.to_string()),
                    ("io_retries", t.io_retries.to_string()),
                    ("io_failed", t.io_failed.to_string()),
                    ("queue_depth", self.sessions.queue_depth().to_string()),
                    ("io_inflight", self.sessions.io_inflight.to_string()),
                    ("io_depth", hist_unit(&self.sessions.io_depth, "")),
                    ("io_latency", hist_unit(&self.sessions.io_latency, "_ns")),
                ]),
            ),
            (
                "epoch",
                obj(&[
                    ("refreshes", self.epoch.refreshes.to_string()),
                    ("bumps", self.epoch.bumps.to_string()),
                    ("drain_actions", self.epoch.drain_actions.to_string()),
                    ("current", self.epoch.current.to_string()),
                    ("safe", self.epoch.safe.to_string()),
                    ("lag", self.epoch.lag().to_string()),
                ]),
            ),
            (
                "index",
                obj(&[
                    ("probes", self.index.probes.to_string()),
                    ("probe_steps", self.index.probe_steps.to_string()),
                    ("avg_probe_len", format!("{:.3}", self.index.avg_probe_len())),
                    ("overflow_allocs", self.index.overflow_allocs.to_string()),
                    ("tentative_restarts", self.index.tentative_restarts.to_string()),
                    ("resize_chunk_claims", self.index.resize_chunk_claims.to_string()),
                    ("resize_backoffs", self.index.resize_backoffs.to_string()),
                    ("k_bits", self.index.k_bits.to_string()),
                    ("buckets", self.index.buckets.to_string()),
                    ("resize_active", self.index.resize_active.to_string()),
                ]),
            ),
            ("hlog", hlog(&self.hlog)),
            ("rc_log", hlog(&self.rc_log)),
            (
                "health",
                obj(&[
                    ("state", self.health.state.to_string()),
                    ("reason", format!("\"{}\"", self.health.reason)),
                ]),
            ),
            (
                "storage",
                obj(&[
                    ("bytes_written", self.storage.bytes_written.to_string()),
                    ("bytes_read", self.storage.bytes_read.to_string()),
                    ("device_writes", self.storage.device_writes.to_string()),
                    ("device_reads", self.storage.device_reads.to_string()),
                ]),
            ),
            (
                "wal",
                obj(&[
                    ("appends", self.wal.appends.to_string()),
                    ("bytes", self.wal.bytes.to_string()),
                    ("commits", self.wal.commits.to_string()),
                    ("commit_failures", self.wal.commit_failures.to_string()),
                    ("group_size", hist_unit(&self.wal.group_size, "")),
                    ("commit_latency", hist_unit(&self.wal.commit_latency, "_ns")),
                ]),
            ),
        ];
        if let Some(rc) = &self.read_cache {
            sections.push((
                "read_cache",
                obj(&[
                    ("hits", rc.hits.to_string()),
                    ("misses", rc.misses.to_string()),
                    ("promotions", rc.promotions.to_string()),
                    ("inserts", rc.inserts.to_string()),
                    ("hit_rate", format!("{:.4}", rc.hit_rate())),
                ]),
            ));
        }
        if let Some(lat) = &self.sessions.latency {
            sections.push((
                "latency",
                obj(&[
                    ("read", hist(&lat.read)),
                    ("upsert", hist(&lat.upsert)),
                    ("rmw", hist(&lat.rmw)),
                    ("delete", hist(&lat.delete)),
                ]),
            ));
        }
        obj(&sections
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_exports_are_stable() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        reg.index.probes.add(3);
        reg.index.probe_steps.add(7);
        let mut snap = reg.snapshot_counters(true);
        snap.index.k_bits = 13;
        let text = snap.to_text();
        #[cfg(not(feature = "off"))]
        {
            assert!(text.contains("index.probes 3\n"), "{text}");
            assert!(text.contains("index.probe_steps 7\n"));
        }
        assert!(text.contains("index.k_bits 13\n"));
        assert!(text.contains("health.state 0\n"));
        assert!(text.contains("health.reason none\n"));
        let json = snap.to_json();
        assert!(json.contains("\"health\":{\"state\":0,\"reason\":\"none\"}"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"k_bits\":13"));
        assert!(json.contains("\"read_cache\""));

        let no_rc = reg.snapshot_counters(false);
        assert!(!no_rc.to_json().contains("read_cache"));
    }
}
