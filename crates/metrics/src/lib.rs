//! faster-metrics — lock-free observability for the FASTER store.
//!
//! Design goals (DESIGN.md §8):
//!
//! * **Zero dependencies.** Sits at the bottom of the workspace graph so
//!   every crate (epoch, index, hlog, core) can hold `Arc`s to its groups.
//! * **Lock-free hot path.** Counters are per-thread-sharded relaxed
//!   atomics ([`Counter`]) or single-writer cells ([`Cell64`]); recording
//!   never takes a lock and never contends across threads.
//! * **Pay only for what you measure.** Latency timers read the clock only
//!   when the `timing` feature is compiled in (exposed as `metrics-timing`
//!   on downstream crates); the default build is counter-only. The `off`
//!   feature no-ops even the counters, existing solely so the bench
//!   harness can measure the counters' own overhead.
//!
//! Snapshots ([`StoreMetrics`]) are plain data with stable text and JSON
//! exports; they are monotone but not linearizable cuts — at quiescence
//! (all sessions drained) they are exact, which is what the
//! counter-identity test asserts.

#![deny(clippy::undocumented_unsafe_blocks)]

mod counter;
mod groups;
mod histogram;
mod registry;

pub use counter::{Cell64, Counter, COUNTER_SHARDS};
pub use groups::{
    EpochMetrics, HlogMetrics, IndexMetrics, ReadCacheMetrics, SessionHub, SessionRecorder,
    SessionTotals, WalMetrics,
};
pub use histogram::{HistogramSnapshot, LatencyHistogram, Timer, HISTOGRAM_BUCKETS};
pub use registry::{
    EpochSnapshot, HlogSnapshot, IndexSnapshot, MetricsRegistry, OpLatencies, ReadCacheSnapshot,
    SessionsSnapshot, StorageSnapshot, StoreMetrics, WalSnapshot,
};
