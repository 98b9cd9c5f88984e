//! Store-side actuators for the background maintenance service
//! (DESIGN.md §11).
//!
//! `faster-maintenance` owns the pure [`Policy`] engine and the service
//! thread; this module supplies the [`Actuators`] implementation that maps
//! its decisions onto the store's existing maintenance APIs:
//!
//! | [`Action`]            | store call                                       |
//! |-----------------------|--------------------------------------------------|
//! | `GrowIndex`           | [`FasterKv::grow_index`] (sessionless)           |
//! | `ShrinkIndex`         | [`FasterKv::shrink_index`] (sessionless)         |
//! | `Compact { until }`   | [`FasterKv::compact_until_clamped`] under a transient session: rolls up to `until`, truncates no higher than the checkpoint manager's safe truncation bound |
//! | `ResizeReadCache`     | `set_active_pages` on the cache's HybridLog      |
//! | `Checkpoint`          | [`CheckpointManager::checkpoint_store`]          |
//!
//! [`FasterKv::start_maintenance`] spawns the service with the [`Policy`]
//! its caller hands it; the store's config holds no policy thresholds.
//!
//! ## Epoch interaction
//!
//! The service thread must hold **no idle session** across a tick:
//! `checkpoint_store`'s durability wait is epoch-gated, and an idle guard on
//! this thread would stall the very trigger it waits for. Every actuator
//! therefore acquires whatever session it needs *inside* the call and drops
//! it before returning — `compact` uses a transient session (released before
//! a `Checkpoint` action in the same tick runs), the resizes and the
//! checkpoint run sessionless and let the store APIs take their own guards.

use crate::{CheckpointManager, FasterKv, Functions};
use faster_maintenance::{Actuators, MaintenanceService};
use faster_metrics::StoreMetrics;
use faster_util::{Address, Pod};
use std::sync::Arc;

/// [`Actuators`] over a store (and optionally its checkpoint manager).
pub struct KvActuators<K: Pod + Eq, V: Pod, F: Functions<K, V>> {
    store: FasterKv<K, V, F>,
    mgr: Option<Arc<CheckpointManager>>,
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> KvActuators<K, V, F> {
    pub fn new(store: FasterKv<K, V, F>, mgr: Option<Arc<CheckpointManager>>) -> Self {
        Self { store, mgr }
    }

    pub fn store(&self) -> &FasterKv<K, V, F> {
        &self.store
    }
}

impl<K, V, F> Actuators for KvActuators<K, V, F>
where
    K: Pod + Eq + Send + Sync,
    V: Pod + Send + Sync,
    F: Functions<K, V> + Send + Sync,
{
    fn snapshot(&self) -> StoreMetrics {
        self.store.metrics()
    }

    fn grow_index(&self) -> bool {
        self.store.grow_index(None)
    }

    fn shrink_index(&self) -> bool {
        self.store.shrink_index(None)
    }

    fn compact(&self, until: u64) -> u64 {
        // A read-only store must not compact: compaction rewrites live
        // records to the tail and truncates the prefix, but tail pages can
        // no longer be made durable — truncation would destroy the only
        // intact copy (DESIGN.md §12).
        if self.store.inner.health.is_read_only() {
            return 0;
        }
        let until = Address::new(until);
        if until <= self.store.log().begin_address() {
            return 0;
        }
        // Rolling live records to the tail is always safe; truncation is
        // what can destroy a retained checkpoint generation's fallback
        // replayability, so only it takes the PR 4 GC clamp (never above
        // the oldest retained generation's begin).
        let truncate_to = match self.mgr.as_ref().and_then(|m| m.safe_truncation_bound()) {
            Some(bound) => until.min(bound),
            None => until,
        };
        let session = self.store.start_session();
        self.store.compact_until_clamped(until, truncate_to, &session)
    }

    fn resize_read_cache(&self, pages: u64) -> u64 {
        match self.store.read_cache_log() {
            Some(rc) => rc.set_active_pages(pages),
            None => 0,
        }
    }

    fn checkpoint(&self) -> bool {
        // No checkpoint on a read-only store: its log flushes cannot be
        // made durable, so `checkpoint_store` would only churn and fail
        // (and must not overwrite manifest state racing with an operator's
        // recovery). The last committed generation stays authoritative.
        if self.store.inner.health.is_read_only() {
            return false;
        }
        match &self.mgr {
            Some(mgr) => mgr.checkpoint_store(&self.store).is_ok(),
            None => false,
        }
    }
}

impl<K, V, F> FasterKv<K, V, F>
where
    K: Pod + Eq + Send + Sync + 'static,
    V: Pod + Send + Sync + 'static,
    F: Functions<K, V> + Send + Sync + 'static,
{
    /// The actuator set the maintenance service drives on this store.
    /// Exposed so deterministic tests can apply policy decisions tick by
    /// tick (via `faster_maintenance::run_tick`) without a service thread.
    pub fn maintenance_actuators(
        &self,
        mgr: Option<Arc<CheckpointManager>>,
    ) -> Arc<KvActuators<K, V, F>> {
        Arc::new(KvActuators::new(self.clone(), mgr))
    }

    /// Spawns the background maintenance service over this store, driven
    /// by `policy` (fresh, or pre-warmed from earlier observations). Pass
    /// the store's [`CheckpointManager`] to enable the checkpoint-cadence
    /// actuator; without one, `Checkpoint` decisions report failure and
    /// everything else still runs.
    ///
    /// The returned handle owns the thread: drop it (or call
    /// [`MaintenanceService::stop`]) to stop the service and release its
    /// store reference. Liveness caveat: the checkpoint actuator waits on
    /// epoch-gated durability, so foreground sessions must keep refreshing
    /// (or be dropped) while the service runs — the same contract as calling
    /// [`FasterKv::checkpoint`] from any other thread.
    pub fn start_maintenance(
        &self,
        mgr: Option<Arc<CheckpointManager>>,
        policy: Policy,
    ) -> MaintenanceService {
        MaintenanceService::start(self.maintenance_actuators(mgr), policy)
    }
}

// Re-exported so callers need only `faster-core` to drive the service.
pub use faster_maintenance::{
    run_tick, Action, MaintenanceStats, Policy, PolicyConfig,
};
