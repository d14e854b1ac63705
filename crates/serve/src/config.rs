//! Serving knobs and the injectable load fault.

use std::time::Duration;

use crate::breaker::BreakerConfig;

/// Knobs of an [`crate::EmbeddingStore`]; callers set fields directly,
/// starting from [`ServeConfig::default`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Hard in-flight request ceiling: admission beyond this sheds the
    /// request with [`crate::ServeError::Overloaded`].
    pub max_inflight: usize,
    /// Default per-request time budget (`None` = unbounded); individual
    /// requests may override it with their own [`crate::Deadline`].
    pub default_deadline: Option<Duration>,
    /// Reload retries after the first failed attempt (total attempts are
    /// `reload_retries + 1`).
    pub reload_retries: usize,
    /// Sleep before the first reload retry; doubles per subsequent retry.
    pub reload_backoff: Duration,
    /// Cell side in meters of the grid whose row-major cell bands
    /// partition a [`crate::ShardedStore`]'s segments into shards.
    pub grid_clen_m: f64,
    /// Staleness SLO: when the live generation's age exceeds this, the
    /// store's health degrades to [`crate::ServeState::Stale`] (queries
    /// keep being served — stale answers beat no answers — but the breach
    /// is journaled and counted so an operator, or the online pipeline,
    /// reacts). `None` disables the check.
    pub max_staleness: Option<Duration>,
    /// Row count at or above which an admitted generation gets an HNSW
    /// index built in the background (`usize::MAX` disables ANN entirely
    /// — serving is then bitwise-identical to a store without the
    /// subsystem).
    pub ann_threshold: usize,
    /// HNSW `M`: neighbors kept per node per layer (>= 2).
    pub ann_m: usize,
    /// HNSW `ef_construction`: beam width while building the index.
    pub ann_ef_construction: usize,
    /// HNSW `ef_search`: beam width while querying (floored at `k + 1`
    /// per query, so small values stay safe).
    pub ann_ef_search: usize,
    /// Seed of the deterministic level assignment — same seed and rows
    /// produce a bitwise-identical index.
    pub ann_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            default_deadline: None,
            reload_retries: 3,
            reload_backoff: Duration::from_millis(10),
            grid_clen_m: 500.0,
            max_staleness: None,
            ann_threshold: 4096,
            ann_m: 16,
            ann_ef_construction: 100,
            ann_ef_search: 64,
            ann_seed: 42,
        }
    }
}

/// Knobs of the shard [`crate::Router`] fronting a
/// [`crate::ShardedStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterConfig {
    /// Shards requested of the geo-partitioner. The actual shard count
    /// may be lower (empty cell bands are compacted away).
    pub num_shards: usize,
    /// Minimum shards that must contribute to a fan-out answer; fewer
    /// fails the request with [`crate::ServeError::PartialCoverage`].
    pub min_shards: usize,
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Retries per shard after the first failed attempt. A deadline
    /// failure (the budget is gone) and an unknown segment (no retry can
    /// succeed) are terminal; every other typed failure is retried after
    /// the backoff, a shard's shed [`crate::ServeError::Overloaded`]
    /// included.
    pub shard_retries: usize,
    /// Sleep before the first per-shard retry; doubles per retry.
    pub shard_backoff: Duration,
    /// In-flight ceiling across the whole router (checked once per
    /// fan-out, on top of the per-shard store ceilings).
    pub router_max_inflight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            min_shards: 1,
            breaker: BreakerConfig::default(),
            shard_retries: 1,
            shard_backoff: Duration::from_millis(2),
            router_max_inflight: 256,
        }
    }
}

/// Injected reload damage, in the mold of the training watchdog's
/// `FaultSpec`: deterministic, test-only sabotage of the load path so the
/// stale-fallback contract can be exercised without relying on real disk
/// failures. Set on a store with [`crate::EmbeddingStore::inject_fault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadFault {
    /// The next this many load attempts fail with an injected I/O error
    /// (each attempt decrements the counter, so bounded retry eventually
    /// outlasts a transient fault).
    pub fail_loads: u32,
    /// Sleep applied to every load attempt while the fault is installed —
    /// simulated slow I/O for deadline and churn tests.
    pub delay_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let d = ServeConfig::default();
        assert!(d.max_inflight >= 1);
        assert!(d.default_deadline.is_none());
        assert!(d.reload_backoff > Duration::ZERO);
        assert!(d.grid_clen_m > 0.0);
        assert!(d.ann_m >= 2);
        assert!(d.ann_ef_construction >= d.ann_m);
        assert!(d.ann_ef_search >= 1);
        assert!(d.ann_threshold >= 1);
        let r = RouterConfig::default();
        assert!(r.min_shards <= r.num_shards);
        assert!(r.breaker.failure_threshold >= 1);
    }
}
