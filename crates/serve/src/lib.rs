//! # sarn-serve
//!
//! Fault-tolerant, concurrency-safe serving of SARN road-segment
//! embeddings. Training (with its watchdog and crash-safe checkpoints)
//! produces `SarnTrained` artifacts; this crate is the read path that
//! keeps answering queries while those artifacts are retrained, rewritten,
//! and occasionally corrupted underneath it.
//!
//! The core is the [`EmbeddingStore`]:
//!
//! - **Generations behind an atomic swap.** Each admitted embedding matrix
//!   becomes an immutable [`Generation`] published behind an `Arc` swap.
//!   Readers clone the `Arc` and compute against an immutable snapshot;
//!   the write lock is held only for the pointer assignment — never for
//!   I/O or validation — so a reload can neither block nor tear a query.
//! - **Hot reload with last-known-good fallback.** [`EmbeddingStore::reload`]
//!   re-reads an artifact through `sarn_tensor::io`'s validated entry
//!   point with bounded retry and exponential backoff. *Any* failure —
//!   truncated file, garbage, shape mismatch, non-finite rows, injected
//!   slow/failing I/O via [`LoadFault`] — leaves the previous generation
//!   serving and surfaces as a typed [`ServeError`] plus a degraded
//!   [`HealthReport`], never a panic.
//! - **One cosine k-NN path.** Embedding lookup and k-NN each honor a
//!   per-request [`Deadline`]. k-NN searches the generation's HNSW index
//!   once it is ready (generations of at least
//!   [`ServeConfig::ann_threshold`] rows) and otherwise — or when the
//!   search fails — runs the exact scan, deadline-checked at bounded
//!   intervals.
//! - **Bounded admission and load shedding.** A fixed in-flight budget
//!   sheds excess requests with a typed [`ServeError::Overloaded`].
//! - **Staleness SLO.** With [`ServeConfig::max_staleness`] set, a
//!   generation that outlives its budget turns the health report
//!   [`ServeState::Stale`] — queries keep being served, but the breach is
//!   journaled and counted (`sarn_serve_stale_total`) once per generation
//!   so the online pipeline (or an operator) reacts. A fresh admission
//!   clears the state.
//!
//! On top of the single store sits **fault-isolated sharded serving**
//! (DESIGN.md §15): a [`ShardedStore`] geo-partitions the network's
//! segments into contiguous grid-cell bands, each band a full
//! [`EmbeddingStore`] with its own generation swap — one shard can
//! hot-swap or fail without touching its siblings — and a [`Router`]
//! fronts the fan-out with per-shard [`CircuitBreaker`]s
//! (closed → open → half-open with a single probed recovery slot),
//! [`Deadline::split`] budget slices, bounded doubling-backoff retries
//! (every shard attempt runs inline on the calling thread), and typed
//! [`Coverage`] reports: a failed shard drops its rows from the answer
//! (answered / quarantined / failed per shard) instead of failing it,
//! until fewer than `min_shards` contribute
//! ([`ServeError::PartialCoverage`]). With every shard healthy and below
//! the ANN threshold the merged answer is bitwise identical to the
//! single combined store's; with HNSW shards its contract is recall@10
//! against the exact scan.
//!
//! The serving state machine (DESIGN.md §10):
//!
//! ```text
//! loading --first good admit--> serving(gen N)
//! serving --reload failure----> degraded(gen N)   [stale answers continue]
//! serving --age > staleness---> stale(gen N)      [stale answers continue]
//! stale   --good admit--------> serving(gen N+1)  [atomic flip]
//! degraded --good reload------> serving(gen N+1)  [atomic flip]
//! any state --inflight >= max-> shedding          [typed Overloaded]
//! ```

#![warn(missing_docs)]

mod breaker;
mod config;
mod deadline;
mod error;
mod router;
mod shard;
mod store;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use config::{LoadFault, RouterConfig, ServeConfig};
pub use deadline::Deadline;
pub use error::ServeError;
pub use router::{Coverage, RoutedKnn, Router, ShardCoverage, ShardFault, ShardOutcome};
pub use shard::{Shard, ShardedStore};
pub use store::{
    EmbeddingStore, Generation, HealthReport, IndexState, Knn, ServeState, ShardHealth, Ticket,
};
