//! # sarn-core
//!
//! Rust implementation of **SARN** — *Spatial Structure-Aware Road Network
//! Embedding via Graph Contrastive Learning* (Chang, Tanin, Cao, Qi;
//! EDBT 2023). SARN learns generic, task-agnostic road-segment embeddings
//! with self-supervised graph contrastive learning, augmented with four
//! spatial components:
//!
//! 1. [`SpatialSimilarity`] — the spatial similarity matrix `A^s` (Eq. 3–5);
//! 2. [`Augmenter`] — spatial importance-based graph augmentation (Eq. 6–7);
//! 3. [`CellQueues`] — spatial distance-based negative sampling (Eq. 13–14);
//! 4. the two-level contrastive loss (Eq. 15–17), applied by [`train`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use sarn_core::{train, SarnConfig};
//! use sarn_roadnet::{City, SynthConfig};
//!
//! let net = SynthConfig::city(City::Chengdu).generate();
//! let trained = train(&net, &SarnConfig::small());
//! let h = &trained.embeddings; // n x d road-segment embeddings
//! assert_eq!(h.rows(), net.num_segments());
//! ```

#![warn(missing_docs)]

mod augment;
pub mod checkpoint;
mod config;
mod features;
mod model;
mod queues;
mod similarity;
mod train;
pub mod watchdog;

pub use augment::{weighted_sample_without_replacement, AugmentConfig, Augmenter, GraphView};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointMeta, OptimState, QueueState};
pub use config::{LossSimilarity, Readout, SarnConfig, SarnVariant};
pub use features::{DiscretizedFeatures, FeatureEmbedding, NUM_FEATURES};
pub use model::{Backbone, BackboneDims, SarnModel};
pub use queues::CellQueues;
pub use sarn_par::ReductionOrder;
pub use similarity::{
    join_cell_side_m, pairwise_similarity, SpatialIndex, SpatialJoin, SpatialSimilarity,
    SpatialSimilarityConfig,
};
pub use train::{train, try_train, warm_start_apply, zero_grads_except, SarnTrained};
pub use watchdog::{
    embedding_defect, DivergenceReport, EmbeddingDefect, FaultKind, FaultSpec, HealthViolation,
    RecoveryEvent, TrainError, Watchdog, WatchdogConfig,
};

/// Serializes this crate's unit tests that run tensor math. The reduction
/// order and the thread count are process globals: `try_train` sets them
/// from its config, and the step-oracle test switches them, so no two such
/// tests may interleave.
#[cfg(test)]
pub(crate) fn test_knobs() -> std::sync::MutexGuard<'static, ()> {
    static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    KNOBS.lock().unwrap_or_else(|e| e.into_inner())
}
