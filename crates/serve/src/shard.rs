//! Geo-partitioned shard layout: N independent [`EmbeddingStore`]s, each
//! owning a contiguous band of grid cells.
//!
//! A [`ShardedStore`] splits the served network's segments by the
//! row-major cell band of their midpoint ([`Grid::shard_of`]) into
//! per-shard stores. Each shard is a full [`EmbeddingStore`] with its own
//! `Arc<Generation>` publishing, admission ceiling, reload retry, and
//! staleness tracking — so one shard can hot-swap, fail, or be
//! quarantined without touching its siblings' generations. The
//! [`crate::Router`] fronts this layout with breakers, retries, and
//! coverage accounting.
//!
//! Shard rows hold the same bytes as the combined matrix rows
//! ([`ShardedStore::admit`] slices with `Tensor::gather_rows`) and are
//! scored by the same kernel in the same operand order — the basis of
//! the router's bitwise-identity guarantee in the exact-scan regime.

use std::path::Path;
use std::sync::Arc;

use sarn_geo::{Grid, Point};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::{Tensor, TensorExpectation};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::store::EmbeddingStore;

/// One shard: its store plus the global ids of the rows it owns.
#[derive(Clone)]
pub struct Shard {
    /// The shard's own generation-swapping store (local row indexing).
    pub store: Arc<EmbeddingStore>,
    /// Global segment id of each local row, ascending.
    pub globals: Arc<Vec<usize>>,
}

/// A geo-partitioned set of embedding stores.
pub struct ShardedStore {
    cfg: ServeConfig,
    dim: usize,
    /// Shard index of each global segment.
    shard_of_segment: Vec<usize>,
    /// Local row within its shard of each global segment.
    local_of_segment: Vec<usize>,
    shards: Vec<Shard>,
}

impl ShardedStore {
    /// Partitions `midpoints` (index = global segment id) into at most
    /// `num_shards` geo-shards: row-major bands of the
    /// [`ServeConfig::grid_clen_m`] grid over the midpoints' bounding
    /// box. Cell bands that own no segments are compacted away, so
    /// [`ShardedStore::num_shards`] may come back smaller than requested;
    /// every surviving shard is non-empty.
    pub fn new(
        midpoints: Vec<Point>,
        dim: usize,
        cfg: ServeConfig,
        num_shards: usize,
    ) -> Result<Self, ServeError> {
        let mut it = midpoints.iter().copied();
        let first = it
            .next()
            .ok_or(ServeError::Load(sarn_tensor::IoError::LayoutMismatch(
                "a sharded store needs at least one segment".into(),
            )))?;
        let bbox = sarn_geo::BoundingBox::of(std::iter::once(first).chain(it));
        let grid = Grid::try_new(bbox, cfg.grid_clen_m)?;
        let mut raw_shard = Vec::with_capacity(midpoints.len());
        for p in &midpoints {
            raw_shard.push(grid.shard_of(grid.try_cell_of(p)?, num_shards));
        }
        // Compact raw band indices to dense shard ids over non-empty bands.
        let mut band_to_shard = vec![usize::MAX; num_shards.max(1)];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (seg, &band) in raw_shard.iter().enumerate() {
            if band_to_shard[band] == usize::MAX {
                band_to_shard[band] = members.len();
                members.push(Vec::new());
            }
            members[band_to_shard[band]].push(seg);
        }
        // Bands are monotone in segment-cell order but segments arrive in
        // id order, so sort shards by their first global id for a stable,
        // documented layout (ascending global ids within and across).
        members.sort_by_key(|m| m[0]);
        let mut shard_of_segment = vec![0usize; midpoints.len()];
        let mut local_of_segment = vec![0usize; midpoints.len()];
        let mut shards = Vec::with_capacity(members.len());
        for (si, globals) in members.into_iter().enumerate() {
            for (local, &g) in globals.iter().enumerate() {
                shard_of_segment[g] = si;
                local_of_segment[g] = local;
            }
            shards.push(Shard {
                store: Arc::new(EmbeddingStore::new(globals.len(), dim, cfg)?),
                globals: Arc::new(globals),
            });
        }
        Ok(Self {
            cfg,
            dim,
            shard_of_segment,
            local_of_segment,
            shards,
        })
    }

    /// [`ShardedStore::new`] over a road network's segment midpoints.
    pub fn for_network(
        net: &RoadNetwork,
        dim: usize,
        cfg: ServeConfig,
        num_shards: usize,
    ) -> Result<Self, ServeError> {
        let midpoints = net.segments().iter().map(|s| s.midpoint()).collect();
        Self::new(midpoints, dim, cfg, num_shards)
    }

    /// Number of (non-empty, compacted) shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total segments across all shards.
    pub fn num_segments(&self) -> usize {
        self.shard_of_segment.len()
    }

    /// Embedding dimension served.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The knobs every shard store was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// One shard (store + global-id map). Panics on an out-of-range
    /// index, like slice indexing.
    pub fn shard(&self, idx: usize) -> &Shard {
        &self.shards[idx]
    }

    /// All shards, in shard-id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The global ids a shard owns, ascending (its artifact row order).
    pub fn shard_rows(&self, idx: usize) -> &[usize] {
        &self.shards[idx].globals
    }

    /// `(shard, local row)` of a global segment id.
    pub fn locate(&self, segment: usize) -> Result<(usize, usize), ServeError> {
        if segment >= self.num_segments() {
            return Err(ServeError::UnknownSegment {
                segment,
                num_segments: self.num_segments(),
            });
        }
        Ok((
            self.shard_of_segment[segment],
            self.local_of_segment[segment],
        ))
    }

    // ---- admission / reload ---------------------------------------------

    /// Validates a full `num_segments x dim` matrix and admits each
    /// shard's row block into its store — every shard swaps to its slice
    /// of the new matrix (each swap is atomic per shard; shards flip one
    /// by one, which is exactly the independence the router is built to
    /// tolerate). Returns the per-shard generation numbers.
    pub fn admit(&self, embeddings: &Tensor) -> Result<Vec<u64>, ServeError> {
        let shape = TensorExpectation {
            rows: Some(self.num_segments()),
            cols: Some(self.dim),
            finite: false, // finiteness runs through each store's row screen
        };
        shape.validate(embeddings)?;
        let mut generations = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            generations.push(shard.store.admit(embeddings.gather_rows(&shard.globals))?);
        }
        Ok(generations)
    }

    /// Like [`ShardedStore::admit`], but only swaps shards whose row
    /// block actually differs (bitwise) from what they currently serve —
    /// the incremental-edit fast path: a localized update touches one
    /// band, so the other shards keep their generations (and their
    /// readers' `Arc`s) completely untouched. Returns the indices of the
    /// shards that swapped.
    pub fn admit_changed(&self, embeddings: &Tensor) -> Result<Vec<usize>, ServeError> {
        let shape = TensorExpectation {
            rows: Some(self.num_segments()),
            cols: Some(self.dim),
            finite: false,
        };
        shape.validate(embeddings)?;
        let mut swapped = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let unchanged = shard.store.snapshot().is_some_and(|gen| {
                shard.globals.iter().enumerate().all(|(local, &g)| {
                    let live = gen.embeddings().row_slice(local);
                    let next = embeddings.row_slice(g);
                    live.len() == next.len()
                        && live
                            .iter()
                            .zip(next)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            });
            if unchanged {
                continue;
            }
            shard.store.admit(embeddings.gather_rows(&shard.globals))?;
            swapped.push(si);
        }
        Ok(swapped)
    }

    /// Hot-reloads one shard from a per-shard artifact (rows = that
    /// shard's global ids in [`ShardedStore::shard_rows`] order), with
    /// the store's usual bounded retry and last-known-good fallback. The
    /// other shards are untouched.
    pub fn reload_shard(&self, idx: usize, path: impl AsRef<Path>) -> Result<u64, ServeError> {
        self.shards[idx].store.reload(path)
    }

    /// Writes one shard's ready HNSW index to `path` (the `.hnsw`
    /// sidecar convention lets the next reload of that shard's artifact
    /// adopt it instead of rebuilding). Typed
    /// [`ServeError::IndexUnavailable`] when the shard has no ready
    /// index.
    pub fn save_shard_index(&self, idx: usize, path: impl AsRef<Path>) -> Result<(), ServeError> {
        self.shards[idx].store.save_index(path)
    }
}
