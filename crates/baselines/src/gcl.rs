//! Shared scaffolding for the GCL baselines (GraphCL, GCA): a
//! feature-embedding + GAT + projection stack with **shared** parameters
//! across both graph views (unlike SARN's momentum branch).

use sarn_core::{Backbone, BackboneDims};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::layers::EdgeIndex;
use sarn_tensor::{Graph, ParamStore, Tensor, Var};

/// Backbone dimensions shared by the GCL baselines.
#[derive(Clone, Copy, Debug)]
pub struct GclBackboneConfig {
    /// Output embedding dimensionality.
    pub d: usize,
    /// Projection dimensionality.
    pub d_z: usize,
    /// Per-feature embedding width.
    pub d_per_feature: usize,
    /// GAT layers.
    pub n_layers: usize,
    /// GAT heads.
    pub n_heads: usize,
}

impl Default for GclBackboneConfig {
    fn default() -> Self {
        Self {
            d: 64,
            d_z: 32,
            d_per_feature: 8,
            n_layers: 3,
            n_heads: 4,
        }
    }
}

impl GclBackboneConfig {
    /// Minimal configuration for tests.
    pub fn tiny() -> Self {
        Self {
            d: 16,
            d_z: 8,
            d_per_feature: 4,
            n_layers: 2,
            n_heads: 2,
        }
    }
}

/// The shared-parameter GCL backbone: SARN's [`Backbone`] layers with one
/// store.
pub struct GclBackbone {
    backbone: Backbone,
    /// Model parameters (single branch — both views share them).
    pub store: ParamStore,
}

impl GclBackbone {
    /// Builds the backbone for a network.
    pub fn new(net: &RoadNetwork, cfg: &GclBackboneConfig, seed: u64) -> Self {
        let dims = BackboneDims {
            d_per_feature: cfg.d_per_feature,
            d: cfg.d,
            d_z: cfg.d_z,
            n_layers: cfg.n_layers,
            n_heads: cfg.n_heads,
        };
        let (backbone, store) = Backbone::new(net, dims, seed);
        Self { backbone, store }
    }

    /// Records `H = F(X, view)` on a tape.
    pub fn encode(&self, g: &Graph, edges: &EdgeIndex) -> Var {
        self.backbone.encode(g, &self.store, edges)
    }

    /// Records `H = F(X, view)` for the segments `rows` only, over their
    /// receptive field ([`Backbone::encode_rows`]).
    pub fn encode_rows(&self, g: &Graph, edges: &EdgeIndex, rows: &[usize]) -> Var {
        self.backbone.encode_rows(g, &self.store, edges, rows)
    }

    /// Records `Z = P(H)`.
    pub fn project(&self, g: &Graph, h: Var) -> Var {
        self.backbone.project(g, &self.store, h)
    }

    /// Gradient-free full forward, returning `n x d`.
    pub fn embed_detached(&self, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, edges);
        g.value(h)
    }

    /// Gradient-free full forward + projection, returning `n x d_z`.
    pub fn embed_projected_detached(&self, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, edges);
        let z = self.project(&g, h);
        g.value(z)
    }

    /// Gradient-free forward + projection of the segments `rows` only,
    /// returning `rows.len() x d_z`.
    pub fn embed_projected_rows_detached(&self, edges: &EdgeIndex, rows: &[usize]) -> Tensor {
        self.backbone
            .embed_projected_rows_detached(&self.store, edges, rows)
    }
}
