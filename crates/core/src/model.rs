//! The SARN network: shared feature embedding, GAT encoder `F`, projection
//! head `P`, and a momentum branch `F'`, `P'` with the same layout
//! (paper §4.3, Fig. 2).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sarn_roadnet::RoadNetwork;
use sarn_tensor::layers::{Activation, EdgeIndex, Ffn, GatEncoder};
use sarn_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::config::SarnConfig;
use crate::features::{DiscretizedFeatures, FeatureEmbedding};

/// Layer widths of a [`Backbone`].
#[derive(Clone, Copy, Debug)]
pub struct BackboneDims {
    /// Per-feature embedding width (`d_f = 7 * d_per_feature`).
    pub d_per_feature: usize,
    /// Encoder output width `d`.
    pub d: usize,
    /// Projection width `d_z`.
    pub d_z: usize,
    /// GAT layers.
    pub n_layers: usize,
    /// GAT heads per layer.
    pub n_heads: usize,
}

/// The layer stack SARN and the GCL baselines share: feature embedding,
/// GAT encoder `F` and projection head `P` over one network's discretized
/// features. The parameters live in a [`ParamStore`] the caller owns, so
/// one stack runs against any store with its layout (SARN's query and
/// momentum branches).
pub struct Backbone {
    feats: DiscretizedFeatures,
    femb: FeatureEmbedding,
    encoder: GatEncoder,
    proj: Ffn,
}

impl Backbone {
    /// Builds the stack for a road network and returns it with a store of
    /// its parameters, initialized from `seed`.
    pub fn new(net: &RoadNetwork, dims: BackboneDims, seed: u64) -> (Self, ParamStore) {
        let feats = DiscretizedFeatures::from_network(net);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let femb = FeatureEmbedding::new(&mut store, &mut rng, "femb", &feats, dims.d_per_feature);
        let encoder = GatEncoder::new(
            &mut store,
            &mut rng,
            "enc",
            femb.d_f(),
            dims.d,
            dims.n_layers,
            dims.n_heads,
        );
        let proj = Ffn::new(
            &mut store,
            &mut rng,
            "proj",
            &[dims.d, dims.d, dims.d_z],
            Activation::Relu,
        );
        let backbone = Self {
            feats,
            femb,
            encoder,
            proj,
        };
        (backbone, store)
    }

    /// Discretized features of the underlying network.
    pub fn features(&self) -> &DiscretizedFeatures {
        &self.feats
    }

    /// Records `H = F(X, view)` for every segment: the full-graph pass.
    pub fn encode(&self, g: &Graph, store: &ParamStore, edges: &EdgeIndex) -> Var {
        let x = self.femb.forward(g, store, &self.feats);
        self.encoder.forward(g, store, x, edges)
    }

    /// Records `H = F(X, view)` for the segments `rows` only: row `k` of
    /// the result is segment `rows[k]`. The encoder runs over the per-layer
    /// blocks of the rows' receptive field ([`EdgeIndex::blocks`]): the
    /// feature lookup covers the first block's source rows, and each GAT
    /// layer computes only the rows the next one reads. The result, and the
    /// parameter gradients of any loss on it, equal gathering `rows` from
    /// [`Backbone::encode`] bit for bit.
    pub fn encode_rows(
        &self,
        g: &Graph,
        store: &ParamStore,
        edges: &EdgeIndex,
        rows: &[usize],
    ) -> Var {
        let blocks = edges.blocks(rows, self.encoder.n_layers());
        let x = self
            .femb
            .forward_rows(g, store, &self.feats, blocks[0].src());
        let h = self.encoder.forward_blocks(g, store, x, &blocks);
        let written = blocks[blocks.len() - 1].dst();
        let pos: Vec<usize> = rows
            .iter()
            .map(|r| {
                written
                    .binary_search(r)
                    .expect("the last block writes every requested row")
            })
            .collect();
        g.gather_rows(h, &pos)
    }

    /// Records the projection `Z = P(H)` on a tape.
    pub fn project(&self, g: &Graph, store: &ParamStore, h: Var) -> Var {
        self.proj.forward(g, store, h)
    }

    /// Gradient-free [`Backbone::encode_rows`] plus projection: the
    /// `rows.len() x d_z` matrix `P(H)` of the segments `rows`.
    pub fn embed_projected_rows_detached(
        &self,
        store: &ParamStore,
        edges: &EdgeIndex,
        rows: &[usize],
    ) -> Tensor {
        let g = Graph::new();
        let h = self.encode_rows(&g, store, edges, rows);
        let z = self.project(&g, store, h);
        g.value(z)
    }

    /// Parameter ids of the final GAT layer.
    pub fn last_gat_layer_ids(&self) -> Vec<ParamId> {
        self.encoder.last_layer_param_ids()
    }
}

/// The SARN model: the shared [`Backbone`] layers plus the query (`F`, `P`)
/// and momentum (`F'`, `P'`) parameter stores. The two stores share one
/// layout, so every layer can run against either.
pub struct SarnModel {
    backbone: Backbone,
    /// Query branch parameters (updated by gradient descent).
    pub store: ParamStore,
    /// Momentum branch parameters (updated by Eq. 12 EMA).
    pub store_momentum: ParamStore,
}

impl SarnModel {
    /// Builds the model for a road network, initializing both branches to
    /// identical weights.
    pub fn new(net: &RoadNetwork, cfg: &SarnConfig) -> Self {
        let dims = BackboneDims {
            d_per_feature: cfg.d_per_feature,
            d: cfg.d,
            d_z: cfg.d_z,
            n_layers: cfg.n_layers,
            n_heads: cfg.n_heads,
        };
        let (backbone, store) = Backbone::new(net, dims, cfg.seed);
        let store_momentum = store.clone();
        Self {
            backbone,
            store,
            store_momentum,
        }
    }

    /// Discretized features of the underlying network.
    pub fn features(&self) -> &DiscretizedFeatures {
        self.backbone.features()
    }

    /// Records the encoder forward pass `H = F(X, view)` on a tape using the
    /// given parameter store (query or momentum branch).
    pub fn encode(&self, g: &Graph, store: &ParamStore, edges: &EdgeIndex) -> Var {
        self.backbone.encode(g, store, edges)
    }

    /// [`SarnModel::encode`] for the segments `rows` only, over their
    /// receptive field ([`Backbone::encode_rows`]).
    pub fn encode_rows(
        &self,
        g: &Graph,
        store: &ParamStore,
        edges: &EdgeIndex,
        rows: &[usize],
    ) -> Var {
        self.backbone.encode_rows(g, store, edges, rows)
    }

    /// Records the projection `Z = P(H)` on a tape.
    pub fn project(&self, g: &Graph, store: &ParamStore, h: Var) -> Var {
        self.backbone.project(g, store, h)
    }

    /// Runs a full, gradient-free forward pass and returns the `n x d`
    /// embedding matrix (used after training).
    pub fn embed_detached(&self, store: &ParamStore, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, store, edges);
        g.value(h)
    }

    /// Runs a gradient-free forward + projection and returns `n x d_z`.
    pub fn embed_projected_detached(&self, store: &ParamStore, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, store, edges);
        let z = self.project(&g, store, h);
        g.value(z)
    }

    /// [`SarnModel::embed_projected_detached`] for the segments `rows` only
    /// (the momentum branch of a training step).
    pub fn embed_projected_rows_detached(
        &self,
        store: &ParamStore,
        edges: &EdgeIndex,
        rows: &[usize],
    ) -> Tensor {
        self.backbone
            .embed_projected_rows_detached(store, edges, rows)
    }

    /// Applies the Eq. 12 momentum update `W' = m W' + (1-m) W`.
    pub fn momentum_update(&mut self, m: f32) {
        self.store_momentum.momentum_update_from(&self.store, m);
    }

    /// Parameter ids of the final GAT layer (the part SARN* fine-tunes).
    pub fn last_gat_layer_ids(&self) -> Vec<ParamId> {
        self.backbone.last_gat_layer_ids()
    }

    /// All parameter ids of the query branch.
    pub fn all_param_ids(&self) -> Vec<ParamId> {
        self.store.ids().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::GraphView;
    use sarn_roadnet::{City, SynthConfig};

    fn setup() -> (RoadNetwork, SarnModel, EdgeIndex) {
        let net = SynthConfig::city(City::Chengdu).scaled(0.25).generate();
        let cfg = SarnConfig::tiny();
        let model = SarnModel::new(&net, &cfg);
        let view = GraphView::full(
            net.num_segments(),
            net.topo_edges().iter().map(|&(i, j, _)| (i, j)),
            std::iter::empty(),
        );
        let idx = view.edge_index();
        (net, model, idx)
    }

    #[test]
    fn branches_start_identical() {
        let _knobs = crate::test_knobs();
        let (net, model, idx) = setup();
        let hq = model.embed_detached(&model.store, &idx);
        let hm = model.embed_detached(&model.store_momentum, &idx);
        assert_eq!(hq.shape(), (net.num_segments(), SarnConfig::tiny().d));
        for (a, b) in hq.data().iter().zip(hm.data().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn momentum_update_moves_momentum_toward_query() {
        let _knobs = crate::test_knobs();
        let (_, mut model, idx) = setup();
        // Perturb the query branch.
        for id in model.all_param_ids() {
            model
                .store
                .value_mut(id)
                .data_mut()
                .iter_mut()
                .for_each(|v| *v += 0.1);
        }
        let before = model.embed_detached(&model.store_momentum, &idx);
        model.momentum_update(0.5);
        let after = model.embed_detached(&model.store_momentum, &idx);
        let query = model.embed_detached(&model.store, &idx);
        // After the EMA step the momentum output moves toward the query's.
        let d_before: f32 = before
            .data()
            .iter()
            .zip(query.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        let d_after: f32 = after
            .data()
            .iter()
            .zip(query.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d_after < d_before);
    }

    #[test]
    fn projection_reduces_dimension() {
        let _knobs = crate::test_knobs();
        let (net, model, idx) = setup();
        let z = model.embed_projected_detached(&model.store, &idx);
        let cfg = SarnConfig::tiny();
        assert_eq!(z.shape(), (net.num_segments(), cfg.d_z));
        assert!(cfg.d_z < cfg.d);
        assert!(z.all_finite());
    }
}
