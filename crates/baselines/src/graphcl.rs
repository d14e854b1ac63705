//! GraphCL (You et al., NeurIPS 2020) adapted to road networks: shared
//! encoder over two uniformly edge-dropped views, InfoNCE with in-batch
//! negatives. This is the paper's "representative GCL model" baseline.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::layers::EdgeIndex;
use sarn_tensor::optim::Adam;
use sarn_tensor::{Graph, Tensor};

use crate::gcl::{GclBackbone, GclBackboneConfig};

/// GraphCL hyper-parameters.
#[derive(Clone, Debug)]
pub struct GraphClConfig {
    /// Backbone dimensions (same GAT backbone as SARN, for fair comparison).
    pub backbone: GclBackboneConfig,
    /// Uniform edge-drop rate per view.
    pub drop_rate: f64,
    /// InfoNCE temperature.
    pub tau: f32,
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphClConfig {
    fn default() -> Self {
        Self {
            backbone: GclBackboneConfig::default(),
            drop_rate: 0.4,
            tau: 0.05,
            lr: 0.005,
            batch_size: 128,
            epochs: 20,
            seed: 21,
        }
    }
}

/// A trained GraphCL model.
pub struct GraphCl {
    /// `n x d` segment embeddings.
    pub embeddings: Tensor,
    /// Wall-clock training time, seconds.
    pub train_seconds: f64,
    /// Mean loss per epoch.
    pub loss_history: Vec<f32>,
}

impl GraphCl {
    /// Trains GraphCL on the topological graph.
    pub fn train(net: &RoadNetwork, cfg: &GraphClConfig) -> Self {
        let start = Instant::now();
        let n = net.num_segments();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let backbone = GclBackbone::new(net, &cfg.backbone, cfg.seed);
        let mut backbone = backbone;
        let mut opt = Adam::new(cfg.lr);
        let edges: Vec<(usize, usize)> = net.topo_edges().iter().map(|&(i, j, _)| (i, j)).collect();
        let full = view_from(&edges, n, 0.0, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        let mut loss_history = Vec::new();

        for _ in 0..cfg.epochs {
            let v1 = view_from(&edges, n, cfg.drop_rate, &mut rng);
            let v2 = view_from(&edges, n, cfg.drop_rate, &mut rng);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for batch in order.chunks(cfg.batch_size) {
                // Second view detached: with shared parameters this is a
                // stop-gradient on one side, the standard memory-saving
                // variant; positives/negatives still come from view 2.
                // Negatives are in-batch, so both branches compute only the
                // batch's rows, over their receptive field.
                let mut z2 = backbone.embed_projected_rows_detached(&v2, batch);
                normalize_rows(&mut z2);
                backbone.store.zero_grads();
                let g = Graph::new();
                let hb = backbone.encode_rows(&g, &v1, batch);
                let z = backbone.project(&g, hb);
                let z = g.l2_normalize_rows(z);
                let d_z = z2.cols();
                let cands: Vec<Tensor> = (0..batch.len())
                    .map(|a| {
                        let mut rows = Vec::with_capacity(batch.len() * d_z);
                        rows.extend_from_slice(z2.row_slice(a));
                        for b in 0..batch.len() {
                            if b != a {
                                rows.extend_from_slice(z2.row_slice(b));
                            }
                        }
                        Tensor::from_vec(batch.len(), d_z, rows)
                    })
                    .collect();
                let loss = g.info_nce(z, cands, cfg.tau);
                epoch_loss += g.value(loss).item();
                batches += 1;
                g.backward(loss);
                g.accumulate_grads(&mut backbone.store);
                opt.step(&mut backbone.store);
            }
            loss_history.push(epoch_loss / batches.max(1) as f32);
        }
        let embeddings = backbone.embed_detached(&full);
        Self {
            embeddings,
            train_seconds: start.elapsed().as_secs_f64(),
            loss_history,
        }
    }
}

/// Uniformly drops a fraction of directed edges and builds the message index.
fn view_from(edges: &[(usize, usize)], n: usize, drop_rate: f64, rng: &mut StdRng) -> EdgeIndex {
    let kept = edges
        .iter()
        .filter(|_| !rng.gen_bool(drop_rate))
        .map(|&(i, j)| (j, i));
    EdgeIndex::with_self_loops(n, kept)
}

/// In-place row L2 normalization (cosine-similarity InfoNCE).
fn normalize_rows(t: &mut Tensor) {
    for i in 0..t.rows() {
        let row = t.row_slice_mut(i);
        let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sarn_roadnet::{City, SynthConfig};

    #[test]
    fn trains_and_embeds() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.22).generate();
        let cfg = GraphClConfig {
            backbone: GclBackboneConfig::tiny(),
            epochs: 3,
            batch_size: 64,
            ..Default::default()
        };
        let m = GraphCl::train(&net, &cfg);
        assert_eq!(m.embeddings.shape(), (net.num_segments(), 16));
        assert!(m.embeddings.all_finite());
        assert_eq!(m.loss_history.len(), 3);
        let first = m.loss_history[0];
        let last = *m.loss_history.last().unwrap();
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }
}
