//! GCA (Zhu et al., WWW 2021): GraphCL extended with *adaptive
//! augmentation* — high-weight edges are retained preferentially — and
//! negatives drawn from **all** other vertices of the graph, which makes it
//! both the strongest and the most expensive GCL baseline (Fig. 4) and the
//! first to run out of memory as networks grow (Table 8).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sarn_core::{AugmentConfig, Augmenter};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::optim::Adam;
use sarn_tensor::{Graph, Tensor};

use crate::common::{MemoryBudget, TrainError};
use crate::gcl::{GclBackbone, GclBackboneConfig};

/// GCA hyper-parameters.
#[derive(Clone, Debug)]
pub struct GcaConfig {
    /// Backbone dimensions.
    pub backbone: GclBackboneConfig,
    /// Weighted edge corruption (reuses SARN's Eq. 6-style sampling over the
    /// topological weights — GCA's adaptive augmentation).
    pub augment: AugmentConfig,
    /// InfoNCE temperature.
    pub tau: f32,
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size (anchors per step; negatives are still all vertices).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Simulated accelerator memory budget.
    pub memory: MemoryBudget,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GcaConfig {
    fn default() -> Self {
        Self {
            backbone: GclBackboneConfig::default(),
            augment: AugmentConfig::default(),
            tau: 0.05,
            lr: 0.005,
            batch_size: 128,
            epochs: 20,
            memory: MemoryBudget::default(),
            seed: 31,
        }
    }
}

/// A trained GCA model.
pub struct Gca {
    /// `n x d` segment embeddings.
    pub embeddings: Tensor,
    /// Wall-clock training time, seconds.
    pub train_seconds: f64,
    /// Mean loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Gca {
    /// Trains GCA, or fails with [`TrainError::OutOfMemory`] when the
    /// all-vertex similarity structure exceeds the memory budget.
    pub fn train(net: &RoadNetwork, cfg: &GcaConfig) -> Result<Self, TrainError> {
        let n = net.num_segments();
        // Dominant allocation: the dense anchor-by-all-vertices similarity
        // matrix plus its softmax and gradient copies (3 * n^2 f32).
        cfg.memory.check(3 * n * n * 4)?;

        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut backbone = GclBackbone::new(net, &cfg.backbone, cfg.seed);
        let mut opt = Adam::new(cfg.lr);
        let augmenter = Augmenter::new(n, net.topo_edges().to_vec(), Vec::new(), cfg.augment);
        let full = augmenter.full_view().edge_index();
        let mut order: Vec<usize> = (0..n).collect();
        let mut loss_history = Vec::new();

        for _ in 0..cfg.epochs {
            let v1 = augmenter.corrupt(&mut rng).edge_index();
            let v2 = augmenter.corrupt(&mut rng).edge_index();
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for batch in order.chunks(cfg.batch_size) {
                // Negatives are every vertex of view 2, so that branch
                // stays full-graph; the gradient branch computes only the
                // batch's rows, over their receptive field.
                let mut z2_full = backbone.embed_projected_detached(&v2);
                normalize_rows(&mut z2_full);
                backbone.store.zero_grads();
                let g = Graph::new();
                let hb = backbone.encode_rows(&g, &v1, batch);
                let z = backbone.project(&g, hb);
                let z = g.l2_normalize_rows(z);
                let d_z = z2_full.cols();
                // All-vertex negatives: candidate matrix is the entire second
                // view with the anchor's positive moved to row 0.
                let cands: Vec<Tensor> = batch
                    .iter()
                    .map(|&a| {
                        let mut rows = Vec::with_capacity(n * d_z);
                        rows.extend_from_slice(z2_full.row_slice(a));
                        for j in 0..n {
                            if j != a {
                                rows.extend_from_slice(z2_full.row_slice(j));
                            }
                        }
                        Tensor::from_vec(n, d_z, rows)
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
        Ok(Self {
            embeddings,
            train_seconds: start.elapsed().as_secs_f64(),
            loss_history,
        })
    }
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
    fn trains_on_small_networks() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.2).generate();
        let cfg = GcaConfig {
            backbone: GclBackboneConfig::tiny(),
            epochs: 2,
            batch_size: 64,
            ..Default::default()
        };
        let m = Gca::train(&net, &cfg).expect("should fit in budget");
        assert_eq!(m.embeddings.rows(), net.num_segments());
        assert!(m.embeddings.all_finite());
    }

    #[test]
    fn outruns_memory_on_large_networks() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.2).generate();
        let cfg = GcaConfig {
            backbone: GclBackboneConfig::tiny(),
            memory: MemoryBudget { bytes: 1024 },
            ..Default::default()
        };
        match Gca::train(&net, &cfg) {
            Err(TrainError::OutOfMemory { .. }) => {}
            other => panic!(
                "expected OOM, got {:?}",
                other.map(|m| m.embeddings.shape())
            ),
        }
    }
}
