//! Road-segment feature discretization and embedding (paper §4.3, "Feature
//! embedding layer").
//!
//! Each segment is a 5-tuple with seven feature values: road type, length,
//! radian, and the start/end coordinates (two values each). Real-valued
//! features are discretized into equi-sized bins — 5 m for length, 10° for
//! radian, 50 m for coordinates — and every feature value is embedded by its
//! own linear layer (equivalently: a per-feature embedding table), with the
//! seven outputs concatenated into `x_i ∈ R^{d_f}`.

use rand::Rng;
use sarn_geo::LocalProjection;
use sarn_roadnet::{HighwayClass, RoadNetwork};
use sarn_tensor::{init, Graph, ParamId, ParamStore, Var};

/// Bin width for segment length, meters.
const LENGTH_BIN_M: f64 = 5.0;
/// Bin width for radian, degrees.
const RADIAN_BIN_DEG: f64 = 10.0;
/// Bin width for coordinates, meters.
const COORD_BIN_M: f64 = 50.0;

/// Number of discrete features per segment.
pub const NUM_FEATURES: usize = 7;

/// Discretized integer features for every segment of a network.
#[derive(Clone, Debug)]
pub struct DiscretizedFeatures {
    /// `n x NUM_FEATURES` bin ids, row-major.
    ids: Vec<usize>,
    /// Vocabulary size per feature.
    vocab: [usize; NUM_FEATURES],
    n: usize,
}

impl DiscretizedFeatures {
    /// Discretizes all segments of a network.
    pub fn from_network(net: &RoadNetwork) -> Self {
        let bbox = net.bbox();
        let proj = LocalProjection::new(sarn_geo::Point::new(bbox.min_lat, bbox.min_lon));
        let n = net.num_segments();
        let mut ids = Vec::with_capacity(n * NUM_FEATURES);
        let mut vocab = [0usize; NUM_FEATURES];
        for seg in net.segments() {
            let (sx, sy) = proj.project(&seg.start);
            let (ex, ey) = proj.project(&seg.end);
            let radian_deg = seg.radian.to_degrees();
            let row = [
                seg.class.index(),
                (seg.length_m / LENGTH_BIN_M).floor().max(0.0) as usize,
                (radian_deg / RADIAN_BIN_DEG).floor().rem_euclid(36.0) as usize,
                (sx / COORD_BIN_M).floor().max(0.0) as usize,
                (sy / COORD_BIN_M).floor().max(0.0) as usize,
                (ex / COORD_BIN_M).floor().max(0.0) as usize,
                (ey / COORD_BIN_M).floor().max(0.0) as usize,
            ];
            for (f, &id) in row.iter().enumerate() {
                vocab[f] = vocab[f].max(id + 1);
            }
            ids.extend_from_slice(&row);
        }
        vocab[0] = HighwayClass::ALL.len();
        Self { ids, vocab, n }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no segments are present.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bin id of feature `f` for segment `i`.
    pub fn id(&self, i: usize, f: usize) -> usize {
        self.ids[i * NUM_FEATURES + f]
    }

    /// Vocabulary size of feature `f`.
    pub fn vocab(&self, f: usize) -> usize {
        self.vocab[f]
    }
}

/// The shared feature-embedding layer: one embedding table per feature,
/// concatenated. `d_f = NUM_FEATURES * d_per_feature`.
pub struct FeatureEmbedding {
    tables: Vec<ParamId>,
    d_per_feature: usize,
}

impl FeatureEmbedding {
    /// Registers the per-feature embedding tables.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        feats: &DiscretizedFeatures,
        d_per_feature: usize,
    ) -> Self {
        let tables = (0..NUM_FEATURES)
            .map(|f| {
                store.add(
                    format!("{name}.emb{f}"),
                    init::normal(rng, feats.vocab(f), d_per_feature, 0.1),
                )
            })
            .collect();
        Self {
            tables,
            d_per_feature,
        }
    }

    /// Output width `d_f`.
    pub fn d_f(&self) -> usize {
        NUM_FEATURES * self.d_per_feature
    }

    /// Parameter ids of the embedding tables.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.tables.clone()
    }

    /// Records the lookup of all segments on the tape: returns the
    /// `n x d_f` feature matrix `X`.
    pub fn forward(&self, g: &Graph, store: &ParamStore, feats: &DiscretizedFeatures) -> Var {
        let all: Vec<usize> = (0..feats.len()).collect();
        self.forward_rows(g, store, feats, &all)
    }

    /// Records the lookup of the segments `rows` only: row `k` of the
    /// `rows.len() x d_f` result is segment `rows[k]`'s row of `X`. With
    /// `rows` ascending, each table's gradient sums its rows' terms in the
    /// same order as the all-segment lookup does.
    pub fn forward_rows(
        &self,
        g: &Graph,
        store: &ParamStore,
        feats: &DiscretizedFeatures,
        rows: &[usize],
    ) -> Var {
        let parts: Vec<Var> = (0..NUM_FEATURES)
            .map(|f| {
                let table = g.param(store, self.tables[f]);
                let ids: Vec<usize> = rows.iter().map(|&i| feats.id(i, f)).collect();
                g.gather_rows(table, &ids)
            })
            .collect();
        g.concat_cols(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sarn_roadnet::{City, SynthConfig};

    fn feats() -> (RoadNetwork, DiscretizedFeatures) {
        let net = SynthConfig::city(City::Chengdu).scaled(0.3).generate();
        let f = DiscretizedFeatures::from_network(&net);
        (net, f)
    }

    #[test]
    fn discretization_covers_all_segments() {
        let (net, f) = feats();
        assert_eq!(f.len(), net.num_segments());
        for i in 0..f.len() {
            for c in 0..NUM_FEATURES {
                assert!(f.id(i, c) < f.vocab(c), "feature {c} id out of vocab");
            }
        }
    }

    #[test]
    fn radian_bins_have_36_buckets_max() {
        let (_, f) = feats();
        assert!(f.vocab(2) <= 36);
    }

    #[test]
    fn type_vocab_is_highway_class_count() {
        let (_, f) = feats();
        assert_eq!(f.vocab(0), 7);
    }

    #[test]
    fn embedding_forward_shapes_and_grads() {
        let (_, f) = feats();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let emb = FeatureEmbedding::new(&mut store, &mut rng, "fe", &f, 4);
        assert_eq!(emb.d_f(), 28);
        let g = Graph::new();
        let x = emb.forward(&g, &store, &f);
        assert_eq!(g.shape(x), (f.len(), 28));
        let loss = g.mean_all(g.sqr(x));
        g.backward(loss);
        g.accumulate_grads(&mut store);
        for id in emb.param_ids() {
            assert!(store.grad(id).norm_sq() > 0.0);
        }
    }

    #[test]
    fn nearby_parallel_segments_share_coordinate_bins() {
        let (net, f) = feats();
        // Find two segments whose midpoints are < 10 m apart; they should
        // agree on most coordinate bins.
        let mut found = false;
        'outer: for i in 0..net.num_segments() {
            for j in (i + 1)..net.num_segments() {
                let d =
                    sarn_geo::haversine_m(&net.segment(i).midpoint(), &net.segment(j).midpoint());
                if d < 10.0 {
                    let agree = (3..7).filter(|&c| f.id(i, c) == f.id(j, c)).count();
                    assert!(agree >= 2, "only {agree} coord bins agree");
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "no close pair in synthetic network");
    }
}
