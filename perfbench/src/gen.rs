//! Seeded inputs: spatially correlated embedding rows for `knn_read` and
//! the edit stream for `edit_churn`. Both are pure functions of their
//! inputs and the seed; the program under test only ever sees the result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sarn_geo::{LocalProjection, Point};
use sarn_pipeline::{EditBatch, NetworkEdit};
use sarn_roadnet::{HighwayClass, RoadNetwork};
use sarn_tensor::Tensor;

/// Amplitude of the per-row noise against unit-amplitude spatial
/// features: enough that no two rows tie, small enough that nearby
/// segments stay each other's nearest neighbours (noise-dominated rows
/// make the HNSW build slower and its recall lower, unlike SARN's).
const ROW_NOISE: f64 = 0.05;

/// Shortest and longest plane-wave wavelength of the rows, in metres.
const WAVELENGTHS_M: (f64, f64) = (400.0, 6000.0);
/// Turn between the directions of consecutive columns' waves.
const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

/// `midpoints.len() x dim` rows whose column `j` is a plane wave
/// `cos(2π/λ_j · (x cos θ_j + y sin θ_j) + φ_j)` over the projected
/// midpoint, plus uniform per-row noise. Wavelengths span 0.4–6 km, so a
/// segment's row is close to those of segments a few blocks away and far
/// from those across the city, as learned SARN embeddings are. The
/// wavelengths are evenly spaced and the directions a golden-angle
/// sequence, so every seed gets the same mix of scales and directions
/// and its rows are about as hard to index as any other seed's; the seed
/// turns the whole pattern, shifts each wave's phase and draws the noise.
pub fn correlated_rows(midpoints: &[Point], dim: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x524F_5753);
    let turn = rng.gen_range(0.0..std::f64::consts::TAU);
    let (shortest, longest) = WAVELENGTHS_M;
    let waves: Vec<(f64, f64, f64)> = (0..dim)
        .map(|j| {
            let theta = turn + j as f64 * GOLDEN_ANGLE;
            let wavelength = shortest + (longest - shortest) * (j as f64 + 0.5) / dim as f64;
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            (theta, std::f64::consts::TAU / wavelength, phase)
        })
        .collect();
    let proj = LocalProjection::new(midpoints.first().copied().unwrap_or(Point::new(0.0, 0.0)));
    let mut data = Vec::with_capacity(midpoints.len() * dim);
    for p in midpoints {
        let (x, y) = proj.project(p);
        for &(theta, k, phase) in &waves {
            let along = x * theta.cos() + y * theta.sin();
            let noise = rng.gen_range(-ROW_NOISE..ROW_NOISE);
            data.push(((k * along + phase).cos() + noise) as f32);
        }
    }
    Tensor::from_vec(midpoints.len(), dim, data)
}

/// What one edit batch does to the network's size, which decides the
/// serve-side path: size-preserving batches swap changed shards in
/// place, size-changing ones rebuild the sharded store and router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BatchKind {
    /// Two reclassifications.
    Reclass,
    /// One removal plus one addition.
    Swap,
    /// One addition.
    Grow,
    /// One removal.
    Shrink,
}

impl BatchKind {
    pub fn preserves_size(self) -> bool {
        matches!(self, BatchKind::Reclass | BatchKind::Swap)
    }
}

/// First key handed to added segments, far above the initial `0..n`.
const FRESH_KEY_BASE: u64 = 1 << 32;

/// A seeded stream of `count` wire-encoded edit batches against `net`,
/// as [`sarn_pipeline::LiveNetwork`] keys it (initial segment `i` has key
/// `i`). Every batch is valid against the network the earlier batches
/// leave behind, and the network never drifts more than one segment from
/// its starting size, so each batch retrains about the same graph.
pub fn edit_stream(net: &RoadNetwork, seed: u64, count: usize) -> Vec<(BatchKind, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4544_4954);
    // Live segments as (key, end point): the end anchors added segments.
    let mut live: Vec<(u64, Point)> = net
        .segments()
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s.end))
        .collect();
    let mut next_key = FRESH_KEY_BASE;
    let mut grown = false;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = match rng.gen_range(0..3u32) {
            0 => BatchKind::Reclass,
            1 => BatchKind::Swap,
            _ if grown => BatchKind::Shrink,
            _ => BatchKind::Grow,
        };
        let mut edits = Vec::new();
        match kind {
            BatchKind::Reclass => {
                let a = rng.gen_range(0..live.len());
                let b = (a + rng.gen_range(1..live.len())) % live.len();
                for idx in [a, b] {
                    edits.push(NetworkEdit::ReclassSegment {
                        key: live[idx].0,
                        class: HighwayClass::ALL[rng.gen_range(0..HighwayClass::ALL.len())],
                    });
                }
            }
            BatchKind::Swap | BatchKind::Shrink => {
                let victim = rng.gen_range(0..live.len());
                edits.push(NetworkEdit::SegmentRemove {
                    key: live.swap_remove(victim).0,
                });
            }
            BatchKind::Grow => {}
        }
        if matches!(kind, BatchKind::Swap | BatchKind::Grow) {
            let (anchor, start) = live[rng.gen_range(0..live.len())];
            let end = Point::new(
                start.lat + rng.gen_range(2e-4..6e-4) * sign(&mut rng),
                start.lon + rng.gen_range(2e-4..6e-4) * sign(&mut rng),
            );
            edits.push(NetworkEdit::SegmentAdd {
                key: next_key,
                class: HighwayClass::ALL[rng.gen_range(0..HighwayClass::ALL.len())],
                start,
                end,
                in_neighbors: vec![anchor],
                out_neighbors: vec![],
            });
            live.push((next_key, end));
            next_key += 1;
        }
        match kind {
            BatchKind::Grow => grown = true,
            BatchKind::Shrink => grown = false,
            _ => {}
        }
        out.push((kind, EditBatch::new(edits).encode()));
    }
    out
}

fn sign(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        1.0
    } else {
        -1.0
    }
}

/// Uniform keys for request `i` of a run: a pure function of the seed
/// and the index, so which thread sends a request never changes its key.
pub fn request_key(seed: u64, i: u64, n: usize) -> usize {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use sarn_pipeline::LiveNetwork;
    use sarn_roadnet::{City, SynthConfig};

    fn net() -> RoadNetwork {
        SynthConfig::city(City::Chengdu).scaled(0.3).generate()
    }

    fn midpoints(net: &RoadNetwork) -> Vec<Point> {
        net.segments().iter().map(|s| s.midpoint()).collect()
    }

    #[test]
    fn rows_repeat_for_a_seed_and_differ_across_seeds() {
        let m = midpoints(&net());
        let a = correlated_rows(&m, 16, 7);
        assert_eq!(a.shape(), (m.len(), 16));
        assert!(a.all_finite());
        assert_eq!(a.data(), correlated_rows(&m, 16, 7).data());
        assert_ne!(a.data(), correlated_rows(&m, 16, 8).data());
    }

    #[test]
    fn rows_are_spatially_correlated_and_never_tie() {
        // The network `knn_read` serves: wide enough (8 km) for segments
        // across the city to be several wavelengths apart.
        let net = SynthConfig::city(City::SanFrancisco)
            .scaled(crate::knn::SF_SCALE)
            .generate();
        let m = midpoints(&net);
        let proj = LocalProjection::new(m[0]);
        let xy: Vec<(f64, f64)> = m.iter().map(|p| proj.project(p)).collect();
        let rows = correlated_rows(&m, 64, 3);
        let cos = |a: usize, b: usize| {
            let (x, y) = (rows.row_slice(a), rows.row_slice(b));
            let dot: f32 = x.iter().zip(y).map(|(p, q)| p * q).sum();
            let nx: f32 = x.iter().map(|p| p * p).sum::<f32>().sqrt();
            let ny: f32 = y.iter().map(|p| p * p).sum::<f32>().sqrt();
            f64::from(dot / (nx * ny))
        };
        // Topological neighbours share an intersection, so they are
        // close; segments 3 km or more apart are not.
        let edges = net.topo_edges();
        let near = edges.iter().map(|&(i, j, _)| cos(i, j)).sum::<f64>() / edges.len() as f64;
        let far: Vec<f64> = edges
            .iter()
            .enumerate()
            .map(|(t, &(i, j, _))| (i, (j + m.len() / 2 + t) % m.len()))
            .filter(|&(a, b)| (xy[a].0 - xy[b].0).hypot(xy[a].1 - xy[b].1) >= 3000.0)
            .map(|(a, b)| cos(a, b))
            .collect();
        assert!(far.len() > 1000, "{} far pairs", far.len());
        let far = far.iter().sum::<f64>() / far.len() as f64;
        assert!(near > far + 0.5, "near {near} far {far}");
        let mut seen = std::collections::HashSet::new();
        for r in 0..rows.rows() {
            let bits: Vec<u32> = rows.row_slice(r).iter().map(|v| v.to_bits()).collect();
            assert!(seen.insert(bits), "row {r} ties an earlier row");
        }
    }

    #[test]
    fn edit_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let net = net();
        let a = edit_stream(&net, 11, 40);
        assert_eq!(a, edit_stream(&net, 11, 40));
        assert_ne!(a, edit_stream(&net, 12, 40));
        let kinds: std::collections::HashSet<_> = a.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds.len(), 4, "every batch kind appears: {kinds:?}");
    }

    #[test]
    fn edit_stream_applies_in_order_and_keeps_the_size_within_one() {
        let net = net();
        let n = net.num_segments();
        let mut live = LiveNetwork::new(net.clone(), &Default::default());
        for (kind, bytes) in edit_stream(&net, 5, 60) {
            let batch = EditBatch::decode(&bytes).expect("stream batches decode");
            let before = live.network().num_segments();
            live.apply(&batch).expect("stream batches apply");
            let after = live.network().num_segments();
            assert_eq!(kind.preserves_size(), before == after, "{kind:?}");
            assert!(after == n || after == n + 1, "size drifted to {after}");
        }
    }

    #[test]
    fn request_keys_are_uniform_and_seeded() {
        let keys: Vec<usize> = (0..10_000).map(|i| request_key(1, i, 100)).collect();
        assert!(keys.iter().all(|&k| k < 100));
        let mut counts = [0usize; 100];
        keys.iter().for_each(|&k| counts[k] += 1);
        assert!(counts.iter().all(|&c| (50..150).contains(&c)), "{counts:?}");
        assert_ne!(
            keys[..50],
            (0..50).map(|i| request_key(2, i, 100)).collect::<Vec<_>>()[..]
        );
    }
}
