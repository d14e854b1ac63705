//! The spatial similarity matrix `A^s` (paper §4.1, Technical Contribution 1).
//!
//! `A^s_{i,j}` averages a distance similarity and an angular similarity
//! (Eq. 3–5), each normalized to `[0, 1]` by a cosine ramp with thresholds
//! `δ_ds` (meters, haversine between midpoints) and `δ_as` (radians,
//! absolute angular distance). A pair gets an undirected *spatial edge*
//! when it is both within `δ_ds` and within `δ_as` (otherwise one of the
//! cosine terms is zero and the pair carries no usable spatial signal —
//! this keeps `A^s` as sparse as the paper's Table 3 reports).
//!
//! # Join strategies
//!
//! Construction is a spatial self-join over segment midpoints, selected by
//! [`SpatialJoin`] (DESIGN.md §13):
//!
//! * [`SpatialJoin::Reference`] — the literal all-pairs `O(n^2)` scan. It is
//!   the *oracle*: trivially correct, and the order every suite pins — each
//!   `i` emits its partners `j > i` in ascending order.
//! * [`SpatialJoin::Grid`] (default) — a grid-bucketed join over
//!   [`sarn_geo::Grid`]: midpoints are bucketed into cells sized to cover
//!   the `δ_ds` ring (see [`join_cell_side_m`]), and each segment is
//!   compared only against candidates from its Chebyshev-1 cell
//!   neighborhood. Near-linear time on real road networks. Candidates are
//!   sorted per segment before scoring, and the weight of every surviving
//!   pair comes from the same [`pairwise_similarity`] call — so the edge
//!   list is **bit-for-bit identical** to the reference scan (same pairs,
//!   same weights, same order; `crates/core/tests/spatial_join_equivalence.rs`
//!   enforces it).
//!
//! Both joins parallelize identically when the backend is enabled (see
//! [`sarn_par::set_num_threads`]): segments are partitioned into contiguous
//! index ranges scanned concurrently, each range emits its edges in the
//! serial scan order, and the per-range results are concatenated in range
//! order — so the edge list does not depend on the thread count either.

use std::f64::consts::PI;

use sarn_geo::{angular_distance, haversine_m, BoundingBox, Grid, EARTH_RADIUS_M};
use sarn_roadnet::RoadNetwork;

/// Below this many segments the build stays serial: the whole scan is
/// cheaper than a thread spawn.
const PAR_MIN_SEGMENTS: usize = 512;

/// Which spatial self-join builds `A^s`.
///
/// An execution-strategy knob like `SarnConfig::num_threads`: both
/// strategies produce bit-identical edge lists, so the choice is excluded
/// from the checkpoint config fingerprint and may differ between a
/// checkpoint's producer and its resumer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpatialJoin {
    /// All-pairs `O(n^2)` scan — the exactness oracle the equivalence
    /// suites compare against.
    Reference,
    /// Grid-bucketed join over [`sarn_geo::Grid`] cells sized to the
    /// `δ_ds` ring — near-linear on road networks, bit-identical output.
    #[default]
    Grid,
}

impl SpatialJoin {
    /// Parses the conventional knob spelling (case-insensitive
    /// `"reference"`/`"grid"`); anything else is `None`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" | "allpairs" => Some(Self::Reference),
            "grid" => Some(Self::Grid),
            _ => None,
        }
    }

    /// Reads `SARN_SPATIAL_JOIN` from the environment, defaulting to
    /// `Grid` when unset or unparseable.
    pub fn from_env() -> Self {
        std::env::var("SARN_SPATIAL_JOIN")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Stable lowercase label (`"reference"` / `"grid"`), the inverse of
    /// [`SpatialJoin::parse`].
    pub fn label(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Grid => "grid",
        }
    }
}

/// Parameters of `A^s`.
#[derive(Clone, Copy, Debug)]
pub struct SpatialSimilarityConfig {
    /// Spatial distance threshold `δ_ds` in meters (paper default: 200 m).
    pub delta_ds_m: f64,
    /// Angular distance threshold `δ_as` in radians (paper default: π/8).
    pub delta_as_rad: f64,
    /// Join strategy building the matrix. Excluded from the config
    /// fingerprint: both strategies emit bit-identical edge lists.
    pub join: SpatialJoin,
}

impl Default for SpatialSimilarityConfig {
    fn default() -> Self {
        Self {
            delta_ds_m: 200.0,
            delta_as_rad: PI / 8.0,
            join: SpatialJoin::default(),
        }
    }
}

/// The sparse spatial similarity matrix: undirected weighted edges,
/// stored once with `i < j`.
#[derive(Clone, Debug)]
pub struct SpatialSimilarity {
    edges: Vec<(usize, usize, f64)>,
}

impl SpatialSimilarity {
    /// Builds `A^s` for a road network with the join strategy named in
    /// `cfg` (bit-identical output either way).
    pub fn build(net: &RoadNetwork, cfg: &SpatialSimilarityConfig) -> Self {
        let edges = match cfg.join {
            SpatialJoin::Reference => build_reference(net, cfg),
            SpatialJoin::Grid => build_grid(net, cfg),
        };
        Self { edges }
    }

    /// Undirected spatial edges `(i, j, A^s_{i,j})` with `i < j`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of spatial edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// The all-pairs oracle: every `(i, j)` with `i < j`, in ascending `(i, j)`
/// order.
fn build_reference(net: &RoadNetwork, cfg: &SpatialSimilarityConfig) -> Vec<(usize, usize, f64)> {
    let n = net.num_segments();
    sarn_par::par_flat_ranges(n, PAR_MIN_SEGMENTS, |range| {
        let mut edges = Vec::new();
        for i in range {
            for j in (i + 1)..n {
                if let Some(w) = pairwise_similarity(net, i, j, cfg) {
                    edges.push((i, j, w));
                }
            }
        }
        edges
    })
}

/// The grid-bucketed join: bucket midpoints into cells wide enough to
/// cover the `δ_ds` ring, then compare each segment only against the
/// sorted candidates of its Chebyshev-1 neighborhood. Sorting the
/// candidate list per segment restores the oracle's ascending-`j` emission
/// order, and the accept/weight decision is the same [`pairwise_similarity`]
/// call — hence bitwise-identical output.
fn build_grid(net: &RoadNetwork, cfg: &SpatialSimilarityConfig) -> Vec<(usize, usize, f64)> {
    let n = net.num_segments();
    let grid = Grid::new(*net.bbox(), join_cell_side_m(net.bbox(), cfg.delta_ds_m));
    // Midpoints are averages of in-box endpoints, so every one maps to a
    // real (unclamped) cell.
    let cell_of: Vec<usize> = (0..n)
        .map(|i| grid.cell_of(&net.segment(i).midpoint()))
        .collect();
    let mut cell_members: Vec<Vec<usize>> = vec![Vec::new(); grid.num_cells()];
    for (i, &c) in cell_of.iter().enumerate() {
        cell_members[c].push(i);
    }
    sarn_par::par_flat_ranges(n, PAR_MIN_SEGMENTS, |range| {
        let mut edges = Vec::new();
        // Both scratch buffers are reused across the whole range — the hot
        // loop performs no per-query allocation.
        let mut cells: Vec<usize> = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        for i in range {
            grid.neighborhood_into(cell_of[i], 1, &mut cells);
            candidates.clear();
            for &cell in &cells {
                candidates.extend(cell_members[cell].iter().copied().filter(|&j| j > i));
            }
            // Cells are distinct, members within a cell ascend, but members
            // of *different* cells interleave arbitrarily: sort to restore
            // the oracle's ascending-j order.
            candidates.sort_unstable();
            for &j in &candidates {
                if let Some(w) = pairwise_similarity(net, i, j, cfg) {
                    edges.push((i, j, w));
                }
            }
        }
        edges
    })
}

/// Cell side (meters) guaranteeing that any pair within haversine `δ_ds`
/// lands in Chebyshev-adjacent cells of the join grid.
///
/// The grid buckets by [`sarn_geo::LocalProjection`] — an equirectangular
/// projection whose east-west scale is fixed at the box's minimum latitude
/// — while the pair predicate uses the haversine distance. North-south the
/// projection never exceeds the haversine (`d >= R·|Δφ|` exactly), but
/// east-west a pair at haversine `d` can project up to
/// `d · cos(φ_ref) / cos(φ)` apart when it sits at a latitude `φ` with a
/// smaller cosine than the reference. The side is therefore stretched by
/// the worst-case ratio over the box (plus a curvature term for
/// `sin x <= x` and an epsilon for rounding), so the radius-1 neighborhood
/// provably covers the `δ_ds` ring and the grid join misses no pair the
/// all-pairs oracle accepts.
pub fn join_cell_side_m(bbox: &BoundingBox, delta_ds_m: f64) -> f64 {
    let delta = delta_ds_m.max(1.0);
    let ref_cos = bbox.min_lat.to_radians().cos().max(1e-9);
    let max_abs_lat = bbox.min_lat.abs().max(bbox.max_lat.abs());
    let min_cos = max_abs_lat.to_radians().cos().max(1e-9);
    let stretch = (ref_cos / min_cos).max(1.0);
    // Largest longitude gap (radians) a within-δ pair can span, and the
    // matching bound on how much `sin(Δλ/2)` undershoots `Δλ/2`.
    let dlam = (delta / (EARTH_RADIUS_M * min_cos)).min(PI);
    let curvature = 1.0 / (1.0 - (dlam / 2.0).powi(2) / 6.0).max(0.5);
    delta * stretch * curvature * (1.0 + 1e-9)
}

/// Incrementally maintained `A^s`: the grid-bucketed join's state (grid,
/// per-cell member lists) kept alive between edits so a single-segment
/// change re-scores only the candidates inside the edited segment's
/// `δ_ds` ring instead of rebuilding the whole matrix.
///
/// The maintained edge list is **bitwise identical** to a from-scratch
/// [`SpatialSimilarity::build`] on the current network after every
/// operation, at every thread count:
///
/// * **insert** — the appended segment holds the maximum index, so its
///   edges `(j, new)` sort after every existing `(j, j')` and before
///   `(j + 1, ·)`; one ordered merge pass splices them in. Weights come
///   from the same [`pairwise_similarity`] call the full build makes.
///   A midpoint outside the grid's box triggers an `O(n)` re-bucketing
///   over the grown box (no re-scoring) — a clamped boundary cell's
///   radius-1 neighborhood would no longer provably cover the ring.
/// * **remove** — edges touching the segment are dropped and surviving
///   endpoints renumbered monotonically, which preserves the ascending
///   `(i, j)` order; geometry of the survivors is untouched, so no
///   weight changes.
/// * **reclass** — a no-op: `A^s` weights depend only on geometry
///   (midpoint distance and heading), never on the highway class.
///
/// `crates/core/tests/spatial_join_equivalence.rs` and the pipeline sys
/// suite enforce the equivalence against both join oracles.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    cfg: SpatialSimilarityConfig,
    grid: Grid,
    /// Cell of each segment's midpoint (index = segment id).
    cell_of: Vec<usize>,
    /// Segment ids bucketed by cell, ascending within each bucket.
    cell_members: Vec<Vec<usize>>,
    edges: Vec<(usize, usize, f64)>,
}

impl SpatialIndex {
    /// Builds the index for a network: the canonical edge list (via
    /// [`SpatialSimilarity::build`], honoring `cfg.join`) plus the live
    /// grid buckets subsequent edits are repaired against.
    pub fn build(net: &RoadNetwork, cfg: &SpatialSimilarityConfig) -> Self {
        let edges = SpatialSimilarity::build(net, cfg).edges().to_vec();
        let mut index = Self {
            cfg: *cfg,
            grid: Grid::new(*net.bbox(), join_cell_side_m(net.bbox(), cfg.delta_ds_m)),
            cell_of: Vec::new(),
            cell_members: Vec::new(),
            edges,
        };
        index.rebucket(net);
        index
    }

    /// The maintained undirected spatial edges `(i, j, A^s_{i,j})`,
    /// `i < j`, ascending — bitwise what a full rebuild would produce.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of segments currently indexed.
    pub fn num_segments(&self) -> usize {
        self.cell_of.len()
    }

    /// The thresholds and join strategy the index was built with.
    pub fn config(&self) -> &SpatialSimilarityConfig {
        &self.cfg
    }

    /// Repairs the index after `net` gained one appended segment (id
    /// `net.num_segments() - 1`): buckets the new midpoint (re-gridding
    /// over the grown box if it falls outside), scores only the radius-1
    /// ring candidates, and splices the fresh edges in order. Returns the
    /// number of spatial edges the new segment gained.
    ///
    /// # Panics
    /// Panics unless `net` has exactly one more segment than the index.
    pub fn insert(&mut self, net: &RoadNetwork) -> usize {
        let n = net.num_segments();
        assert_eq!(
            n,
            self.cell_of.len() + 1,
            "insert repairs exactly one appended segment"
        );
        let new = n - 1;
        let mp = net.segment(new).midpoint();
        if self.grid.contains(&mp) {
            let c = self.grid.cell_of(&mp);
            self.cell_of.push(c);
            // `new` is the maximum id, so pushing keeps the bucket ascending.
            self.cell_members[c].push(new);
        } else {
            self.rebucket(net);
        }
        let mut cells = Vec::new();
        self.grid
            .neighborhood_into(self.cell_of[new], 1, &mut cells);
        let mut candidates: Vec<usize> = cells
            .iter()
            .flat_map(|&c| self.cell_members[c].iter().copied())
            .filter(|&j| j != new)
            .collect();
        candidates.sort_unstable();
        // Same scoring call as the full build, ascending j — so the fresh
        // `(j, new)` edges are exactly the full build's missing suffix of
        // each `i == j` run.
        let fresh: Vec<(usize, usize, f64)> = candidates
            .iter()
            .filter_map(|&j| pairwise_similarity(net, j, new, &self.cfg).map(|w| (j, new, w)))
            .collect();
        let gained = fresh.len();
        let mut merged = Vec::with_capacity(self.edges.len() + fresh.len());
        let mut fi = 0;
        for &e in &self.edges {
            // `(j, new)` precedes `(i, j2)` iff `j < i`: `new` is the
            // maximum id, so at equal first components the old edge wins.
            while fi < fresh.len() && fresh[fi].0 < e.0 {
                merged.push(fresh[fi]);
                fi += 1;
            }
            merged.push(e);
        }
        merged.extend_from_slice(&fresh[fi..]);
        self.edges = merged;
        gained
    }

    /// Repairs the index after segment `r` was removed from its network:
    /// drops `r`'s edges and bucket entry and renumbers every surviving
    /// id above `r` down by one — the same monotone renumbering
    /// [`sarn_roadnet::RoadNetwork::remove_segment`] applies, which
    /// preserves the ascending edge order. No re-scoring: the survivors'
    /// geometry is unchanged.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn remove(&mut self, r: usize) {
        assert!(r < self.cell_of.len(), "segment {r} out of range");
        let cell = self.cell_of.remove(r);
        self.cell_members[cell].retain(|&m| m != r);
        for bucket in &mut self.cell_members {
            for m in bucket.iter_mut() {
                if *m > r {
                    *m -= 1;
                }
            }
        }
        self.edges.retain(|&(i, j, _)| i != r && j != r);
        for e in &mut self.edges {
            if e.0 > r {
                e.0 -= 1;
            }
            if e.1 > r {
                e.1 -= 1;
            }
        }
    }

    /// Re-grids over the network's current bounding box and re-buckets
    /// every midpoint. `O(n)` bookkeeping, **zero** similarity re-scoring
    /// — the edge list is untouched.
    fn rebucket(&mut self, net: &RoadNetwork) {
        let bbox = *net.bbox();
        self.grid = Grid::new(bbox, join_cell_side_m(&bbox, self.cfg.delta_ds_m));
        let n = net.num_segments();
        self.cell_of = (0..n)
            .map(|i| self.grid.cell_of(&net.segment(i).midpoint()))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.grid.num_cells()];
        for (i, &c) in self.cell_of.iter().enumerate() {
            members[c].push(i);
        }
        self.cell_members = members;
    }
}

/// `A^s_{i,j}` for one pair, or `None` when either threshold is exceeded.
pub fn pairwise_similarity(
    net: &RoadNetwork,
    i: usize,
    j: usize,
    cfg: &SpatialSimilarityConfig,
) -> Option<f64> {
    if i == j {
        return None;
    }
    let (si, sj) = (net.segment(i), net.segment(j));
    let sp = haversine_m(&si.midpoint(), &sj.midpoint());
    if sp >= cfg.delta_ds_m {
        return None;
    }
    let ag = angular_distance(si.radian, sj.radian);
    if ag >= cfg.delta_as_rad {
        return None;
    }
    let ds = (PI * sp.min(cfg.delta_ds_m) / (2.0 * cfg.delta_ds_m)).cos();
    let asim = (PI * ag.min(cfg.delta_as_rad) / (2.0 * cfg.delta_as_rad)).cos();
    Some((ds + asim) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sarn_geo::Point;
    use sarn_roadnet::{City, HighwayClass, RoadSegment, SynthConfig};

    fn seg(start: (f64, f64), end: (f64, f64)) -> RoadSegment {
        RoadSegment::between(
            HighwayClass::Primary,
            Point::new(start.0, start.1),
            Point::new(end.0, end.1),
        )
    }

    fn tiny_net() -> RoadNetwork {
        // Three northbound parallel segments ~55 m apart, plus one eastbound.
        let a = seg((30.0, 104.0), (30.0008, 104.0));
        let b = seg((30.0, 104.0006), (30.0008, 104.0006));
        let c = seg((30.0, 104.01), (30.0008, 104.01)); // ~960 m away
        let d = seg((30.0004, 104.0), (30.0004, 104.0008)); // eastbound
        RoadNetwork::new(vec![a, b, c, d], &[(0, 1)])
    }

    #[test]
    fn close_parallel_segments_get_high_similarity() {
        let net = tiny_net();
        let cfg = SpatialSimilarityConfig::default();
        let w = pairwise_similarity(&net, 0, 1, &cfg).expect("should be similar");
        assert!(w > 0.7, "similarity {w}");
    }

    #[test]
    fn identical_direction_zero_distance_maxes_out() {
        let net = tiny_net();
        let cfg = SpatialSimilarityConfig::default();
        // A segment vs itself is excluded by definition (Eq. 3 diagonal).
        assert!(pairwise_similarity(&net, 0, 0, &cfg).is_none());
    }

    #[test]
    fn far_segments_are_pruned_by_delta_ds() {
        let net = tiny_net();
        let cfg = SpatialSimilarityConfig::default();
        assert!(pairwise_similarity(&net, 0, 2, &cfg).is_none());
    }

    #[test]
    fn perpendicular_segments_are_pruned_by_delta_as() {
        let net = tiny_net();
        let cfg = SpatialSimilarityConfig::default();
        assert!(pairwise_similarity(&net, 0, 3, &cfg).is_none());
    }

    #[test]
    fn similarity_decreases_with_distance() {
        let net = tiny_net();
        let near = SpatialSimilarityConfig::default();
        let w_near = pairwise_similarity(&net, 0, 1, &near).unwrap();
        // Same pair with a tighter threshold: normalized distance is larger,
        // so the cosine ramp value must shrink.
        let tight = SpatialSimilarityConfig {
            delta_ds_m: 80.0,
            ..near
        };
        let w_tight = pairwise_similarity(&net, 0, 1, &tight).unwrap();
        assert!(w_tight < w_near, "{w_tight} !< {w_near}");
    }

    #[test]
    fn build_on_synthetic_city_matches_table3_sparsity() {
        let net = SynthConfig::city(City::Chengdu).generate();
        let sim = SpatialSimilarity::build(&net, &SpatialSimilarityConfig::default());
        let n = net.num_segments() as f64;
        let ratio = sim.num_edges() as f64 / n;
        // The paper reports |A^s| ≈ 1.6 |S| on real cities; our lattice is
        // denser, so allow a broad but still sparse band.
        assert!(ratio > 0.5 && ratio < 12.0, "A^s ratio {ratio}");
        // All weights must be in (0, 1].
        for &(i, j, w) in sim.edges() {
            assert!(i < j);
            assert!(w > 0.0 && w <= 1.0, "weight {w}");
        }
    }

    #[test]
    fn build_finds_no_duplicate_pairs() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.3).generate();
        let sim = SpatialSimilarity::build(&net, &SpatialSimilarityConfig::default());
        let mut pairs: Vec<(usize, usize)> = sim.edges().iter().map(|&(i, j, _)| (i, j)).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), before);
    }

    #[test]
    fn grid_join_matches_reference_on_a_city() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.4).generate();
        let reference = SpatialSimilarity::build(
            &net,
            &SpatialSimilarityConfig {
                join: SpatialJoin::Reference,
                ..SpatialSimilarityConfig::default()
            },
        );
        let grid = SpatialSimilarity::build(
            &net,
            &SpatialSimilarityConfig {
                join: SpatialJoin::Grid,
                ..SpatialSimilarityConfig::default()
            },
        );
        assert!(reference.num_edges() > 0);
        assert_eq!(reference.edges(), grid.edges());
    }

    #[test]
    fn join_cell_side_covers_delta_and_is_finite() {
        let bb = BoundingBox {
            min_lat: 30.63,
            min_lon: 104.03,
            max_lat: 30.68,
            max_lon: 104.088,
        };
        let side = join_cell_side_m(&bb, 200.0);
        assert!(side >= 200.0, "side {side} below delta");
        assert!(side < 220.0, "side {side} over-inflated at city scale");
        // Degenerate threshold clamps to the 1 m floor.
        assert!(join_cell_side_m(&bb, 0.0) >= 1.0);
        // High-latitude boxes stretch the side but keep it finite.
        let polar = BoundingBox {
            min_lat: 69.0,
            min_lon: 18.0,
            max_lat: 69.4,
            max_lon: 19.0,
        };
        let polar_side = join_cell_side_m(&polar, 200.0);
        assert!(polar_side.is_finite() && polar_side >= 200.0);
    }

    /// Splitmix64 — enough randomness to scramble an edit schedule
    /// deterministically without pulling the rand shim into core.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn assert_index_matches_rebuild(index: &SpatialIndex, net: &RoadNetwork) {
        for join in [SpatialJoin::Reference, SpatialJoin::Grid] {
            let oracle = SpatialSimilarity::build(
                net,
                &SpatialSimilarityConfig {
                    join,
                    ..*index.config()
                },
            );
            assert_eq!(
                index.edges(),
                oracle.edges(),
                "index diverged from {} rebuild at n={}",
                join.label(),
                net.num_segments()
            );
        }
    }

    #[test]
    fn spatial_index_tracks_random_edits_bitwise() {
        let mut net = SynthConfig::city(City::Chengdu).scaled(0.25).generate();
        let cfg = SpatialSimilarityConfig::default();
        let mut index = SpatialIndex::build(&net, &cfg);
        assert!(index.edges().len() > 10, "seed network too sparse to test");
        assert_index_matches_rebuild(&index, &net);

        let bbox = *net.bbox();
        let mut rng = 0x5a17_u64;
        let mut inserted = 0usize;
        for step in 0..30 {
            match splitmix(&mut rng) % 3 {
                0 => {
                    // Insert near a random existing midpoint so the new
                    // segment actually gains spatial edges.
                    let anchor = (splitmix(&mut rng) as usize) % net.num_segments();
                    let mp = net.segment(anchor).midpoint();
                    let jitter = |r: &mut u64| ((splitmix(r) % 2001) as f64 - 1000.0) * 1e-7;
                    let start = Point::new(mp.lat + jitter(&mut rng), mp.lon + jitter(&mut rng));
                    let end = Point::new(start.lat + 0.0007, start.lon + jitter(&mut rng));
                    let new = RoadSegment::between(HighwayClass::Secondary, start, end);
                    let a = (splitmix(&mut rng) as usize) % net.num_segments();
                    net.add_segment(new, &[a], &[]);
                    inserted += index.insert(&net);
                }
                1 => {
                    let r = (splitmix(&mut rng) as usize) % net.num_segments();
                    net.remove_segment(r);
                    index.remove(r);
                }
                _ => {
                    // Reclass never touches A^s — geometry-only weights.
                    let r = (splitmix(&mut rng) as usize) % net.num_segments();
                    net.reclass_segment(r, HighwayClass::Service);
                }
            }
            assert_eq!(index.num_segments(), net.num_segments());
            // Full-rebuild comparison is O(n^2); check a prefix of steps
            // plus the final state rather than every iteration.
            if step < 6 || step == 29 {
                assert_index_matches_rebuild(&index, &net);
            }
        }
        assert!(inserted > 0, "no insert ever gained a spatial edge");
        assert_index_matches_rebuild(&index, &net);
        // The grid never regrew: every jittered insert stayed in the box.
        assert!(bbox.contains(&Point::new(bbox.min_lat, bbox.min_lon)));
    }

    #[test]
    fn spatial_index_rebuckets_when_an_insert_outgrows_the_box() {
        let mut net = tiny_net();
        let cfg = SpatialSimilarityConfig::default();
        let mut index = SpatialIndex::build(&net, &cfg);
        assert_index_matches_rebuild(&index, &net);
        // ~550 m north of the old box: outside the grid, inside δ_ds of
        // nothing at first hop, then a second insert bridges back.
        let far = seg((30.006, 104.0), (30.0068, 104.0));
        net.add_segment(far, &[0], &[]);
        assert_eq!(index.insert(&net), 0, "far segment gains no edges");
        assert_index_matches_rebuild(&index, &net);
        let bridge = seg((30.0055, 104.0), (30.0063, 104.0));
        net.add_segment(bridge, &[0], &[]);
        assert!(index.insert(&net) >= 1, "bridge should pair with far");
        assert_index_matches_rebuild(&index, &net);
    }

    #[test]
    fn spatial_index_remove_renumbers_without_rescoring() {
        let net = SynthConfig::city(City::Chengdu).scaled(0.2).generate();
        let cfg = SpatialSimilarityConfig::default();
        let mut index = SpatialIndex::build(&net, &cfg);
        let mut shadow = net.clone();
        // Remove a middle segment; surviving weights must be the exact
        // bits the original build produced for those pairs.
        let r = shadow.num_segments() / 2;
        let expected: Vec<(usize, usize, f64)> = index
            .edges()
            .iter()
            .filter(|&&(i, j, _)| i != r && j != r)
            .map(|&(i, j, w)| {
                (
                    if i > r { i - 1 } else { i },
                    if j > r { j - 1 } else { j },
                    w,
                )
            })
            .collect();
        shadow.remove_segment(r);
        index.remove(r);
        assert_eq!(index.edges(), &expected[..]);
        assert_index_matches_rebuild(&index, &shadow);
    }

    #[test]
    #[should_panic(expected = "exactly one appended segment")]
    fn spatial_index_insert_rejects_unsynced_network() {
        let net = tiny_net();
        let mut index = SpatialIndex::build(&net, &SpatialSimilarityConfig::default());
        index.insert(&net); // no segment was appended
    }

    #[test]
    fn spatial_join_parsing_and_labels() {
        assert_eq!(
            SpatialJoin::parse("reference"),
            Some(SpatialJoin::Reference)
        );
        assert_eq!(SpatialJoin::parse("REF"), Some(SpatialJoin::Reference));
        assert_eq!(SpatialJoin::parse("Grid"), Some(SpatialJoin::Grid));
        assert_eq!(SpatialJoin::parse("kdtree"), None);
        for j in [SpatialJoin::Reference, SpatialJoin::Grid] {
            assert_eq!(SpatialJoin::parse(j.label()), Some(j));
        }
        assert_eq!(SpatialJoin::default(), SpatialJoin::Grid);
    }
}
