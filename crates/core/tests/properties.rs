//! Property-based tests on SARN's spatial components.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sarn_core::checkpoint::{
    Checkpoint, CheckpointMeta, OptimState, ParamStoreSnapshot, QueueState,
};
use sarn_core::{
    pairwise_similarity, weighted_sample_without_replacement, AugmentConfig, Augmenter,
    SpatialSimilarity, SpatialSimilarityConfig,
};
use sarn_durable::TempDir;
use sarn_geo::Point;
use sarn_roadnet::{City, HighwayClass, RoadNetwork, RoadSegment, SynthConfig};
use sarn_tensor::Tensor;

fn seg(lat: f64, lon: f64, dlat: f64, dlon: f64) -> RoadSegment {
    RoadSegment::between(
        HighwayClass::Primary,
        Point::new(lat, lon),
        Point::new(lat + dlat, lon + dlon),
    )
}

proptest! {
    #[test]
    fn similarity_is_symmetric_and_bounded(
        lat in 30.0f64..30.01,
        lon in 104.0f64..104.01,
        dlat1 in 0.0002f64..0.001,
        dlon2 in 0.0002f64..0.001,
    ) {
        let a = seg(lat, lon, dlat1, 0.0);
        let b = seg(lat, lon + 0.0005, dlon2, 0.0002);
        let net = RoadNetwork::new(vec![a, b], &[]);
        let cfg = SpatialSimilarityConfig::default();
        let s_ab = pairwise_similarity(&net, 0, 1, &cfg);
        let s_ba = pairwise_similarity(&net, 1, 0, &cfg);
        prop_assert_eq!(s_ab.is_some(), s_ba.is_some());
        if let (Some(x), Some(y)) = (s_ab, s_ba) {
            prop_assert!((x - y).abs() < 1e-12);
            prop_assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn tighter_thresholds_never_increase_similarity(
        scale in 0.3f64..1.0,
    ) {
        let a = seg(30.0, 104.0, 0.0008, 0.0);
        let b = seg(30.0, 104.0008, 0.0008, 0.0001);
        let net = RoadNetwork::new(vec![a, b], &[]);
        let base = SpatialSimilarityConfig::default();
        let tight = SpatialSimilarityConfig {
            delta_ds_m: base.delta_ds_m * scale,
            delta_as_rad: base.delta_as_rad * scale,
            ..SpatialSimilarityConfig::default()
        };
        if let (Some(loose_v), Some(tight_v)) = (
            pairwise_similarity(&net, 0, 1, &base),
            pairwise_similarity(&net, 0, 1, &tight),
        ) {
            prop_assert!(tight_v <= loose_v + 1e-9);
        }
    }

    #[test]
    fn weighted_sampling_returns_k_distinct_valid_indices(
        weights in proptest::collection::vec(0.01f64..10.0, 1..40),
        k_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let k = ((weights.len() as f64) * k_frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = weighted_sample_without_replacement(&mut rng, &weights, k);
        prop_assert_eq!(sample.len(), k.min(weights.len()));
        let mut uniq = sample.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), sample.len());
        prop_assert!(sample.iter().all(|&i| i < weights.len()));
    }

    #[test]
    fn corruption_preserves_vertex_count_and_drops_edges(
        seed in 0u64..500,
        rho in 0.1f64..0.9,
    ) {
        // A small chain graph with spatial duplicates.
        let topo: Vec<(usize, usize, f64)> =
            (0..9).map(|i| (i, i + 1, 2.0 + (i % 3) as f64)).collect();
        let spatial: Vec<(usize, usize, f64)> =
            (0..5).map(|i| (i, i + 2, 0.3 + 0.1 * (i % 4) as f64)).collect();
        let aug = Augmenter::new(
            10,
            topo.clone(),
            spatial.clone(),
            AugmentConfig { rho_t: rho, rho_s: rho, epsilon: 0.05 },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let view = aug.corrupt(&mut rng);
        prop_assert_eq!(view.n, 10);
        prop_assert!(view.topo.len() <= topo.len());
        prop_assert!(view.spatial.len() <= spatial.len());
        // Requested removals are lower bounds (dual-typed coupling may drop more).
        let expect_topo_max = topo.len() - (rho * topo.len() as f64).round() as usize;
        prop_assert!(view.topo.len() <= expect_topo_max);
        // Every retained edge existed in the original sets.
        for e in &view.topo {
            prop_assert!(topo.iter().any(|&(a, b, _)| (a, b) == *e));
        }
        for e in &view.spatial {
            prop_assert!(spatial.iter().any(|&(a, b, _)| (a, b) == *e));
        }
    }

    #[test]
    fn seeded_corruption_is_identical_across_thread_counts(
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let topo: Vec<(usize, usize, f64)> =
            (0..40).map(|i| (i, i + 1, 1.0 + (i % 5) as f64)).collect();
        let spatial: Vec<(usize, usize, f64)> =
            (0..12).map(|i| (i, i + 3, 0.2 + 0.06 * (i % 9) as f64)).collect();
        let aug = Augmenter::new(41, topo, spatial, AugmentConfig::default());
        let serial = with_threads(1, || aug.corrupt_with_seed(seed));
        let parallel = with_threads(threads, || aug.corrupt_with_seed(seed));
        prop_assert_eq!(serial.topo, parallel.topo);
        prop_assert_eq!(serial.spatial, parallel.spatial);
    }

    #[test]
    fn edge_index_self_loops_cover_all_vertices(seed in 0u64..100) {
        let topo: Vec<(usize, usize, f64)> = (0..7).map(|i| (i, (i + 1) % 8, 2.0)).collect();
        let aug = Augmenter::new(8, topo, Vec::new(), AugmentConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = aug.corrupt(&mut rng).edge_index();
        // Every vertex appears as a center at least once (its self-loop),
        // so segment softmax is defined everywhere.
        let mut seen = [false; 8];
        for &c in idx.center.iter() {
            seen[c] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// Runs `f` under a temporary thread-count setting, restoring the serial
/// default afterwards. The knob is process-global, but every primitive is
/// deterministic at any setting, so concurrent tests observing a transient
/// value still compute identical results.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    sarn_par::set_num_threads(n);
    let r = f();
    sarn_par::set_num_threads(1);
    r
}

proptest! {
    // These cases build a city-scale network each; a handful suffices.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn parallel_similarity_build_matches_serial(
        delta_ds in 120.0f64..260.0,
        threads in 2usize..6,
    ) {
        // 800 segments at scale 0.6 clear the build's 512-segment serial
        // fallback, so the parallel range scan actually runs. The edge
        // *list* (order included) must match the serial build exactly.
        let net = SynthConfig::city(City::Chengdu).scaled(0.6).generate();
        let cfg = SpatialSimilarityConfig {
            delta_ds_m: delta_ds,
            ..SpatialSimilarityConfig::default()
        };
        let serial = with_threads(1, || SpatialSimilarity::build(&net, &cfg));
        let parallel = with_threads(threads, || SpatialSimilarity::build(&net, &cfg));
        prop_assert!(serial.num_edges() > 0, "degenerate case: no spatial edges");
        prop_assert!(
            serial.edges() == parallel.edges(),
            "edge lists differ at {} threads", threads
        );
    }

    #[test]
    fn corruption_rate_stays_clamped_under_parallel_sampler(base_seed in 0u64..100) {
        // The epsilon clamp keeps every edge's corruption probability inside
        // [eps, 1 - eps]: over repeated parallel draws each edge must be
        // removed at least once and retained at least once, and each draw
        // must remove exactly the requested fraction (the sampler is
        // without replacement, so the count is fixed).
        let m = 10usize;
        let topo: Vec<(usize, usize, f64)> =
            (0..m).map(|i| (i, i + 1, 1.0 + i as f64)).collect();
        let cfg = AugmentConfig { rho_t: 0.4, rho_s: 0.4, epsilon: 0.05 };
        let aug = Augmenter::new(m + 1, topo, Vec::new(), cfg);
        let draws = 300u64;
        let expect_drop = (cfg.rho_t * m as f64).round() as usize;
        let mut removals = vec![0u32; m];
        for d in 0..draws {
            let view = with_threads(4, || aug.corrupt_with_seed(base_seed * draws + d));
            prop_assert_eq!(m - view.topo.len(), expect_drop);
            for (i, r) in removals.iter_mut().enumerate() {
                if !view.topo.iter().any(|&(a, b)| (a, b) == (i, i + 1)) {
                    *r += 1;
                }
            }
        }
        for (i, &r) in removals.iter().enumerate() {
            prop_assert!(
                r > 0 && r < draws as u32,
                "edge {} removed {}/{} times — outside the epsilon clamp", i, r, draws
            );
        }
    }
}

/// Deterministically fills a tensor with finite values from `rng`.
fn arb_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| (rng.next_u64() % 20_001) as f32 / 100.0 - 100.0)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Builds an arbitrary (but `seed`-deterministic) checkpoint: varying
/// parameter counts and shapes, optimizer moments, loss history, shuffle
/// order, and optionally populated queues.
fn arb_checkpoint(seed: u64, n_params: usize, with_queues: bool, n_cells: usize) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<(usize, usize)> = (0..n_params)
        .map(|_| {
            (
                1 + (rng.next_u64() % 4) as usize,
                1 + (rng.next_u64() % 5) as usize,
            )
        })
        .collect();
    let store_of = |rng: &mut StdRng| ParamStoreSnapshot {
        params: shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| (format!("p{i}.w"), arb_tensor(rng, r, c)))
            .collect(),
    };
    let query = store_of(&mut rng);
    let momentum = store_of(&mut rng);
    let optim = OptimState {
        step: rng.next_u64() % 1_000_000,
        m: shapes
            .iter()
            .map(|&(r, c)| arb_tensor(&mut rng, r, c))
            .collect(),
        v: shapes
            .iter()
            .map(|&(r, c)| arb_tensor(&mut rng, r, c))
            .collect(),
    };
    let dim = 1 + (rng.next_u64() % 4) as usize;
    let capacity = 1 + (rng.next_u64() % 5) as u32;
    let queues = with_queues.then(|| QueueState {
        dim: dim as u32,
        capacity,
        cells: (0..n_cells)
            .map(|_| {
                let fill = rng.next_u64() % (capacity as u64 + 1);
                (0..fill)
                    .map(|_| {
                        let seg = (rng.next_u64() % 10_000) as u32;
                        let emb = (0..dim)
                            .map(|_| (rng.next_u64() % 1000) as f32 / 500.0 - 1.0)
                            .collect();
                        (seg, emb)
                    })
                    .collect()
            })
            .collect(),
    });
    let n_losses = rng.next_u64() % 20;
    let n_order = rng.next_u64() % 50;
    Checkpoint {
        meta: CheckpointMeta {
            fingerprint: rng.next_u64(),
            next_epoch: (rng.next_u64() % 100_000) as u32,
            train_seconds: (rng.next_u64() % 1_000_000) as f64 / 7.0,
            rng_state: [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ],
            loss_history: (0..n_losses)
                .map(|_| (rng.next_u64() % 2000) as f32 / 100.0)
                .collect(),
            order: (0..n_order)
                .map(|_| (rng.next_u64() % 10_000) as u32)
                .collect(),
        },
        query,
        momentum,
        optim,
        queues,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_roundtrips_bitwise(
        seed in 0u64..u64::MAX,
        n_params in 0usize..5,
        with_queues in 0u8..2,
        n_cells in 0usize..5,
    ) {
        let ckpt = arb_checkpoint(seed, n_params, with_queues == 1, n_cells);
        // Bytes → struct → bytes is the identity…
        let bytes = ckpt.to_bytes();
        let parsed = Checkpoint::from_bytes(&bytes);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert!(parsed == ckpt, "round-tripped checkpoint differs");
        prop_assert_eq!(parsed.to_bytes(), bytes, "re-serialization differs");
        // …and so is the atomic save → load path.
        let dir = TempDir::new("prop-ckpt").unwrap();
        let path = dir.path().join(format!("{seed:016x}.sarnckpt"));
        ckpt.save(&path).unwrap();
        let reloaded = Checkpoint::load(&path).unwrap();
        prop_assert!(reloaded == ckpt, "file round-trip differs");
    }
}
