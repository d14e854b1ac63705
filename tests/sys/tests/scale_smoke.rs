//! Scale smoke: the spatial-join knob end to end, with a memory ceiling.
//!
//! `SarnConfig::similarity.join` selects how `A^s` is built — the
//! all-pairs `Reference` oracle or the bucketed `Grid` join. The two emit
//! bit-identical edge lists (`spatial_join_equivalence` proves it at the
//! matrix level), so *training* must be bit-identical too: same loss
//! bits, same embedding bits. This suite pins that contract end to end,
//! and at the large scale also bounds peak RSS — the grid join buckets
//! candidates instead of materializing an all-pairs scan, and the
//! augmentation sampler streams instead of sorting a dense key vector,
//! so memory stays linear in segments + edges.
//!
//! The always-run test uses a small lattice. The `scale 2.0` test (~9k
//! segments, one epoch per join mode) is `#[ignore]` — debug-mode
//! training at that size would dominate the default suite — and runs in
//! release from `scripts/ci.sh` via `-- --ignored`. At that size it also
//! edits the network through `LiveNetwork` and requires the localized
//! `A^s` repair to equal a from-scratch join bit for bit.

use sarn_core::{train, SarnConfig, SarnTrained, SpatialJoin, SpatialSimilarity};
use sarn_pipeline::LiveNetwork;
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_sys_tests::mixed_batch;

/// Peak-RSS ceiling for the scale-2.0 leg: both one-epoch runs (grid and
/// all-pairs reference) must fit. The measured peak is ~249 MB at 8,867
/// segments (release build), linear in segments and edges. The budget
/// leaves ~54% headroom over that, yet one accidentally materialized n×n
/// intermediate (~315 MB as f32 at ~9k segments) would exceed it.
const SCALE2_PEAK_RSS_BUDGET_BYTES: u64 = 384 << 20;

fn run(net: &RoadNetwork, join: SpatialJoin, epochs: usize) -> SarnTrained {
    let mut cfg = SarnConfig::small();
    cfg.max_epochs = epochs;
    cfg.similarity.join = join;
    train(net, &cfg)
}

/// Trains once per join mode and requires bitwise-identical trajectories.
fn assert_join_modes_train_identically(net: &RoadNetwork, epochs: usize) {
    let grid = run(net, SpatialJoin::Grid, epochs);
    let reference = run(net, SpatialJoin::Reference, epochs);
    assert_eq!(
        grid.loss_history, reference.loss_history,
        "loss bits diverged between join modes"
    );
    assert_eq!(
        grid.embeddings.data(),
        reference.embeddings.data(),
        "embedding bits diverged between join modes"
    );
    assert_eq!(grid.epochs_run, reference.epochs_run);
}

#[test]
fn join_modes_train_identically_on_a_small_lattice() {
    let net = SynthConfig::city(City::Chengdu).scaled(0.25).generate();
    assert_join_modes_train_identically(&net, 2);
}

/// The headline scale leg: ~9k segments (`SARN_NET_SCALE=2.0`
/// equivalent), one epoch per join mode, identical bits, bounded peak
/// RSS; then 16 edit batches repaired in place must leave the same `A^s`
/// as a grid join of the edited network. Ignored by default — debug-mode
/// training at this size is far too slow for the tier-1 suite;
/// `scripts/ci.sh` runs it in release.
#[test]
#[ignore = "scale-2.0 training; run in release via scripts/ci.sh (--ignored)"]
fn scale_two_join_modes_train_identically_within_memory_budget() {
    let net = SynthConfig::city(City::Chengdu).scaled(2.0).generate();
    assert!(
        net.num_segments() > 5_000,
        "scale 2.0 should be city-sized, got {}",
        net.num_segments()
    );
    assert_join_modes_train_identically(&net, 1);
    if let Some(peak) = sarn_obs::peak_rss_bytes() {
        assert!(
            peak < SCALE2_PEAK_RSS_BUDGET_BYTES,
            "peak RSS {peak} bytes exceeds the {SCALE2_PEAK_RSS_BUDGET_BYTES}-byte budget"
        );
    }

    let sim = SarnConfig::small().similarity;
    let mut live = LiveNetwork::new(net, &sim);
    for k in 1..=16 {
        let batch = mixed_batch(&live, k, 50_000);
        live.apply(&batch)
            .unwrap_or_else(|e| panic!("batch {k} rejected: {e}"));
    }
    let rebuilt = SpatialSimilarity::build(live.network(), &sim);
    assert!(
        live.spatial_edges() == rebuilt.edges(),
        "incremental A^s diverged from the full rebuild after 16 batches"
    );
}
