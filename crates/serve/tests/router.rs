//! Behavioral contract of the shard router: bitwise identity with the
//! single store when healthy, typed coverage degradation under injected
//! shard faults, quarantine and probed recovery, batched amortization,
//! and shard-aware health.

use std::time::Duration;

use sarn_geo::Point;
use sarn_serve::{
    BreakerConfig, BreakerState, Deadline, EmbeddingStore, Router, RouterConfig, ServeConfig,
    ServeError, ServeState, ShardFault, ShardOutcome, ShardedStore,
};
use sarn_tensor::Tensor;

const N: usize = 36;
const D: usize = 4;
const SHARDS: usize = 4;

/// Midpoints on a small lattice around Chengdu, ~200 m apart — wide
/// enough that the geo-partitioner produces several non-empty bands.
fn midpoints() -> Vec<Point> {
    (0..N)
        .map(|i| {
            Point::new(
                30.64 + (i / 6) as f64 * 0.002,
                104.04 + (i % 6) as f64 * 0.002,
            )
        })
        .collect()
}

/// Deterministic, row-distinguishable, finite embeddings.
fn embeddings(scale: f32) -> Tensor {
    Tensor::from_vec(
        N,
        D,
        (0..N * D)
            .map(|p| scale * ((p / D) as f32 + 1.0) + (p % D) as f32)
            .collect(),
    )
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        reload_retries: 0,
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

/// The default router with a fast backoff and a quick breaker.
fn router_cfg() -> RouterConfig {
    RouterConfig {
        shard_retries: 1,
        shard_backoff: Duration::from_millis(1),
        breaker: BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(10),
        },
        ..RouterConfig::default()
    }
}

fn router_with(cfg: RouterConfig) -> Router {
    let sharded =
        ShardedStore::new(midpoints(), D, serve_cfg(), SHARDS).expect("valid sharded store");
    assert!(sharded.num_shards() > 1, "test needs a real fan-out");
    sharded.admit(&embeddings(1.0)).expect("admission");
    Router::new(sharded, cfg)
}

fn single_store() -> EmbeddingStore {
    let s = EmbeddingStore::new(midpoints(), D, serve_cfg()).expect("valid store");
    s.admit(embeddings(1.0)).expect("admission");
    s
}

#[test]
fn healthy_fanout_is_bitwise_identical_to_the_single_store() {
    let router = router_with(router_cfg());
    let single = single_store();
    for segment in 0..N {
        for k in [1, 3, 10] {
            let ours = router
                .knn(segment, k, Deadline::unbounded())
                .expect("routed knn");
            let theirs = single.knn(segment, k, Deadline::unbounded()).expect("knn");
            assert!(ours.coverage.complete(), "healthy shards, full coverage");
            assert_eq!(ours.neighbors.len(), theirs.neighbors.len());
            for (a, b) in ours.neighbors.iter().zip(&theirs.neighbors) {
                assert_eq!(a.0, b.0, "segment {segment} k {k}: id order");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "segment {segment} k {k}: score bits"
                );
            }
        }
    }
}

#[test]
fn healthy_approx_fanout_matches_the_single_store_bitwise() {
    let router = router_with(router_cfg());
    let single = single_store();
    for segment in 0..N {
        let ours = router
            .knn_approx(segment, 5, Deadline::unbounded())
            .expect("routed approx");
        let theirs = single
            .knn_approx(segment, 5, Deadline::unbounded())
            .expect("approx");
        assert_eq!(ours.neighbors.len(), theirs.neighbors.len());
        for (a, b) in ours.neighbors.iter().zip(&theirs.neighbors) {
            assert_eq!(
                (a.0, a.1.to_bits()),
                (b.0, b.1.to_bits()),
                "segment {segment}"
            );
        }
    }
}

#[test]
fn transient_shard_fault_is_retried_away() {
    let router = router_with(router_cfg());
    // One failure, one retry (shard_retries = 1): the shard still answers.
    let victim = router.sharded().num_shards() - 1;
    router.inject_shard_fault(
        victim,
        Some(ShardFault {
            fail_queries: 1,
            ..ShardFault::default()
        }),
    );
    // Query a segment owned by shard 0 so the victim is a non-owner leg.
    let out = router.knn(0, 5, Deadline::unbounded()).expect("retried");
    assert!(out.coverage.complete(), "{:?}", out.coverage);
}

#[test]
fn exhausted_shard_degrades_to_approx_then_fails_when_sticky() {
    let router = router_with(router_cfg());
    let victim = router.sharded().num_shards() - 1;
    // Exactly enough failures to exhaust 1 + shard_retries attempts; the
    // degraded approximate leg then finds the fault spent and succeeds.
    router.inject_shard_fault(
        victim,
        Some(ShardFault {
            fail_queries: 2,
            ..ShardFault::default()
        }),
    );
    // k = N forces the grid expansion to cover the whole network, so the
    // victim's rows are among the rescue leg's candidates.
    let out = router.knn(0, N, Deadline::unbounded()).expect("degraded");
    let cov = &out.coverage;
    assert_eq!(cov.answered, cov.total);
    assert_eq!(cov.degraded, 1, "{cov:?}");
    let line = cov.shards.iter().find(|s| s.shard == victim).expect("line");
    assert_eq!(line.outcome, ShardOutcome::DegradedApprox);
    assert!(line
        .error
        .as_deref()
        .is_some_and(|e| e.contains("injected")));

    // Sticky: every attempt (including the rescue leg) fails — the shard
    // is dropped from the answer, the answer itself still succeeds.
    router.inject_shard_fault(
        victim,
        Some(ShardFault {
            fail_queries: 1,
            sticky: true,
            ..ShardFault::default()
        }),
    );
    let out = router.knn(0, N, Deadline::unbounded()).expect("partial");
    let cov = &out.coverage;
    assert_eq!(cov.answered, cov.total - 1, "{cov:?}");
    let line = cov.shards.iter().find(|s| s.shard == victim).expect("line");
    assert_eq!(line.outcome, ShardOutcome::Failed);
    // The missing shard's rows are exactly what distinguishes the partial
    // answer from the full one.
    let full_rows: std::collections::HashSet<usize> = router
        .sharded()
        .shard_rows(victim)
        .iter()
        .copied()
        .collect();
    assert!(out.neighbors.iter().all(|(id, _)| !full_rows.contains(id)));
    assert!(router.partial_total() >= 1);
}

#[test]
fn min_shards_turns_deep_partial_into_a_typed_error() {
    let mut cfg = router_cfg();
    cfg.min_shards = usize::MAX; // clamped to the actual shard count
    let router = router_with(cfg);
    let victim = router.sharded().num_shards() - 1;
    router.inject_shard_fault(
        victim,
        Some(ShardFault {
            fail_queries: 1,
            sticky: true,
            ..ShardFault::default()
        }),
    );
    match router.knn(0, 5, Deadline::unbounded()) {
        Err(ServeError::PartialCoverage {
            answered,
            total,
            min_shards,
        }) => {
            assert_eq!(total, router.sharded().num_shards());
            assert_eq!(answered, total - 1);
            assert_eq!(min_shards, total);
        }
        other => panic!("expected PartialCoverage, got {other:?}"),
    }
}

#[test]
fn breaker_quarantines_after_threshold_and_probe_recovers() {
    sarn_obs::set_enabled(true);
    let _ = sarn_obs::EventJournal::global().drain();
    let mut cfg = router_cfg();
    cfg.breaker = BreakerConfig {
        failure_threshold: 2,
        open_cooldown: Duration::from_millis(20),
    };
    let router = router_with(cfg);
    let victim = router.sharded().num_shards() - 1;
    router.inject_shard_fault(
        victim,
        Some(ShardFault {
            fail_queries: 1,
            sticky: true,
            ..ShardFault::default()
        }),
    );
    // Two failed queries exhaust the threshold.
    for _ in 0..2 {
        let out = router.knn(0, 5, Deadline::unbounded()).expect("partial");
        assert!(!out.coverage.complete());
    }
    assert_eq!(router.breaker_state(victim), BreakerState::Open);
    // While open (cooldown running), the shard is skipped without being
    // consulted: outcome Quarantined, fault untouched.
    let out = router
        .knn(0, 5, Deadline::unbounded())
        .expect("quarantined");
    let line = out
        .coverage
        .shards
        .iter()
        .find(|s| s.shard == victim)
        .expect("line");
    assert_eq!(line.outcome, ShardOutcome::Quarantined);
    // Fault clears; after the cooldown the next query carries the probe,
    // which succeeds and re-closes the breaker — coverage is whole again.
    router.inject_shard_fault(victim, None);
    std::thread::sleep(Duration::from_millis(25));
    let out = router.knn(0, 5, Deadline::unbounded()).expect("probe");
    assert!(out.coverage.complete(), "{:?}", out.coverage);
    assert_eq!(router.breaker_state(victim), BreakerState::Closed);
    // The journal saw the full cycle: open (quarantine enter), half-open,
    // closed (quarantine exit) — one entry per transition.
    let events = sarn_obs::EventJournal::global().drain();
    let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
    assert!(kinds.contains(&"breaker_transition"), "{kinds:?}");
    assert!(kinds.contains(&"quarantine_enter"), "{kinds:?}");
    assert!(kinds.contains(&"quarantine_exit"), "{kinds:?}");
    assert!(kinds.contains(&"partial_coverage"), "{kinds:?}");
    let transitions = kinds.iter().filter(|k| **k == "breaker_transition").count();
    assert_eq!(
        transitions, 3,
        "closed→open, open→half-open, half-open→closed"
    );
    sarn_obs::set_enabled(false);
}

#[test]
fn batch_matches_individual_queries_and_isolates_bad_ids() {
    let router = router_with(router_cfg());
    let segments = [0usize, 3, N + 7, 11];
    let batch = router
        .knn_batch(&segments, 4, Deadline::unbounded())
        .expect("batch admission");
    assert_eq!(batch.len(), segments.len());
    for (i, &segment) in segments.iter().enumerate() {
        match (&batch[i], segment < N) {
            (Ok(routed), true) => {
                let solo = router.knn(segment, 4, Deadline::unbounded()).expect("solo");
                let a: Vec<(usize, u32)> = routed
                    .neighbors
                    .iter()
                    .map(|&(id, s)| (id, s.to_bits()))
                    .collect();
                let b: Vec<(usize, u32)> = solo
                    .neighbors
                    .iter()
                    .map(|&(id, s)| (id, s.to_bits()))
                    .collect();
                assert_eq!(a, b, "batch[{i}]");
            }
            (Err(ServeError::UnknownSegment { segment: s, .. }), false) => {
                assert_eq!(*s, segment);
            }
            (other, _) => panic!("batch[{i}] unexpected: {other:?}"),
        }
    }
}

#[test]
fn per_shard_swap_leaves_sibling_generations_untouched() {
    let router = router_with(router_cfg());
    let sharded = router.sharded();
    let shards = sharded.num_shards();
    // Change only the rows owned by shard 0; admit_changed must swap
    // exactly that shard.
    let mut next = embeddings(1.0);
    let touched = sharded.shard_rows(0).to_vec();
    for &g in &touched {
        next.row_slice_mut(g)[0] += 42.0;
    }
    let swapped = sharded.admit_changed(&next).expect("partial admit");
    assert_eq!(swapped, vec![0]);
    for si in 0..shards {
        let expected = if si == 0 { 2 } else { 1 };
        assert_eq!(
            sharded.shard(si).store.generation(),
            Some(expected),
            "shard {si}"
        );
    }
    // An identical re-admit swaps nothing at all.
    let swapped = sharded.admit_changed(&next).expect("no-op admit");
    assert!(swapped.is_empty());
    // Queries across the mixed generations still answer with coverage.
    let out = router.knn(0, 5, Deadline::unbounded()).expect("mixed");
    assert!(out.coverage.complete());
}

#[test]
fn health_is_per_shard_aware_and_aggregates_the_worst_state() {
    let router = router_with(router_cfg());
    let shards = router.sharded().num_shards();
    let h = router.health();
    assert_eq!(h.shards.len(), shards);
    assert!(
        matches!(h.state, ServeState::Serving { .. }),
        "{:?}",
        h.state
    );
    assert!(h.shards.iter().all(|s| s.breaker == BreakerState::Closed));
    assert_eq!(h.shards.iter().map(|s| s.segments).sum::<usize>(), N);
    // Force one shard stale: the aggregate degrades to the worst shard.
    router.inject_shard_fault(
        shards - 1,
        Some(ShardFault {
            force_stale: true,
            ..ShardFault::default()
        }),
    );
    let h = router.health();
    assert!(matches!(h.state, ServeState::Stale { .. }), "{:?}", h.state);
    let line = &h.shards[shards - 1];
    assert!(matches!(line.state, ServeState::Stale { .. }));
    // Siblings are individually unaffected.
    assert!(h.shards[..shards - 1]
        .iter()
        .all(|s| matches!(s.state, ServeState::Serving { .. })));
}
