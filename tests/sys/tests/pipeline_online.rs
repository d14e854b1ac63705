//! System test of the fault-tolerant online pipeline: the network is
//! mutated mid-run with faults injected into four different stages while
//! a concurrent reader hammers the serve front — queries must never
//! observe a torn generation; the incremental `A^s` repair must stay
//! bitwise identical to a full grid-join rebuild at 1 and 4 threads; and
//! a killed pipeline must resume to the same state a continuous run
//! reaches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sarn_core::{SarnConfig, SpatialJoin, SpatialSimilarity, SpatialSimilarityConfig};
use sarn_durable::TempDir;
use sarn_pipeline::{Pipeline, PipelineConfig, PipelineFault, PipelineFaultKind};
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_serve::{ServeConfig, ServeState};
use sarn_sys_tests::mixed_batch;

fn net() -> RoadNetwork {
    SynthConfig::city(City::Chengdu).scaled(0.22).generate()
}

/// A config over a fresh state directory, which lives as long as the
/// returned guard.
fn pipeline_cfg(name: &str, serve: ServeConfig) -> (TempDir, PipelineConfig) {
    let dir = TempDir::new(&format!("sys-pipeline-{name}")).expect("state dir");
    let mut train = SarnConfig::tiny();
    train.max_epochs = 2;
    train.checkpoint_every = 1;
    train.checkpoint_dir = Some(dir.path().join("ckpt"));
    let mut cfg = PipelineConfig::new(train, serve, dir.path());
    cfg.stage_backoff = Duration::from_millis(1);
    (dir, cfg)
}

/// Batch `k`'s wire bytes, with added keys from 10,000 up.
fn batch_bytes(p: &Pipeline, k: u64) -> Vec<u8> {
    mixed_batch(p.live(), k, 10_000).encode()
}

/// Asserts the incrementally repaired `A^s` is bitwise identical to full
/// rebuilds: grid join at 1 and 4 threads, plus the all-pairs reference
/// oracle.
fn assert_bitwise_repair(p: &Pipeline) {
    let base = SpatialSimilarityConfig::default();
    for (join, threads) in [
        (SpatialJoin::Grid, 1),
        (SpatialJoin::Grid, 4),
        (SpatialJoin::Reference, 1),
    ] {
        sarn_par::set_num_threads(threads);
        let rebuilt = SpatialSimilarity::build(
            p.live().network(),
            &SpatialSimilarityConfig { join, ..base },
        );
        assert_eq!(
            p.live().spatial_edges(),
            rebuilt.edges(),
            "incremental repair diverged from a {} rebuild at {threads} threads",
            join.label(),
        );
    }
    sarn_par::set_num_threads(1);
}

#[test]
fn faulted_online_run_never_serves_a_torn_generation() {
    // Faults in four distinct stages across the run.
    let serve = ServeConfig {
        max_staleness: Some(Duration::from_secs(120)),
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (_dir, mut cfg) = pipeline_cfg("faulted", serve);
    cfg.faults = vec![
        PipelineFault {
            batch: 1,
            kind: PipelineFaultKind::CorruptEditRecord,
        },
        PipelineFault {
            batch: 1,
            kind: PipelineFaultKind::TornExport,
        },
        PipelineFault {
            batch: 2,
            kind: PipelineFaultKind::ReloadIoFault,
        },
        PipelineFault {
            batch: 3,
            kind: PipelineFaultKind::DivergingRetrain,
        },
    ];
    let mut p = Pipeline::new(cfg, net()).expect("bootstrap");

    // Concurrent reader: every successful answer must be internally
    // consistent — full-width finite rows from a single generation. A
    // torn swap (half old store, half new) would surface as a width
    // mismatch, a non-finite value, or an out-of-range row.
    let front = p.front();
    let stop = Arc::new(AtomicBool::new(false));
    let queries_ok = Arc::new(AtomicU64::new(0));
    let reader = {
        let front = Arc::clone(&front);
        let stop = Arc::clone(&stop);
        let queries_ok = Arc::clone(&queries_ok);
        std::thread::spawn(move || {
            let mut seg = 0usize;
            while !stop.load(Ordering::Acquire) {
                let Some(store) = front.store() else { continue };
                let n = store.num_segments();
                let dim = store.dim();
                seg = (seg + 1) % n;
                // A failure here is a typed ServeError (never a panic or
                // a garbage row); a success must be internally consistent.
                if let Ok(emb) = store.embedding(seg, store.deadline()) {
                    assert_eq!(emb.len(), dim, "torn row width");
                    assert!(emb.iter().all(|v| v.is_finite()), "non-finite value served");
                    queries_ok.fetch_add(1, Ordering::Relaxed);
                }
                // Health must never report a torn or stale generation.
                let health = store.health();
                assert!(
                    !matches!(health.state, ServeState::Stale { .. }),
                    "staleness SLO breached mid-run: {health}"
                );
            }
        })
    };

    let mut fallbacks = 0;
    for k in 1..=3u64 {
        let bytes = batch_bytes(&p, k);
        let report = p.process_batch(&bytes).expect("faulted batch absorbed");
        assert_eq!(report.ordinal, k);
        assert_eq!(report.generation, k + 1);
        if report.used_fallback {
            fallbacks += 1;
        }
    }
    stop.store(true, Ordering::Release);
    reader.join().expect("reader thread");

    assert_eq!(fallbacks, 1, "exactly the diverging batch fell back");
    assert!(
        queries_ok.load(Ordering::Relaxed) > 0,
        "the reader never got a successful query in"
    );
    assert_eq!(p.generation(), 4);
    let health = front.health().expect("serving");
    assert!(
        matches!(health.state, ServeState::Serving { .. }),
        "pipeline ended unhealthy: {health}"
    );
    assert_bitwise_repair(&p);
}

#[test]
fn killed_pipeline_resumes_to_the_same_state_as_a_continuous_run() {
    let serve = ServeConfig::default();
    let (_continuous_dir, continuous_cfg) = pipeline_cfg("continuous", serve);
    let (_resumed_dir, resumed_cfg) = pipeline_cfg("resumed", serve);
    let continuous_dir = continuous_cfg.state_dir.clone();
    let resumed_dir = resumed_cfg.state_dir.clone();

    // Continuous run: bootstrap + 4 batches.
    let mut continuous = Pipeline::new(continuous_cfg, net()).expect("bootstrap");
    let mut log: Vec<Vec<u8>> = Vec::new();
    for k in 1..=4u64 {
        let bytes = batch_bytes(&continuous, k);
        continuous.process_batch(&bytes).expect("batch");
        log.push(bytes);
    }

    // Killed run: same batches, dropped cold after 2, resumed, finished.
    let mut killed = Pipeline::new(resumed_cfg.clone(), net()).expect("bootstrap");
    killed.process_batch(&log[0]).expect("batch 1");
    killed.process_batch(&log[1]).expect("batch 2");
    drop(killed); // the "kill": all in-memory state is gone
    let mut revived = Pipeline::resume(resumed_cfg, net(), &log).expect("resume");
    assert_eq!(revived.completed(), 2, "two batches were durable");
    for bytes in &log[2..] {
        revived.process_batch(bytes).expect("batch after resume");
    }

    // Both lineages converge: same generation, bitwise-identical A^t,
    // A^s, and final exported artifact.
    assert_eq!(revived.generation(), continuous.generation());
    assert_eq!(
        revived.live().network().topo_edges(),
        continuous.live().network().topo_edges()
    );
    assert_eq!(
        revived.live().spatial_edges(),
        continuous.live().spatial_edges()
    );
    assert_bitwise_repair(&revived);
    let final_gen = continuous.generation();
    let load = |dir: &std::path::Path| {
        sarn_tensor::Tensor::load(dir.join(format!("gen-{final_gen:06}.emb")))
            .expect("final artifact")
    };
    let a = load(&continuous_dir);
    let b = load(&resumed_dir);
    assert_eq!(a.shape(), b.shape());
    assert_eq!(a.data(), b.data(), "resumed lineage diverged bitwise");
}

#[test]
fn staleness_slo_fires_on_a_stalled_pipeline_and_clears_on_the_next_batch() {
    let serve = ServeConfig {
        max_staleness: Some(Duration::from_millis(30)),
        ..ServeConfig::default()
    };
    let (_dir, cfg) = pipeline_cfg("stale", serve);
    let mut p = Pipeline::new(cfg, net()).expect("bootstrap");
    std::thread::sleep(Duration::from_millis(60));
    let health = p.front().health().expect("serving");
    assert!(
        matches!(health.state, ServeState::Stale { .. }),
        "stalled pipeline should report Stale, got {health}"
    );
    // Processing a batch admits a fresh generation and clears the state.
    let bytes = batch_bytes(&p, 1);
    p.process_batch(&bytes).expect("batch");
    let health = p.front().health().expect("serving");
    assert!(
        matches!(health.state, ServeState::Serving { .. }),
        "fresh admission should clear staleness, got {health}"
    );
}
