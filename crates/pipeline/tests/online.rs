//! Integration tests of the online pipeline's happy path, fault
//! recovery, and crash-resume contract.

use std::time::Duration;

use sarn_core::{SarnConfig, SpatialJoin, SpatialSimilarity, SpatialSimilarityConfig};
use sarn_durable::TempDir;
use sarn_geo::Point;
use sarn_pipeline::{
    Cursor, EditBatch, NetworkEdit, Pipeline, PipelineConfig, PipelineFault, PipelineFaultKind,
    Stage,
};
use sarn_roadnet::{City, HighwayClass, RoadNetwork, SynthConfig};
use sarn_serve::ServeConfig;

fn net() -> RoadNetwork {
    SynthConfig::city(City::Chengdu).scaled(0.12).generate()
}

fn train_cfg(state_dir: &std::path::Path) -> SarnConfig {
    let mut cfg = SarnConfig::tiny();
    cfg.max_epochs = 2;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_dir = Some(state_dir.join("ckpt"));
    cfg
}

/// A config over a fresh state directory, which lives as long as the
/// returned guard.
fn pipeline_cfg(name: &str) -> (TempDir, PipelineConfig) {
    let dir = TempDir::new(&format!("pipeline-{name}")).expect("state dir");
    let mut cfg = PipelineConfig::new(train_cfg(dir.path()), ServeConfig::default(), dir.path());
    cfg.stage_backoff = Duration::from_millis(1);
    (dir, cfg)
}

/// A batch adding one segment hanging off segment index `nb`, removing
/// one, and reclassifying one — every edit kind in play.
fn mixed_batch(p: &Pipeline, fresh_key: u64) -> Vec<u8> {
    let live = p.live();
    let s = live.network().segment(3);
    EditBatch::new(vec![
        NetworkEdit::SegmentAdd {
            key: fresh_key,
            class: HighwayClass::Secondary,
            start: s.end,
            end: Point {
                lat: s.end.lat + 5e-4,
                lon: s.end.lon + 2e-4,
            },
            in_neighbors: vec![live.key_of(3)],
            out_neighbors: vec![],
        },
        NetworkEdit::SegmentRemove {
            key: live.key_of(10),
        },
        NetworkEdit::ReclassSegment {
            key: live.key_of(5),
            class: HighwayClass::Motorway,
        },
    ])
    .encode()
}

fn assert_index_matches_rebuild(p: &Pipeline) {
    let cfg = SpatialSimilarityConfig {
        join: SpatialJoin::Grid,
        ..SpatialSimilarityConfig::default()
    };
    let rebuilt = SpatialSimilarity::build(p.live().network(), &cfg);
    assert_eq!(p.live().spatial_edges(), rebuilt.edges());
}

#[test]
fn processes_batches_and_serves_monotone_generations() {
    let (_dir, cfg) = pipeline_cfg("happy");
    let mut p = Pipeline::new(cfg, net()).expect("bootstrap");
    assert_eq!(p.generation(), 1);
    let store = p.front().store().expect("bootstrap store");
    assert_eq!(store.num_segments(), p.live().network().num_segments());

    let r1 = p.process_batch(&mixed_batch(&p, 900)).expect("batch 1");
    assert_eq!((r1.ordinal, r1.generation), (1, 2));
    assert!(!r1.used_fallback);
    assert_eq!(r1.stats.added, 1);
    assert_eq!(r1.stats.removed, 1);
    assert_eq!(r1.stats.reclassed, 1);

    let r2 = p.process_batch(&mixed_batch(&p, 901)).expect("batch 2");
    assert_eq!((r2.ordinal, r2.generation), (2, 3));
    assert_index_matches_rebuild(&p);

    // The serve front tracks the edited network's size, and queries work.
    let store = p.front().store().expect("serving");
    assert_eq!(store.num_segments(), p.live().network().num_segments());
    let emb = store
        .embedding(0, store.deadline())
        .expect("query after swaps");
    assert_eq!(emb.len(), store.dim());
}

#[test]
fn every_fault_kind_is_absorbed_without_losing_a_generation() {
    let (_dir, mut cfg) = pipeline_cfg("faults");
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
            kind: PipelineFaultKind::MidRepairCrash,
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
    let r1 = p
        .process_batch(&mixed_batch(&p, 910))
        .expect("corrupt+torn absorbed");
    assert!(!r1.used_fallback);
    let r2 = p
        .process_batch(&mixed_batch(&p, 911))
        .expect("repair crash and reload fault absorbed");
    assert_eq!(r2.generation, 3);
    // The diverging retrain falls back to last-known-good parameters
    // instead of failing the batch.
    let r3 = p
        .process_batch(&mixed_batch(&p, 912))
        .expect("divergence absorbed");
    assert!(r3.used_fallback, "diverging retrain must use the fallback");
    assert_eq!(p.generation(), 4);
    assert_index_matches_rebuild(&p);
    let store = p.front().store().expect("still serving");
    store
        .embedding(1, store.deadline())
        .expect("fallback embeddings serve");
}

#[test]
fn mid_repair_crash_then_resume_reaches_the_same_state() {
    let (_dir, mut cfg) = pipeline_cfg("crash");
    cfg.faults = vec![PipelineFault {
        batch: 2,
        kind: PipelineFaultKind::MidRepairCrash,
    }];
    // Max retries 0: the injected crash is fatal, like a real kill.
    cfg.max_stage_retries = 0;
    let resume_cfg = {
        let mut c = cfg.clone();
        c.faults.clear();
        c.max_stage_retries = 2;
        c
    };
    let mut p = Pipeline::new(cfg, net()).expect("bootstrap");
    let b1 = mixed_batch(&p, 920);
    p.process_batch(&b1).expect("batch 1");
    let b2 = mixed_batch(&p, 921);
    let err = p.process_batch(&b2).expect_err("injected crash");
    assert!(
        err.to_string().contains("injected crash"),
        "unexpected error: {err}"
    );
    drop(p);

    // Resume from durable state: batch 1 replays (no retrain), batch 2
    // is redone in full.
    let batches = vec![b1, b2.clone()];
    let mut p = Pipeline::resume(resume_cfg, net(), &batches).expect("resume");
    assert_eq!(p.completed(), 1, "batch 1 survived the crash");
    assert_eq!(p.generation(), 2);
    let r2 = p.process_batch(&b2).expect("batch 2 after resume");
    assert_eq!(r2.generation, 3);
    assert_index_matches_rebuild(&p);
}

#[test]
fn sharded_front_serves_routed_queries_and_swaps_shards_in_place() {
    let (_dir, mut cfg) = pipeline_cfg("sharded");
    cfg.serve_shards = 4;
    cfg.faults = vec![PipelineFault {
        batch: 1,
        kind: PipelineFaultKind::ReloadIoFault,
    }];
    let mut p = Pipeline::new(cfg, net()).expect("bootstrap");
    assert!(
        p.front().store().is_none(),
        "sharded mode must not expose a single-store front"
    );
    let router = p.front().router().expect("bootstrap router");
    assert!(router.sharded().num_shards() > 1, "partition collapsed");
    let knn = router.knn(0, 5, router.deadline()).expect("routed query");
    assert!(knn.coverage.complete(), "healthy fan-out must be complete");
    assert_eq!(knn.neighbors.len(), 5);

    // The mixed batch keeps the segment count (one add, one remove), so
    // the reload stage must swap shards in place on the SAME router —
    // absorbing the injected reload fault on its first attempt — instead
    // of rebuilding the front.
    let r1 = p.process_batch(&mixed_batch(&p, 940)).expect("batch 1");
    assert_eq!(r1.generation, 2);
    let after = p.front().router().expect("still routing");
    assert!(
        std::sync::Arc::ptr_eq(&router, &after),
        "same-geometry batch must hot-swap shards, not rebuild the router"
    );
    let knn = after.knn(1, 3, after.deadline()).expect("query after swap");
    assert!(knn.coverage.complete());
    let health = p.front().health().expect("sharded health");
    assert_eq!(
        health.shards.len(),
        after.sharded().num_shards(),
        "health must carry one row per shard"
    );
}

#[test]
fn resume_after_export_skips_retraining_and_just_reloads() {
    let (_dir, cfg) = pipeline_cfg("exported");
    let state_dir = cfg.state_dir.clone();
    let mut p = Pipeline::new(cfg.clone(), net()).expect("bootstrap");
    let b1 = mixed_batch(&p, 930);
    p.process_batch(&b1).expect("batch 1");
    drop(p);

    // Simulate a crash between export and reload of batch 1: the gen-2
    // artifact is on disk, but the cursor claims the batch never finished.
    Cursor {
        completed: 0,
        inflight: Some(Stage::Exported),
        generation: 1,
    }
    .save(&state_dir.join("pipeline.cursor"))
    .expect("rewind cursor");
    let ckpt_dir = state_dir.join("ckpt");
    let mut checkpoints_before: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .expect("ckpt dir")
        .map(|e| e.expect("entry").path())
        .collect();
    checkpoints_before.sort();

    let p = Pipeline::resume(cfg, net(), &[b1]).expect("resume");
    assert_eq!(p.completed(), 1, "exported batch completed on resume");
    assert_eq!(p.generation(), 2);
    let store = p.front().store().expect("serving after resume");
    assert_eq!(store.num_segments(), p.live().network().num_segments());
    // No retraining happened: the checkpoint directory is untouched.
    let mut checkpoints_after: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .expect("ckpt dir")
        .map(|e| e.expect("entry").path())
        .collect();
    checkpoints_after.sort();
    assert_eq!(checkpoints_after, checkpoints_before);
    assert_index_matches_rebuild(&p);
}
