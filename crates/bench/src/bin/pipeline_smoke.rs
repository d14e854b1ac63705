//! Online-pipeline fault-injection smoke + incremental-repair benchmark
//! (DESIGN.md §14).
//!
//! Two legs, both exiting non-zero on any breach or panic:
//!
//! 1. **Fault smoke** — bootstrap a pipeline, then drive four edit
//!    batches with one injected fault in every stage of the loop
//!    (corrupt edit record, torn export, reload I/O fault, diverging
//!    retrain, mid-repair crash). Each batch must land: the generation
//!    advances monotonically, the serve front stays healthy (never torn,
//!    never stale beyond the SLO), a probe query returns a full-width
//!    finite row, and at the end the incrementally repaired `A^s` must
//!    equal a from-scratch grid join bit for bit.
//! 2. **Incremental repair vs full rebuild** — apply the same edit
//!    stream through [`LiveNetwork`]'s localized re-joins and time it
//!    against rebuilding `A^s` from scratch, with the process peak-RSS
//!    high-water mark next to each row.
//!
//! `SARN_PIPELINE_SMOKE_LEGS` (comma list of `faults`, `repair`; default
//! all) restricts the run — CI adds a repair-only invocation at scale
//! 2.0, where the localized re-joins separate from the from-scratch
//! rebuild but a training run would dominate the gate's wall-clock.
//!
//! Emits machine-readable rows through the bench report machinery: run
//! with `SARN_REPORT_JSONL=BENCH_8.json` to produce the committed CI
//! artifact. Scale comes from the usual `SARN_*` knobs.

use std::time::{Duration, Instant};

use sarn_bench::{ExperimentScale, Table};
use sarn_core::{SpatialJoin, SpatialSimilarity, SpatialSimilarityConfig};
use sarn_durable::TempDir;
use sarn_geo::Point;
use sarn_pipeline::{
    EditBatch, LiveNetwork, NetworkEdit, Pipeline, PipelineConfig, PipelineFault, PipelineFaultKind,
};
use sarn_roadnet::{City, HighwayClass};
use sarn_serve::{ServeConfig, ServeState};

/// Breach: report and fail the CI step.
fn fail(msg: &str) -> ! {
    eprintln!("[pipeline_smoke] FAIL: {msg}");
    std::process::exit(1);
}

fn ensure(cond: bool, msg: &str) {
    if !cond {
        fail(msg);
    }
}

/// Which legs to run (`SARN_PIPELINE_SMOKE_LEGS`, comma list; unknown
/// names are ignored, empty/unset means all).
fn leg_enabled(name: &str) -> bool {
    match std::env::var("SARN_PIPELINE_SMOKE_LEGS") {
        Ok(v) if !v.trim().is_empty() => v.split(',').any(|l| l.trim() == name),
        _ => true,
    }
}

/// Process peak RSS in MB, or a dash where procfs is unavailable.
fn peak_rss_mb() -> String {
    match sarn_obs::peak_rss_bytes() {
        Some(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        None => "-".to_string(),
    }
}

/// Batch `k` (1-based): two adds hanging off existing geometry, one
/// removal, one reclass — every edit kind, deterministic anchors.
fn mixed_batch(live: &LiveNetwork, k: u64) -> EditBatch {
    let n = live.network().num_segments();
    let add = |key: u64, anchor: usize, dlat: f64, dlon: f64| {
        let s = live.network().segment(anchor);
        NetworkEdit::SegmentAdd {
            key,
            class: HighwayClass::Tertiary,
            start: s.end,
            end: Point {
                lat: s.end.lat + dlat,
                lon: s.end.lon + dlon,
            },
            in_neighbors: vec![live.key_of(anchor)],
            out_neighbors: vec![],
        }
    };
    EditBatch::new(vec![
        add(50_000 + 2 * k, (7 * k as usize + 3) % n, 4e-4, -2e-4),
        add(50_001 + 2 * k, (11 * k as usize + 19) % n, -3e-4, 3e-4),
        NetworkEdit::SegmentRemove {
            key: live.key_of((5 * k as usize + 31) % n),
        },
        NetworkEdit::ReclassSegment {
            key: live.key_of((3 * k as usize + 17) % n),
            class: HighwayClass::Primary,
        },
    ])
}

fn grid_cfg(sim: &SpatialSimilarityConfig) -> SpatialSimilarityConfig {
    SpatialSimilarityConfig {
        join: SpatialJoin::Grid,
        ..*sim
    }
}

fn fault_smoke(scale: &ExperimentScale) {
    let net = scale.network(City::Chengdu);
    let state_dir = TempDir::new("pipeline-smoke").expect("creating the state directory");

    let mut train = scale.sarn_config_for(&net, 1);
    train.checkpoint_every = 1;
    train.checkpoint_dir = Some(state_dir.path().join("ckpt"));
    let serve = ServeConfig {
        max_staleness: Some(Duration::from_secs(600)),
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::from_env().expect("SARN_SERVE_* knobs")
    };
    let mut cfg = PipelineConfig::new(train, serve, state_dir.path());
    cfg.stage_backoff = Duration::from_millis(1);
    // One fault in every stage of the loop, spread across the batches.
    let faults = [
        (1, PipelineFaultKind::CorruptEditRecord),
        (1, PipelineFaultKind::TornExport),
        (2, PipelineFaultKind::ReloadIoFault),
        (3, PipelineFaultKind::DivergingRetrain),
        (4, PipelineFaultKind::MidRepairCrash),
    ];
    cfg.faults = faults
        .iter()
        .map(|&(batch, kind)| PipelineFault { batch, kind })
        .collect();
    let sim = cfg.train.similarity;

    eprintln!(
        "[pipeline_smoke] bootstrapping over {} segments, {} faults scheduled",
        net.num_segments(),
        faults.len()
    );
    let mut p = match Pipeline::new(cfg, net) {
        Ok(p) => p,
        Err(e) => fail(&format!("bootstrap failed: {e}")),
    };

    let mut table = Table::new(
        "pipeline_smoke",
        &["batch", "faults", "generation", "fallback", "health"],
    );
    for k in 1..=4u64 {
        let bytes = mixed_batch(p.live(), k).encode();
        let report = match p.process_batch(&bytes) {
            Ok(r) => r,
            Err(e) => fail(&format!("batch {k} was not absorbed: {e}")),
        };
        ensure(report.generation == k + 1, "generation did not advance");
        let store = p
            .front()
            .store()
            .unwrap_or_else(|| fail("no store after batch"));
        ensure(
            store.num_segments() == p.live().network().num_segments(),
            "serve geometry lags the edited network",
        );
        let row = store
            .embedding(0, store.deadline())
            .unwrap_or_else(|e| fail(&format!("probe query failed: {e}")));
        ensure(row.len() == store.dim(), "torn row width served");
        ensure(row.iter().all(|v| v.is_finite()), "non-finite value served");
        let health = store.health();
        ensure(
            matches!(health.state, ServeState::Serving { .. }),
            &format!("unhealthy after batch {k}: {health}"),
        );
        let labels: Vec<&str> = faults
            .iter()
            .filter(|&&(b, _)| b == k)
            .map(|&(_, kind)| kind.label())
            .collect();
        table.row(vec![
            k.to_string(),
            if labels.is_empty() {
                "-".to_string()
            } else {
                labels.join("+")
            },
            report.generation.to_string(),
            report.used_fallback.to_string(),
            format!("{:?}", health.state),
        ]);
    }

    // After all the sabotage, the incremental A^s must still equal a
    // from-scratch grid join bit for bit.
    let rebuilt = SpatialSimilarity::build(p.live().network(), &grid_cfg(&sim));
    ensure(
        p.live().spatial_edges() == rebuilt.edges(),
        "incremental A^s diverged from the full rebuild",
    );
    table.print();
}

fn repair_bench(scale: &ExperimentScale) {
    let net = scale.network(City::Chengdu);
    let sim = grid_cfg(&scale.sarn_config_for(&net, 1).similarity);
    let n0 = net.num_segments();
    const BATCHES: u64 = 16;

    eprintln!("[pipeline_smoke] incremental repair over {n0} segments, {BATCHES} batches");
    let mut live = LiveNetwork::new(net, &sim);
    let mut edits = 0usize;
    let t0 = Instant::now();
    for k in 1..=BATCHES {
        let batch = mixed_batch(&live, k);
        edits += batch.edits.len();
        if let Err(e) = live.apply(&batch) {
            fail(&format!("repair batch {k} rejected: {e}"));
        }
    }
    let incremental_ms = t0.elapsed().as_secs_f64() * 1e3;
    let incremental_rss = peak_rss_mb();

    let t1 = Instant::now();
    let rebuilt = SpatialSimilarity::build(live.network(), &sim);
    let rebuild_ms = t1.elapsed().as_secs_f64() * 1e3;
    ensure(
        live.spatial_edges() == rebuilt.edges(),
        "incremental A^s diverged from the full rebuild",
    );

    // `build_ms` totals all BATCHES batches for the incremental mode but
    // a single from-scratch join for the rebuild mode; `ms_per_batch` is
    // the apples-to-apples cost of keeping A^s current after one batch
    // under each strategy.
    let mut table = Table::new(
        "incremental_repair",
        &[
            "mode",
            "segments",
            "edits",
            "build_ms",
            "ms_per_batch",
            "peak_rss_mb",
        ],
    );
    table.row(vec![
        "incremental".to_string(),
        live.network().num_segments().to_string(),
        edits.to_string(),
        format!("{incremental_ms:.2}"),
        format!("{:.2}", incremental_ms / BATCHES as f64),
        incremental_rss,
    ]);
    table.row(vec![
        "full_rebuild".to_string(),
        live.network().num_segments().to_string(),
        edits.to_string(),
        format!("{rebuild_ms:.2}"),
        format!("{rebuild_ms:.2}"),
        peak_rss_mb(),
    ]);
    table.print();
}

fn main() {
    let scale = ExperimentScale::from_env();
    if leg_enabled("faults") {
        fault_smoke(&scale);
    }
    if leg_enabled("repair") {
        repair_bench(&scale);
    }
    eprintln!("[pipeline_smoke] ok");
}
