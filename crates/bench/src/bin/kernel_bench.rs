//! Kernel and spatial-join benchmark (ROADMAP items 6 and 7).
//!
//! Measures, at the current `SARN_*` scale:
//!
//! 1. **`A^s` build time** — the spatial self-join per `SARN_SPATIAL_JOIN`
//!    mode (`grid` bucketed vs `reference` all-pairs): segments, edges,
//!    wall-clock, and the process peak-RSS high-water mark after each
//!    build. The grid join runs first so its RSS bound is read before the
//!    `O(n^2)` oracle can raise the water mark.
//! 2. **Training epoch time** — one full `train` run: total wall-clock
//!    and seconds per epoch.
//! 3. **Serve k-NN latency** — exact k-NN p50/p99 against the artifact
//!    that run published.
//!
//! `SARN_KERNEL_BENCH_LEGS` (comma list of `join`, `train`, `knn`;
//! default all) restricts the run — CI uses `join` alone for the
//! scale-2.0 crossover row, where a full training run would dominate the
//! gate's wall-clock.
//!
//! Emits machine-readable rows through the bench report machinery: run
//! with `SARN_REPORT_JSONL=BENCH_7.json` to produce the committed CI
//! artifact.

use std::time::{Duration, Instant};

use sarn_bench::{ExperimentScale, Table};
use sarn_core::{train, SpatialJoin, SpatialSimilarity};
use sarn_roadnet::City;
use sarn_serve::{Deadline, EmbeddingStore, ServeConfig};

const KNN_REPS: usize = 200;
const KNN_K: usize = 10;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn time_knn(mut run: impl FnMut(usize)) -> (f64, f64) {
    let mut samples = Vec::with_capacity(KNN_REPS);
    for i in 0..KNN_REPS {
        let t0 = Instant::now();
        run(i);
        samples.push(t0.elapsed());
    }
    samples.sort();
    (
        percentile(&samples, 0.50).as_secs_f64() * 1e6,
        percentile(&samples, 0.99).as_secs_f64() * 1e6,
    )
}

/// Which benchmark legs to run (`SARN_KERNEL_BENCH_LEGS`, comma list;
/// unknown names are ignored, empty/unset means all).
fn leg_enabled(name: &str) -> bool {
    match std::env::var("SARN_KERNEL_BENCH_LEGS") {
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

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);

    // Leg 0: the A^s spatial self-join, grid first so its peak-RSS row is
    // read before the all-pairs oracle can raise the high-water mark.
    if leg_enabled("join") {
        let mut join_table = Table::new(
            "spatial_join",
            &["mode", "segments", "edges", "build_ms", "peak_rss_mb"],
        );
        for join in [SpatialJoin::Grid, SpatialJoin::Reference] {
            let cfg = scale.sarn_config_for(&net, 1).with_spatial_join(join);
            eprintln!(
                "[kernel_bench] building A^s over {} segments, join={}",
                net.num_segments(),
                join.label()
            );
            let t0 = Instant::now();
            let sim = SpatialSimilarity::build(&net, &cfg.similarity);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            join_table.row(vec![
                join.label().to_string(),
                net.num_segments().to_string(),
                sim.num_edges().to_string(),
                format!("{build_ms:.2}"),
                peak_rss_mb(),
            ]);
        }
        join_table.print();
    }

    // Leg 1: one full training run.
    let mut artifact = None;
    if leg_enabled("train") {
        let mut epoch_table = Table::new(
            "kernel_epoch",
            &["threads", "epochs", "total_s", "s_per_epoch"],
        );
        let mut cfg = scale.sarn_config_for(&net, 1);
        cfg.patience = u32::MAX; // time every epoch, no early stop
        eprintln!(
            "[kernel_bench] training {} segments, {} epochs",
            net.num_segments(),
            cfg.max_epochs
        );
        let t0 = Instant::now();
        let trained = train(&net, &cfg);
        let total = t0.elapsed().as_secs_f64();
        let epochs = trained.epochs_run.max(1);
        epoch_table.row(vec![
            cfg.num_threads.to_string(),
            epochs.to_string(),
            format!("{total:.3}"),
            format!("{:.4}", total / epochs as f64),
        ]);
        artifact = Some(trained.embeddings);
        epoch_table.print();
    }

    if !leg_enabled("knn") {
        return;
    }

    // Leg 2: serve k-NN latency against one published artifact (trained
    // here if the train leg was skipped).
    let embeddings =
        artifact.unwrap_or_else(|| train(&net, &scale.sarn_config_for(&net, 1)).embeddings);
    let dir = std::env::temp_dir().join(format!("sarn_kernel_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the artifact directory");
    let path = dir.join("embeddings.emb");
    embeddings.save(&path).expect("saving the artifact");
    let serve_cfg = ServeConfig::from_env().expect("SARN_SERVE_* knobs");
    let store = EmbeddingStore::for_network(&net, embeddings.cols(), serve_cfg)
        .expect("building the store");
    store.reload(&path).expect("publishing the artifact");
    let n = net.num_segments();

    let mut knn_table = Table::new("kernel_knn", &["exact_p50_us", "exact_p99_us"]);
    let (exact_p50, exact_p99) = time_knn(|i| {
        store
            .knn(i % n, KNN_K, Deadline::unbounded())
            .expect("exact knn");
    });
    knn_table.row(vec![format!("{exact_p50:.1}"), format!("{exact_p99:.1}")]);
    knn_table.print();

    let _ = std::fs::remove_dir_all(&dir);
}
