//! End-to-end smoke check of the telemetry subsystem, for CI.
//!
//! 1. **Overhead + equivalence leg.** Trains the same small SARN config
//!    twice — telemetry off, then on with an end-of-run export — and
//!    asserts the loss history and embeddings are bitwise identical (the
//!    deeper multi-thread version lives in the `obs_equivalence` sys
//!    test) while printing the measured per-epoch overhead for
//!    EXPERIMENTS.md.
//! 2. **Serving leg.** Publishes the artifact through an
//!    [`sarn_serve::EmbeddingStore`] (reload path, so reload telemetry
//!    fires) and answers 100 queries each of lookup and k-NN.
//! 3. **Artifact leg.** Re-exports and asserts the Prometheus text
//!    parses with the key training and serving series non-empty, the
//!    JSON snapshot validates, and every journal line is valid JSON.
//!
//! Honors the `SARN_*` training knobs; `SARN_OBS_DIR` overrides the
//! export directory. Exits non-zero on any breach or panic.

use sarn_bench::{fmt_cell, ExperimentScale, Table};
use sarn_core::train;
use sarn_durable::TempDir;
use sarn_obs::ObsConfig;
use sarn_roadnet::City;
use sarn_serve::{Deadline, EmbeddingStore, ServeConfig};

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);
    let mut cfg = scale.sarn_config_for(&net, 1);
    cfg.max_epochs = cfg.max_epochs.max(2);
    cfg.schedule_epochs = cfg.schedule_horizon();
    // Without SARN_OBS_DIR the exports go to a scratch dir removed on exit.
    let scratch;
    let dir = match &scale.obs.export_dir {
        Some(d) => d.clone(),
        None => {
            scratch = TempDir::new("obs-smoke").expect("creating the export directory");
            scratch.path().to_path_buf()
        }
    };

    // Leg 1a: baseline with telemetry off (the process default).
    let mut cfg_off = cfg.clone();
    cfg_off.obs = ObsConfig::default();
    sarn_obs::set_enabled(false);
    eprintln!(
        "[obs_smoke] leg 1: training {} segments x {} epochs, telemetry off",
        net.num_segments(),
        cfg.max_epochs
    );
    let off = train(&net, &cfg_off);

    // Leg 1b: identical run with telemetry on. Exporting only at the end
    // of training (`export_every: 0`) isolates the *recording* overhead —
    // the contract in DESIGN.md §11 — from the per-epoch fsync cost of
    // the optional periodic file exports.
    eprintln!(
        "[obs_smoke] leg 1: same run, telemetry on -> {}",
        dir.display()
    );
    let cfg_on = cfg.clone().with_obs(ObsConfig {
        export_dir: Some(dir.clone()),
        export_every: 0,
        ..ObsConfig::default()
    });
    let on = train(&net, &cfg_on);

    assert_eq!(
        off.loss_history, on.loss_history,
        "telemetry perturbed the loss history"
    );
    assert_eq!(
        off.embeddings.data(),
        on.embeddings.data(),
        "telemetry perturbed the embeddings"
    );
    let epochs = on.epochs_run.max(1) as f64;
    let (off_epoch, on_epoch) = (off.train_seconds / epochs, on.train_seconds / epochs);
    let overhead_pct = (on_epoch - off_epoch) / off_epoch * 100.0;

    // Leg 2: serve 100 queries per path through the instrumented store.
    eprintln!("[obs_smoke] leg 2: serving 2 x 100 queries");
    std::fs::create_dir_all(&dir).expect("creating the export directory");
    let artifact = dir.join("embeddings.emb");
    on.embeddings.save(&artifact).expect("saving the artifact");
    let serve_cfg = ServeConfig::from_env().expect("SARN_SERVE_* knobs");
    let store = EmbeddingStore::for_network(&net, cfg.d, serve_cfg).expect("building store");
    store.reload(&artifact).expect("initial reload");
    let n = net.num_segments();
    const QUERIES: usize = 100;
    for i in 0..QUERIES {
        store
            .embedding(i % n, Deadline::unbounded())
            .expect("lookup");
        store.knn(i % n, 5, Deadline::unbounded()).expect("knn");
    }
    let health = store.health();
    assert_eq!(health.reloads_ok, 1);
    let snap_in_health = health
        .metrics
        .expect("telemetry is on: health carries metrics");
    assert!(snap_in_health.counter("sarn_serve_reloads_ok_total") >= Some(1));

    // The summary table also exercises the bench JSONL emitter.
    let mut table = Table::new(
        "obs_smoke: per-epoch overhead",
        &["Telemetry", "s/epoch", "Overhead"],
    );
    table.row(vec!["off".into(), fmt_cell(&[off_epoch]), "-".into()]);
    table.row(vec![
        "on".into(),
        fmt_cell(&[on_epoch]),
        format!("{overhead_pct:+.2}%"),
    ]);
    table.print();

    // Leg 3: final export, then parse everything back.
    sarn_obs::export_all(&dir).expect("final export");
    let prom_path = dir.join(sarn_obs::PROMETHEUS_FILE);
    let prom = std::fs::read_to_string(&prom_path).expect("reading metrics.prom");
    let samples = sarn_obs::parse_prometheus(&prom).expect("metrics.prom must parse");
    let value_of = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("series `{name}` missing from {}", prom_path.display()))
            .value
    };
    assert!(
        value_of("sarn_train_epochs_total") >= cfg.max_epochs.min(on.epochs_run) as f64,
        "training epochs series too small"
    );
    assert!(value_of("sarn_train_epoch_seconds_count") >= 2.0);
    assert!(value_of("sarn_train_batch_seconds_count") > 0.0);
    assert!(value_of("sarn_serve_reloads_ok_total") >= 1.0);
    for series in [
        "sarn_serve_lookup_seconds_count",
        "sarn_serve_knn_exact_seconds_count",
    ] {
        assert!(
            value_of(series) >= QUERIES as f64,
            "{series} below the {QUERIES} issued queries"
        );
    }

    let json =
        std::fs::read_to_string(dir.join(sarn_obs::JSON_FILE)).expect("reading metrics.json");
    sarn_obs::validate_json(&json).expect("metrics.json must be valid JSON");
    assert!(json.contains("sarn_train_epochs_total"));

    let events =
        std::fs::read_to_string(dir.join(sarn_obs::EVENTS_FILE)).expect("reading events.jsonl");
    let mut kinds = std::collections::BTreeSet::new();
    for line in events.lines() {
        sarn_obs::validate_json(line).expect("every journal line must be valid JSON");
        for kind in ["epoch_summary", "reload_ok", "bench_row"] {
            if line.contains(&format!("\"type\":\"{kind}\"")) {
                kinds.insert(kind);
            }
        }
    }
    for kind in ["epoch_summary", "reload_ok", "bench_row"] {
        assert!(kinds.contains(kind), "no `{kind}` event in events.jsonl");
    }

    println!(
        "obs_smoke OK: {} prom series, {} journal lines, per-epoch {:.3}s off vs {:.3}s on ({overhead_pct:+.2}%)",
        samples.len(),
        events.lines().count(),
        off_epoch,
        on_epoch,
    );
}
