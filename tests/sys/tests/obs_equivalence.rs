//! Telemetry must not perturb training.
//!
//! The observability contract (`crates/obs`, DESIGN.md §11) is that
//! recording only ever *reads* training state: counters, gauges, spans
//! and journal events never touch parameters, RNG streams, or the
//! accumulation order. These tests train the same small synthetic city
//! with telemetry off and then on (with per-epoch file exports, the most
//! invasive configuration) and assert the runs are **bitwise identical**
//! — at one worker thread and at four, since span timers wrap the
//! parallel sections too. A third check asserts the exports the
//! instrumented leg wrote actually parse and carry the training series,
//! so the equivalence is not won by telemetry silently recording
//! nothing. A last check serves the instrumented artifact and requires
//! the serving series and journal events in a fresh export.

use std::path::Path;

use sarn_core::{train, SarnConfig};
use sarn_durable::TempDir;
use sarn_obs::{ObsConfig, PromSample};
use sarn_roadnet::{City, SynthConfig};
use sarn_serve::{Deadline, EmbeddingStore, ServeConfig};

/// Lookups and k-NN queries the serving check issues, each.
const QUERIES: usize = 100;

/// Reads and parses the Prometheus export in `dir`.
fn exported_samples(dir: &Path) -> Vec<PromSample> {
    let prom = std::fs::read_to_string(dir.join(sarn_obs::PROMETHEUS_FILE))
        .expect("metrics.prom exported");
    sarn_obs::parse_prometheus(&prom).expect("exported Prometheus text parses")
}

/// The value of series `name`, which must be exported.
fn value_of(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the export"))
        .value
}

fn assert_bitwise_equal_runs(threads: usize) {
    let net = SynthConfig::city(City::Chengdu).scaled(0.22).generate();
    let mut cfg = SarnConfig::tiny().with_num_threads(threads);
    cfg.max_epochs = 3;

    // Telemetry-off leg first: the global enable flag is sticky, so the
    // instrumented leg must come second within the process.
    let plain = train(&net, &cfg);

    let dir = TempDir::new(&format!("obs-equiv-t{threads}")).expect("temp dir");
    let instrumented = train(
        &net,
        &cfg.clone().with_obs(ObsConfig {
            export_dir: Some(dir.path().to_path_buf()),
            export_every: 1,
            ..ObsConfig::default()
        }),
    );

    assert_eq!(plain.epochs_run, instrumented.epochs_run);
    assert_eq!(
        plain.loss_history, instrumented.loss_history,
        "telemetry changed the loss history at {threads} thread(s)"
    );
    assert_eq!(
        plain.embeddings.data(),
        instrumented.embeddings.data(),
        "telemetry changed the embeddings at {threads} thread(s)"
    );

    // The instrumented leg must have really recorded: its exports parse
    // and carry the per-epoch training series.
    let epochs = value_of(&exported_samples(dir.path()), "sarn_train_epochs_total");
    assert!(
        epochs >= plain.epochs_run as f64,
        "epoch counter {epochs} below {} epochs run",
        plain.epochs_run
    );
    let json = std::fs::read_to_string(dir.path().join(sarn_obs::JSON_FILE))
        .expect("instrumented run exported metrics.json");
    sarn_obs::validate_json(&json).expect("exported JSON snapshot validates");

    // Serving records too: reload the artifact into a store, query it,
    // and find the serving series and journal events, next to the
    // training ones, in a fresh export.
    let artifact = dir.path().join("embeddings.emb");
    instrumented
        .embeddings
        .save(&artifact)
        .expect("saving the artifact");
    let store = EmbeddingStore::for_network(&net, cfg.d, ServeConfig::default())
        .expect("building the store");
    store.reload(&artifact).expect("reloading the artifact");
    let n = net.num_segments();
    for i in 0..QUERIES {
        store
            .embedding(i % n, Deadline::unbounded())
            .expect("lookup");
        store.knn(i % n, 5, Deadline::unbounded()).expect("knn");
    }
    let metrics = store
        .health()
        .metrics
        .expect("telemetry is on: health carries metrics");
    assert!(metrics.counter("sarn_serve_reloads_ok_total") >= Some(1));
    sarn_obs::export_all(dir.path()).expect("re-exporting");
    let samples = exported_samples(dir.path());
    assert!(value_of(&samples, "sarn_train_epoch_seconds_count") >= plain.epochs_run as f64);
    assert!(value_of(&samples, "sarn_train_batch_seconds_count") > 0.0);
    for series in [
        "sarn_serve_lookup_seconds_count",
        "sarn_serve_knn_exact_seconds_count",
    ] {
        let value = value_of(&samples, series);
        assert!(
            value >= QUERIES as f64,
            "{series} = {value}, below the {QUERIES} issued queries"
        );
    }
    let events = std::fs::read_to_string(dir.path().join(sarn_obs::EVENTS_FILE))
        .expect("re-exported events.jsonl");
    for line in events.lines() {
        sarn_obs::validate_json(line).expect("every journal line is valid JSON");
    }
    for kind in ["epoch_summary", "reload_ok"] {
        assert!(
            events
                .lines()
                .any(|line| line.contains(&format!("\"type\":\"{kind}\""))),
            "no `{kind}` event in events.jsonl"
        );
    }
}

#[test]
fn telemetry_is_bitwise_invisible_to_serial_training() {
    assert_bitwise_equal_runs(1);
}

#[test]
fn telemetry_is_bitwise_invisible_to_parallel_training() {
    assert_bitwise_equal_runs(4);
}
