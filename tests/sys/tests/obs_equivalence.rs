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
//! nothing.

use sarn_core::{train, SarnConfig};
use sarn_durable::TempDir;
use sarn_obs::ObsConfig;
use sarn_roadnet::{City, SynthConfig};

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
    let prom = std::fs::read_to_string(dir.path().join(sarn_obs::PROMETHEUS_FILE))
        .expect("instrumented run exported metrics.prom");
    let samples = sarn_obs::parse_prometheus(&prom).expect("exported Prometheus text parses");
    let epochs = samples
        .iter()
        .find(|s| s.name == "sarn_train_epochs_total")
        .expect("sarn_train_epochs_total present")
        .value;
    assert!(
        epochs >= plain.epochs_run as f64,
        "epoch counter {epochs} below {} epochs run",
        plain.epochs_run
    );
    let json = std::fs::read_to_string(dir.path().join(sarn_obs::JSON_FILE))
        .expect("instrumented run exported metrics.json");
    sarn_obs::validate_json(&json).expect("exported JSON snapshot validates");
}

#[test]
fn telemetry_is_bitwise_invisible_to_serial_training() {
    assert_bitwise_equal_runs(1);
}

#[test]
fn telemetry_is_bitwise_invisible_to_parallel_training() {
    assert_bitwise_equal_runs(4);
}
