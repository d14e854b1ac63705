//! End-to-end fault-injection smoke check of the embedding serving
//! subsystem, for CI.
//!
//! Trains a small SARN run, publishes its embedding artifact through an
//! [`sarn_serve::EmbeddingStore`], then attacks the serving contract the
//! way production would:
//!
//! 1. **Corrupt reload** — garbage and truncated artifacts, plus injected
//!    failing I/O, must each surface as typed errors while the
//!    last-known-good generation keeps answering bit-identically and the
//!    health report turns degraded. A transient injected fault within the
//!    retry budget must be outlasted.
//! 2. **Good reload** — a fresh artifact must flip queries atomically to
//!    the new generation and clear the degradation.
//! 3. **Overload burst** — saturating the admission budget must shed with
//!    `ServeError::Overloaded`, and k-NN must answer again once the burst
//!    drains.
//!
//! Prints lookup / k-NN latency numbers for EXPERIMENTS.md. Honors the
//! `SARN_*` training knobs and the `SARN_SERVE_*` serving knobs. Exits
//! non-zero on any contract breach or panic.

use std::time::{Duration, Instant};

use sarn_bench::ExperimentScale;
use sarn_core::train;
use sarn_durable::TempDir;
use sarn_roadnet::City;
use sarn_serve::{Deadline, EmbeddingStore, LoadFault, ServeConfig, ServeError, ServeState};
use sarn_tensor::IoError;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn time_queries(label: &str, mut run: impl FnMut(usize)) -> (Duration, Duration) {
    const REPS: usize = 200;
    let mut samples = Vec::with_capacity(REPS);
    for i in 0..REPS {
        let t0 = Instant::now();
        run(i);
        samples.push(t0.elapsed());
    }
    samples.sort();
    let (p50, p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
    println!(
        "[serve_smoke] {label}: p50 {:.1} us, p99 {:.1} us",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6
    );
    (p50, p99)
}

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);
    let cfg = scale.sarn_config_for(&net, 1);
    eprintln!(
        "[serve_smoke] training {} segments at d={} for the artifact",
        net.num_segments(),
        cfg.d
    );
    let trained = train(&net, &cfg);

    let dir = TempDir::new("serve-smoke").expect("creating the artifact directory");
    let path = dir.path().join("embeddings.emb");
    trained.embeddings.save(&path).expect("saving the artifact");

    let serve_cfg = ServeConfig::from_env().expect("SARN_SERVE_* knobs");
    let store = EmbeddingStore::for_network(&net, cfg.d, serve_cfg).expect("building the store");
    assert_eq!(store.health().state, ServeState::Loading);

    // Leg 1: first reload publishes generation 1.
    assert_eq!(store.reload(&path).expect("initial reload"), 1);
    let probe = net.num_segments() / 2;
    let baseline_emb = store
        .embedding(probe, Deadline::unbounded())
        .expect("baseline lookup");
    let baseline_knn = store
        .knn(probe, 10, Deadline::unbounded())
        .expect("baseline knn");
    assert_eq!(baseline_knn.generation, 1);

    // Leg 2: corrupt swaps. Garbage, truncation, and injected I/O faults
    // must each fail typed while generation 1 keeps answering.
    eprintln!("[serve_smoke] leg 2: corrupt-swap storm");
    let good_bytes = std::fs::read(&path).expect("reading the good artifact");
    std::fs::write(&path, b"garbage artifact").expect("corrupting");
    match store.reload(&path) {
        Err(ServeError::Load(IoError::BadMagic { .. })) => {}
        other => panic!("garbage reload: expected BadMagic, got {other:?}"),
    }
    std::fs::write(&path, &good_bytes[..good_bytes.len() / 3]).expect("truncating");
    match store.reload(&path) {
        Err(ServeError::Load(IoError::Truncated { .. })) => {}
        other => panic!("truncated reload: expected Truncated, got {other:?}"),
    }
    let health = store.health();
    assert!(
        matches!(health.state, ServeState::Degraded { generation: 1, .. }),
        "expected degraded health, got {health}"
    );
    assert_eq!(health.consecutive_reload_failures, 2);
    assert_eq!(
        store
            .embedding(probe, Deadline::unbounded())
            .expect("stale lookup"),
        baseline_emb,
        "corrupt reload changed served embeddings"
    );
    assert_eq!(
        store
            .knn(probe, 10, Deadline::unbounded())
            .expect("stale knn"),
        baseline_knn,
        "corrupt reload changed served neighbors"
    );

    // Restore the artifact but inject a transient I/O fault: bounded
    // retry must outlast it.
    std::fs::write(&path, &good_bytes).expect("restoring the artifact");
    let transient = serve_cfg.reload_retries.min(2) as u32;
    store.inject_fault(Some(LoadFault {
        fail_loads: transient,
        delay_ms: 1,
    }));
    let gen2 = store
        .reload(&path)
        .expect("transient injected fault must be outlasted by retry");
    assert_eq!(gen2, 2);
    store.inject_fault(None);

    // Leg 3: a genuinely new artifact flips the answers.
    eprintln!("[serve_smoke] leg 3: good reload flips generations");
    let mut shifted = trained.embeddings.clone();
    for v in shifted.data_mut() {
        *v += 0.25;
    }
    shifted.save(&path).expect("saving the shifted artifact");
    let gen3 = store.reload(&path).expect("good reload");
    assert_eq!(gen3, 3);
    let flipped = store
        .embedding(probe, Deadline::unbounded())
        .expect("flipped lookup");
    assert!(
        flipped
            .iter()
            .zip(&baseline_emb)
            .all(|(new, old)| (new - old - 0.25).abs() < 1e-6),
        "good reload did not atomically publish the new values"
    );
    assert_eq!(store.health().state, ServeState::Serving { generation: 3 });

    // Leg 4: overload burst. Saturate the budget -> typed shed; drained
    // -> k-NN answers again.
    eprintln!(
        "[serve_smoke] leg 4: overload burst at max_inflight={}",
        serve_cfg.max_inflight
    );
    let full: Vec<_> = (0..serve_cfg.max_inflight)
        .map(|i| {
            store
                .try_ticket()
                .unwrap_or_else(|e| panic!("ticket {i}: {e}"))
        })
        .collect();
    match store.knn(probe, 10, Deadline::unbounded()) {
        Err(ServeError::Overloaded { .. }) => {}
        other => panic!("saturated store: expected Overloaded, got {other:?}"),
    }
    assert!(matches!(store.health().state, ServeState::Shedding { .. }));
    drop(full);
    let recovered = store
        .knn(probe, 10, Deadline::unbounded())
        .expect("knn after the burst");
    assert_eq!(recovered.neighbors.len(), 10);

    // Leg 5: deadlines are typed, not best-effort.
    match store.knn(probe, 10, Deadline::within(Duration::ZERO)) {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("zero deadline: expected DeadlineExceeded, got {other:?}"),
    }

    // Latency numbers (single-threaded, against the live store).
    let n = net.num_segments();
    println!("[serve_smoke] latency over n={} segments, d={}:", n, cfg.d);
    time_queries("embedding lookup", |i| {
        store
            .embedding(i % n, Deadline::unbounded())
            .expect("lookup");
    });
    time_queries("knn (k=10)", |i| {
        store.knn(i % n, 10, Deadline::unbounded()).expect("knn");
    });

    let health = store.health();
    println!(
        "serve_smoke OK: {} served, {} shed, {} good / {} failed reloads, final state {:?}",
        health.served_total,
        health.shed_total,
        health.reloads_ok,
        health.reloads_failed,
        health.state
    );
}
