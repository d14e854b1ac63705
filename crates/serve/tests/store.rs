//! Behavioral contract of the embedding store: validated admission,
//! stale-generation fallback on every reload failure mode, retry against
//! transient injected faults, deadlines, and load shedding.

use std::time::Duration;

use sarn_durable::TempDir;
use sarn_serve::{Deadline, EmbeddingStore, LoadFault, ServeConfig, ServeError, ServeState};
use sarn_tensor::{IoError, Tensor};

const N: usize = 30;
const D: usize = 4;

/// Deterministic embeddings whose rows differ: row `i`, component `j`
/// holds `scale * (i + 1) + j` — distinguishable per generation and per
/// row, finite everywhere.
fn embeddings(scale: f32) -> Tensor {
    Tensor::from_vec(
        N,
        D,
        (0..N * D)
            .map(|p| scale * ((p / D) as f32 + 1.0) + (p % D) as f32)
            .collect(),
    )
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        reload_retries: 1,
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

fn store(cfg: ServeConfig) -> EmbeddingStore {
    EmbeddingStore::new(N, D, cfg).expect("valid store")
}

#[test]
fn fresh_store_is_loading_and_not_ready() {
    let s = store(fast_cfg());
    assert_eq!(s.generation(), None);
    assert_eq!(s.health().state, ServeState::Loading);
    match s.embedding(0, Deadline::unbounded()) {
        Err(ServeError::NotReady) => {}
        other => panic!("expected NotReady, got {other:?}"),
    }
    // Bounds are checked before readiness: an unknown id is typed as such.
    match s.knn(N + 5, 3, Deadline::unbounded()) {
        Err(ServeError::UnknownSegment {
            segment,
            num_segments,
        }) => {
            assert_eq!((segment, num_segments), (N + 5, N));
        }
        other => panic!("expected UnknownSegment, got {other:?}"),
    }
}

#[test]
fn admission_rejects_bad_artifacts_and_keeps_the_current_generation() {
    let s = store(fast_cfg());
    s.admit(embeddings(1.0)).expect("first admission");
    assert_eq!(s.generation(), Some(1));
    let baseline = s
        .embedding(7, Deadline::unbounded())
        .expect("baseline lookup");

    // Wrong shape: typed at the io-validation layer.
    match s.admit(Tensor::zeros(N + 1, D)) {
        Err(ServeError::Load(IoError::ShapeMismatch { rows, .. })) => assert_eq!(rows, N + 1),
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // Corrupt row: typed by the shared watchdog/serving screen.
    let mut sick = embeddings(2.0);
    sick.data_mut()[9 * D + 2] = f32::NAN;
    match s.admit(sick) {
        Err(ServeError::CorruptRow { row: 9, defect }) => {
            assert!(defect.to_string().contains("component 2"), "{defect}")
        }
        other => panic!("expected CorruptRow at 9, got {other:?}"),
    }
    // Both rejections left generation 1 serving identical answers.
    assert_eq!(s.generation(), Some(1));
    assert_eq!(
        s.embedding(7, Deadline::unbounded())
            .expect("still serving"),
        baseline
    );
}

#[test]
fn reload_failure_modes_all_fall_back_to_last_known_good() {
    let s = store(fast_cfg());
    let dir = TempDir::new("serve-fallback").expect("temp dir");
    let path = dir.path().join("fallback.emb");
    embeddings(1.0).save(&path).expect("writing gen 1");
    assert_eq!(s.reload(&path).expect("first reload"), 1);
    let baseline = s.embedding(3, Deadline::unbounded()).expect("baseline");
    let baseline_knn = s.knn(3, 5, Deadline::unbounded()).expect("baseline knn");

    // Garbage file.
    std::fs::write(&path, b"definitely not an artifact").expect("corrupting");
    match s.reload(&path) {
        Err(ServeError::Load(IoError::BadMagic { .. })) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // Truncated file.
    let full = {
        embeddings(1.0).save(&path).expect("rewriting gen 1");
        std::fs::read(&path).expect("reading bytes")
    };
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncating");
    match s.reload(&path) {
        Err(ServeError::Load(IoError::Truncated { .. })) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Wrong shape on disk (artifact from another network).
    Tensor::zeros(N, D + 3).save(&path).expect("writing misfit");
    match s.reload(&path) {
        Err(ServeError::Load(IoError::ShapeMismatch { .. })) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // Non-finite payload on disk.
    let mut sick = embeddings(3.0);
    sick.data_mut()[0] = f32::INFINITY;
    sick.save(&path).expect("writing sick artifact");
    match s.reload(&path) {
        Err(ServeError::CorruptRow { row: 0, .. }) => {}
        other => panic!("expected CorruptRow, got {other:?}"),
    }

    // Throughout: generation 1 kept answering, bit-for-bit.
    assert_eq!(s.generation(), Some(1));
    assert_eq!(
        s.embedding(3, Deadline::unbounded()).expect("stale lookup"),
        baseline
    );
    assert_eq!(
        s.knn(3, 5, Deadline::unbounded()).expect("stale knn"),
        baseline_knn
    );
    // And the health report says degraded, with the failure count and the
    // last typed error's message.
    let h = s.health();
    assert_eq!(h.consecutive_reload_failures, 4);
    assert_eq!(h.reloads_failed, 4);
    assert!(matches!(
        h.state,
        ServeState::Degraded {
            generation: 1,
            consecutive_failures: 4
        }
    ));
    assert!(h.last_reload_error.is_some());

    // A good artifact flips every reader to generation 2 and clears the
    // degradation.
    embeddings(5.0).save(&path).expect("writing gen 2");
    assert_eq!(s.reload(&path).expect("recovery reload"), 2);
    let flipped = s.embedding(3, Deadline::unbounded()).expect("new lookup");
    assert_ne!(flipped, baseline);
    assert_eq!(flipped[0], 5.0 * 4.0); // scale * (row + 1) + 0
    let h = s.health();
    assert_eq!(h.state, ServeState::Serving { generation: 2 });
    assert_eq!(h.consecutive_reload_failures, 0);
    assert!(h.last_reload_error.is_none());
}

#[test]
fn bounded_retry_outlasts_transient_injected_faults() {
    let mut cfg = fast_cfg();
    cfg.reload_retries = 3;
    let s = store(cfg);
    let dir = TempDir::new("serve-transient").expect("temp dir");
    let path = dir.path().join("transient.emb");
    embeddings(1.0).save(&path).expect("writing artifact");

    // Two injected failures, four attempts allowed: the reload succeeds.
    s.inject_fault(Some(LoadFault {
        fail_loads: 2,
        delay_ms: 0,
    }));
    assert_eq!(s.reload(&path).expect("retry outlasts fault"), 1);
    assert_eq!(s.health().reloads_ok, 1);

    // A fault outlasting the budget is a typed failure; the generation
    // stays.
    s.inject_fault(Some(LoadFault {
        fail_loads: 100,
        delay_ms: 0,
    }));
    match s.reload(&path) {
        Err(ServeError::Load(IoError::Io(e))) => {
            assert!(e.to_string().contains("injected"), "{e}")
        }
        other => panic!("expected the injected fault, got {other:?}"),
    }
    assert_eq!(s.generation(), Some(1));
    s.inject_fault(None);
    assert_eq!(s.reload(&path).expect("clean after clearing"), 2);
}

#[test]
fn deadlines_are_typed_and_slow_io_can_be_simulated() {
    let s = store(fast_cfg());
    s.admit(embeddings(1.0)).expect("admission");
    match s.knn(0, 5, Deadline::within(Duration::ZERO)) {
        Err(ServeError::DeadlineExceeded { budget, .. }) => assert_eq!(budget, Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous budget answers fine.
    s.knn(0, 5, Deadline::within(Duration::from_secs(60)))
        .expect("generous budget");
    // Injected slow IO delays a reload without failing it.
    let dir = TempDir::new("serve-slow").expect("temp dir");
    let path = dir.path().join("slow.emb");
    embeddings(2.0).save(&path).expect("writing artifact");
    s.inject_fault(Some(LoadFault {
        fail_loads: 0,
        delay_ms: 30,
    }));
    let t0 = std::time::Instant::now();
    s.reload(&path).expect("slow but successful reload");
    assert!(t0.elapsed() >= Duration::from_millis(30));
}

#[test]
fn overload_sheds_typed_and_recovers_once_tickets_drop() {
    let cfg = ServeConfig {
        max_inflight: 4,
        ..fast_cfg()
    };
    let s = store(cfg);
    s.admit(embeddings(1.0)).expect("admission");

    // Saturate the admission budget: the next request is shed, typed.
    let tickets: Vec<_> = (0..4)
        .map(|i| s.try_ticket().unwrap_or_else(|e| panic!("ticket {i}: {e}")))
        .collect();
    match s.embedding(0, Deadline::unbounded()) {
        Err(ServeError::Overloaded {
            inflight: 4,
            max_inflight: 4,
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(matches!(
        s.health().state,
        ServeState::Shedding { generation: 1 }
    ));
    assert_eq!(s.health().shed_total, 1);
    drop(tickets);

    // Below the ceiling, k-NN answers again.
    let answer = s.knn(5, 3, Deadline::unbounded()).expect("knn at rest");
    assert_eq!(answer.neighbors.len(), 3);
    assert_eq!(s.health().state, ServeState::Serving { generation: 1 });
    assert!(s.health().inflight == 0, "tickets all released");
}

#[test]
fn snapshots_outlive_reloads() {
    let s = store(fast_cfg());
    s.admit(embeddings(1.0)).expect("gen 1");
    let old = s.snapshot().expect("snapshot of gen 1");
    s.admit(embeddings(2.0)).expect("gen 2");
    // The old generation's data is still fully readable through the Arc —
    // a reader mid-query during a flip finishes on a coherent matrix.
    assert_eq!(old.number(), 1);
    assert_eq!(old.embeddings().at(0, 0), 1.0);
    assert_eq!(s.snapshot().expect("snapshot of gen 2").number(), 2);
}

#[test]
fn health_reports_uptime_generation_age_and_optional_metrics() {
    let s = store(fast_cfg());
    // Loading: no generation yet, so no age; the store is already aging.
    let h = s.health();
    assert!(h.generation_age.is_none());
    assert!(h.uptime > Duration::ZERO);
    s.admit(embeddings(1.0)).expect("gen 1");
    std::thread::sleep(Duration::from_millis(2));
    let h = s.health();
    let age1 = h.generation_age.expect("a served generation has an age");
    assert!(age1 >= Duration::from_millis(2));
    assert!(
        h.uptime >= age1,
        "the store is at least as old as its generation"
    );
    // A fresh admission resets the staleness clock.
    s.admit(embeddings(2.0)).expect("gen 2");
    let age2 = s.health().generation_age.expect("age of gen 2");
    assert!(age2 < age1);
    // Metrics ride along only when telemetry is enabled (these tests run
    // with it off, so the report stays lean).
    if !sarn_obs::enabled() {
        assert!(h.metrics.is_none());
    }
}

#[test]
fn staleness_slo_turns_health_stale_and_a_fresh_admit_clears_it() {
    let cfg = ServeConfig {
        max_staleness: Some(Duration::from_millis(5)),
        ..fast_cfg()
    };
    let s = store(cfg);
    // No SLO breach while loading: there is no generation to be stale.
    assert_eq!(s.health().state, ServeState::Loading);

    s.admit(embeddings(1.0)).expect("gen 1");
    assert_eq!(s.health().state, ServeState::Serving { generation: 1 });
    std::thread::sleep(Duration::from_millis(8));
    match s.health().state {
        ServeState::Stale { generation, age } => {
            assert_eq!(generation, 1);
            assert!(age >= Duration::from_millis(5));
        }
        other => panic!("expected Stale, got {other:?}"),
    }
    // Queries still succeed while stale — stale beats unavailable.
    assert!(s.embedding(0, Deadline::unbounded()).is_ok());

    // A fresh admission clears the state (and re-arms the latch).
    s.admit(embeddings(2.0)).expect("gen 2");
    assert_eq!(s.health().state, ServeState::Serving { generation: 2 });

    // Degraded takes precedence over Stale: the failure explains the age.
    s.inject_fault(Some(LoadFault {
        fail_loads: u32::MAX,
        delay_ms: 0,
    }));
    let dir = TempDir::new("serve-stale-missing").expect("temp dir");
    let missing = dir.path().join("stale_missing.emb");
    let _ = s.reload(&missing);
    std::thread::sleep(Duration::from_millis(8));
    match s.health().state {
        ServeState::Degraded { generation, .. } => assert_eq!(generation, 2),
        other => panic!("expected Degraded, got {other:?}"),
    }
}
