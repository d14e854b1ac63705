//! Sharded-router chaos smoke, for CI (DESIGN.md §15).
//!
//! Two legs, both exiting non-zero on any contract breach or panic:
//!
//! 1. **Identity** — a healthy [`Router`] over a geo-partitioned
//!    [`ShardedStore`] must answer k-NN bitwise identically to one
//!    combined [`EmbeddingStore`], at 1 and at 4 concurrent reader
//!    threads.
//! 2. **Chaos** — kill K of N shards with sticky injected faults while a
//!    4-thread query storm runs against per-shard generation churn. The
//!    router must never panic or serve a torn row: every answer is
//!    full-coverage, typed-partial, or a typed `PartialCoverage` shed.
//!    Clearing the faults must recover to full coverage through the
//!    breakers' probed half-open path.
//!
//! Emits machine-readable rows through the bench report machinery: run
//! with `SARN_REPORT_JSONL=BENCH_9.json` to produce the committed CI
//! artifact, with the process peak-RSS high-water mark on every row.
//! Scale comes from the usual `SARN_*` knobs; router knobs from
//! `SARN_SERVE_*`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sarn_bench::{ExperimentScale, Table};
use sarn_roadnet::{City, RoadNetwork};
use sarn_serve::{
    BreakerConfig, BreakerState, Deadline, EmbeddingStore, Router, RouterConfig, ServeConfig,
    ServeError, ShardFault, ShardedStore,
};
use sarn_tensor::Tensor;

/// Embedding width for the synthetic artifact (no training run: the
/// router contract is independent of how the rows were produced).
const DIM: usize = 32;
/// Queries per thread in the storm legs.
const STORM_QUERIES: usize = 200;
/// Identity probes are capped so huge `SARN_SCALE` settings stay cheap.
const MAX_IDENTITY_PROBES: usize = 512;

fn fail(msg: &str) -> ! {
    eprintln!("[router_chaos_smoke] FAIL: {msg}");
    std::process::exit(1);
}

fn ensure(cond: bool, msg: &str) {
    if !cond {
        fail(msg);
    }
}

/// Process peak RSS in MB, or a dash where procfs is unavailable.
fn peak_rss_mb() -> String {
    match sarn_obs::peak_rss_bytes() {
        Some(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        None => "-".to_string(),
    }
}

/// Deterministic, row-distinguishable, finite embeddings; `salt` varies
/// the generation so churned admits actually change rows.
fn synthetic_embeddings(n: usize, salt: u32) -> Tensor {
    let data = (0..n * DIM)
        .map(|p| {
            let (r, c) = (p / DIM, p % DIM);
            let h = (r * 31 + c * 7 + salt as usize * 13) % 97;
            0.1 + h as f32 / 97.0
        })
        .collect();
    Tensor::from_vec(n, DIM, data)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::from_env().unwrap_or_else(|e| fail(&format!("bad serve knob: {e}")))
}

fn build_router(net: &RoadNetwork, rcfg: RouterConfig) -> Router {
    let sharded = ShardedStore::for_network(net, DIM, serve_cfg(), rcfg.num_shards)
        .unwrap_or_else(|e| fail(&format!("building sharded store: {e}")));
    ensure(
        sharded.num_shards() > 1,
        "geo partition collapsed to one shard; the smoke needs a real fan-out",
    );
    sharded
        .admit(&synthetic_embeddings(net.num_segments(), 0))
        .unwrap_or_else(|e| fail(&format!("admitting generation 1: {e}")));
    Router::new(sharded, rcfg)
}

/// Leg 1: bitwise identity against the combined store at 1 and 4 readers.
fn identity_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let router = build_router(net, *rcfg);
    let single = EmbeddingStore::for_network(net, DIM, serve_cfg())
        .unwrap_or_else(|e| fail(&format!("building combined store: {e}")));
    single
        .admit(synthetic_embeddings(n, 0))
        .unwrap_or_else(|e| fail(&format!("admitting combined store: {e}")));

    let stride = n.div_ceil(MAX_IDENTITY_PROBES).max(1);
    for threads in [1usize, 4] {
        let checked = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (router, single, checked) = (&router, &single, &checked);
                s.spawn(move || {
                    for segment in (0..n).step_by(stride).skip(t).step_by(threads.max(1)) {
                        for k in [1usize, 10] {
                            let ours = router
                                .knn(segment, k, Deadline::unbounded())
                                .unwrap_or_else(|e| fail(&format!("routed knn: {e}")));
                            ensure(ours.coverage.complete(), "healthy fan-out lost coverage");
                            let theirs = single
                                .knn(segment, k, Deadline::unbounded())
                                .unwrap_or_else(|e| fail(&format!("combined knn: {e}")));
                            ensure(
                                ours.neighbors.len() == theirs.neighbors.len(),
                                "routed k-NN width diverged from the combined store",
                            );
                            for (a, b) in ours.neighbors.iter().zip(&theirs.neighbors) {
                                ensure(
                                    a.0 == b.0 && a.1.to_bits() == b.1.to_bits(),
                                    "routed k-NN diverged bitwise from the combined store",
                                );
                            }
                        }
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        table.row(vec![
            "identity".to_string(),
            format!("threads={threads}"),
            checked.load(Ordering::Relaxed).to_string(),
            "bitwise==combined".to_string(),
            peak_rss_mb(),
        ]);
    }
}

/// Leg 2: kill K of N shards under churn, then recover.
fn chaos_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let router = build_router(
        net,
        RouterConfig {
            shard_retries: 1,
            shard_backoff: Duration::from_millis(1),
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_cooldown: Duration::from_millis(10),
            },
            ..*rcfg
        },
    );
    let shards = router.sharded().num_shards();
    let kill = (shards / 2).max(1);
    for victim in 0..kill {
        router.inject_shard_fault(
            victim,
            Some(ShardFault {
                fail_queries: 1,
                sticky: true,
                ..ShardFault::default()
            }),
        );
    }
    eprintln!("[router_chaos_smoke] chaos: killing {kill}/{shards} shards under churn");

    let ok = AtomicU64::new(0);
    let partial = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let churned = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Churn thread: per-shard generation swaps while the storm runs.
        // `admit_changed` flips only the shards whose rows differ, so
        // readers race real pointer swaps, not a quiesced store.
        s.spawn(|| {
            for round in 1..=8u32 {
                let next = synthetic_embeddings(n, round % 2);
                if router.sharded().admit_changed(&next).is_ok() {
                    churned.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for t in 0..4usize {
            let (ok, partial, shed) = (&ok, &partial, &shed);
            let router = &router;
            s.spawn(move || {
                for i in 0..STORM_QUERIES {
                    let segment = (i * 4 + t) % n;
                    match router.knn(segment, 5, Deadline::unbounded()) {
                        Ok(answer) => {
                            // Torn-generation detector: merged rows must
                            // be finite, in range, and every answered
                            // shard must report a published generation.
                            for &(id, score) in &answer.neighbors {
                                ensure(id < n && score.is_finite(), "torn answer served");
                            }
                            for sc in &answer.coverage.shards {
                                if sc.generation == Some(0) {
                                    fail("answered shard reported an unpublished generation");
                                }
                            }
                            if answer.coverage.complete() {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                partial.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::PartialCoverage { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => fail(&format!("untyped chaos failure: {e}")),
                    }
                }
            });
        }
    });
    let (ok_n, partial_n, shed_n) = (
        ok.load(Ordering::Relaxed),
        partial.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
    );
    ensure(
        churned.load(Ordering::Relaxed) > 0,
        "churn thread never swapped a generation",
    );
    ensure(
        partial_n + shed_n > 0,
        "killing shards produced no degradation at all: faults did not land",
    );
    table.row(vec![
        "chaos".to_string(),
        format!("kill {kill}/{shards}"),
        (4 * STORM_QUERIES).to_string(),
        format!("ok={ok_n} partial={partial_n} shed={shed_n}"),
        peak_rss_mb(),
    ]);

    // Recovery: clear the faults and let the breakers probe half-open.
    for victim in 0..kill {
        router.inject_shard_fault(victim, None);
    }
    let t0 = Instant::now();
    let recovered = loop {
        std::thread::sleep(Duration::from_millis(5));
        let answer = router
            .knn(0, 5, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("query during recovery: {e}")));
        if answer.coverage.complete()
            && (0..shards).all(|i| router.breaker_state(i) == BreakerState::Closed)
        {
            break t0.elapsed();
        }
        if t0.elapsed() > Duration::from_secs(10) {
            fail("router did not recover to full coverage within 10s of faults clearing");
        }
    };
    table.row(vec![
        "chaos".to_string(),
        "recovered".to_string(),
        "-".to_string(),
        format!("full coverage in {:.0} ms", recovered.as_secs_f64() * 1e3),
        peak_rss_mb(),
    ]);
}

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);
    let rcfg = RouterConfig::from_env().unwrap_or_else(|e| fail(&format!("bad router knob: {e}")));
    eprintln!(
        "[router_chaos_smoke] {} segments, {} shards requested",
        net.num_segments(),
        rcfg.num_shards
    );
    let mut table = Table::new(
        "router_chaos_smoke",
        &["leg", "config", "queries", "outcome", "peak_rss_mb"],
    );
    identity_leg(&net, &rcfg, &mut table);
    chaos_leg(&net, &rcfg, &mut table);
    table.print();
    eprintln!("[router_chaos_smoke] ok");
}
