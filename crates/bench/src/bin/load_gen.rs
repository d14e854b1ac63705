//! Closed-loop (and optionally open-loop) load generator driving the
//! sharded router, comparing per-shard linear-scan serving against the
//! HNSW-backed ANN path at several network scales (DESIGN.md §16).
//!
//! Per scale, two routers over identical synthetic embeddings:
//!
//! - **scan** — `ann_threshold = ∞`: every k-NN is the exact per-shard
//!   linear scan (the pre-ANN serving path, bit for bit).
//! - **hnsw** — `ann_threshold = 1`: every shard builds its HNSW index in
//!   the background; the run waits for the router health report to turn
//!   `Ready` before driving load, and records the slowest shard's build.
//!
//! The closed loop runs a fixed worker pool to completion; the open loop
//! (largest scale only) targets `SARN_LOADGEN_QPS` with a linear ramp
//! over `SARN_LOADGEN_RAMP_S`, reporting achieved throughput. Every
//! query latency is recorded both exactly (for the reported percentiles)
//! and into the `sarn_bench_loadgen_knn_seconds` histogram so the
//! `sarn-obs` export carries the same distribution. Recall@k of the ANN
//! leg is measured against the scan leg's exact answers on the same
//! rows, score-matched so exact-score ties count as hits.
//!
//! Exits non-zero on any query error, a recall below
//! `SARN_LOADGEN_MIN_RECALL`, a p99 over `SARN_LOADGEN_SLO_P99_MS` (when
//! set), or a scan/ANN p99 speedup at the largest scale below
//! `SARN_LOADGEN_MIN_SPEEDUP` (when set). Run with
//! `SARN_REPORT_JSONL=BENCH_10.json` to produce the committed CI
//! artifact.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sarn_bench::Table;
use sarn_geo::Point;
use sarn_serve::{Deadline, IndexState, Router, RouterConfig, ServeConfig, ShardedStore};
use sarn_tensor::Tensor;

fn fail(msg: &str) -> ! {
    eprintln!("[load_gen] FAIL: {msg}");
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

/// `SARN_LOADGEN_*` knob: unset/empty defaults, malformed fails loudly
/// (same contract as the serve knobs — a typo must not silently shrink
/// the run).
fn env_knob<T: std::str::FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(raw) if raw.trim().is_empty() => default,
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad knob {var}={raw:?}"))),
    }
}

fn env_opt(var: &str) -> Option<f64> {
    match std::env::var(var) {
        Err(_) => None,
        Ok(raw) if raw.trim().is_empty() => None,
        Ok(raw) => Some(
            raw.trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad knob {var}={raw:?}"))),
        ),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Closed,
    Open,
    Both,
}

struct LoadCfg {
    scales: Vec<usize>,
    dim: usize,
    shards: usize,
    queries: usize,
    concurrency: usize,
    k: usize,
    mode: Mode,
    qps: f64,
    ramp_s: f64,
    duration_s: f64,
    recall_queries: usize,
    min_recall: f64,
    slo_p99_ms: Option<f64>,
    min_speedup: Option<f64>,
}

impl LoadCfg {
    fn from_env() -> Self {
        let scales_raw: String = env_knob("SARN_LOADGEN_SCALES", "2000,12000,48000".to_string());
        let scales: Vec<usize> = scales_raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad scale in SARN_LOADGEN_SCALES: {s:?}")))
            })
            .collect();
        ensure(!scales.is_empty(), "SARN_LOADGEN_SCALES must name a scale");
        let mode = match env_knob("SARN_LOADGEN_MODE", "both".to_string()).as_str() {
            "closed" => Mode::Closed,
            "open" => Mode::Open,
            "both" => Mode::Both,
            other => fail(&format!("bad SARN_LOADGEN_MODE={other:?}")),
        };
        Self {
            scales,
            dim: env_knob("SARN_LOADGEN_DIM", 32),
            shards: env_knob("SARN_LOADGEN_SHARDS", 4),
            queries: env_knob("SARN_LOADGEN_QUERIES", 2000),
            concurrency: env_knob("SARN_LOADGEN_CONCURRENCY", 8).max(1),
            k: env_knob("SARN_LOADGEN_K", 10),
            mode,
            qps: env_knob("SARN_LOADGEN_QPS", 2000.0),
            ramp_s: env_knob("SARN_LOADGEN_RAMP_S", 1.0),
            duration_s: env_knob("SARN_LOADGEN_DURATION_S", 3.0),
            recall_queries: env_knob("SARN_LOADGEN_RECALL_QUERIES", 256),
            min_recall: env_knob("SARN_LOADGEN_MIN_RECALL", 0.95),
            slo_p99_ms: env_opt("SARN_LOADGEN_SLO_P99_MS"),
            min_speedup: env_opt("SARN_LOADGEN_MIN_SPEEDUP"),
        }
    }
}

/// Segment midpoints on a dense lattice: a `⌈√n⌉`-wide grid of 50-meter
/// steps, so the geo-partitioner produces contiguous non-empty bands.
fn midpoints(n: usize) -> Vec<Point> {
    let w = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            Point::new(
                30.64 + (i / w) as f64 * 0.0005,
                104.04 + (i % w) as f64 * 0.0005,
            )
        })
        .collect()
}

/// Seeded, diverse embeddings. A real generator (not a hash lattice):
/// duplicate-free rows keep the recall measurement honest.
fn embeddings(n: usize, dim: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0x10AD_6E27 ^ n as u64);
    let data = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(n, dim, data)
}

/// Builds a router over `n` fresh rows with the given ANN threshold and
/// waits for its index lifecycle to settle (`Ready` when ANN is on).
/// Returns the router and the slowest shard's build time in ms.
fn build_router(cfg: &LoadCfg, n: usize, ann_threshold: usize) -> (Router, u64) {
    let serve_cfg = ServeConfig {
        ann_threshold,
        ..ServeConfig::from_env().unwrap_or_else(|e| fail(&format!("bad serve knob: {e}")))
    };
    let sharded = ShardedStore::new(midpoints(n), cfg.dim, serve_cfg, cfg.shards)
        .unwrap_or_else(|e| fail(&format!("building sharded store: {e}")));
    sharded
        .admit(&embeddings(n, cfg.dim))
        .unwrap_or_else(|e| fail(&format!("admitting {n} rows: {e}")));
    let router = Router::new(
        sharded,
        RouterConfig::from_env().unwrap_or_else(|e| fail(&format!("bad router knob: {e}"))),
    );
    let build_ms = if ann_threshold == usize::MAX {
        0
    } else {
        let t0 = Instant::now();
        loop {
            match router.health().index {
                IndexState::Ready { build_ms } => break build_ms,
                IndexState::FellBack => fail("index fell back during a clean build"),
                _ if t0.elapsed() > Duration::from_secs(120) => {
                    fail("HNSW build did not reach Ready within 120s")
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    };
    (router, build_ms)
}

/// Closed loop: a fixed worker pool drains a shared query counter as
/// fast as the router answers. Returns exact latency samples and the
/// error count.
fn closed_loop(router: &Router, n: usize, cfg: &LoadCfg) -> (Vec<Duration>, u64) {
    let next = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let hist = sarn_obs::histogram("sarn_bench_loadgen_knn_seconds");
    let mut lanes: Vec<Vec<Duration>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|_| {
                let (next, errors, hist) = (&next, &errors, &hist);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.queries {
                            break samples;
                        }
                        let segment = (i * 37) % n;
                        let t0 = Instant::now();
                        match router.knn(segment, cfg.k, Deadline::unbounded()) {
                            Ok(_) => {
                                let dt = t0.elapsed();
                                hist.observe(dt.as_secs_f64());
                                samples.push(dt);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            lanes.push(h.join().unwrap_or_else(|_| fail("worker panicked")));
        }
    });
    (lanes.concat(), errors.load(Ordering::Relaxed))
}

/// Scheduled issue time of open-loop query `i`: rate ramps linearly from
/// zero to `qps` over `ramp_s`, then holds.
fn open_loop_schedule(i: usize, qps: f64, ramp_s: f64) -> Duration {
    let ramp_queries = qps * ramp_s / 2.0;
    let t = if (i as f64) < ramp_queries {
        (2.0 * i as f64 * ramp_s / qps).sqrt()
    } else {
        ramp_s + (i as f64 - ramp_queries) / qps
    };
    Duration::from_secs_f64(t.max(0.0))
}

/// Open loop: queries are issued on a wall-clock schedule (workers sleep
/// until each query's slot), so queueing delay shows up as latency
/// instead of back-pressure hiding it. Returns samples, errors, and the
/// achieved QPS.
fn open_loop(router: &Router, n: usize, cfg: &LoadCfg) -> (Vec<Duration>, u64, f64) {
    let ramp_s = cfg.ramp_s.min(cfg.duration_s);
    let total = ((cfg.qps * ramp_s / 2.0) + cfg.qps * (cfg.duration_s - ramp_s)).round() as usize;
    ensure(total > 0, "open-loop schedule is empty; raise QPS/DURATION");
    let errors = AtomicU64::new(0);
    let hist = sarn_obs::histogram("sarn_bench_loadgen_knn_seconds");
    let start = Instant::now();
    let mut lanes: Vec<Vec<Duration>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|lane| {
                let (errors, hist, start) = (&errors, &hist, &start);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = lane;
                    while i < total {
                        let due = open_loop_schedule(i, cfg.qps, ramp_s);
                        if let Some(nap) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(nap);
                        }
                        let segment = (i * 37) % n;
                        let t0 = Instant::now();
                        match router.knn(segment, cfg.k, Deadline::unbounded()) {
                            Ok(_) => {
                                let dt = t0.elapsed();
                                hist.observe(dt.as_secs_f64());
                                samples.push(dt);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        i += cfg.concurrency;
                    }
                    samples
                })
            })
            .collect();
        for h in handles {
            lanes.push(h.join().unwrap_or_else(|_| fail("worker panicked")));
        }
    });
    let achieved = total as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (lanes.concat(), errors.load(Ordering::Relaxed), achieved)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Recall@k of the ANN router against the scan router's exact answers,
/// score-matched: an ANN neighbor counts as a hit when its similarity is
/// at least the exact k-th best (so exact-score ties — co-located rows —
/// are not spuriously penalized).
fn recall_at_k(scan: &Router, ann: &Router, n: usize, cfg: &LoadCfg) -> f64 {
    let (mut hits, mut want) = (0usize, 0usize);
    for q in 0..cfg.recall_queries {
        let segment = (q * 17 + 1) % n;
        let exact = scan
            .knn(segment, cfg.k, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("exact recall query: {e}")));
        let approx = ann
            .knn(segment, cfg.k, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("ann recall query: {e}")));
        let Some(&(_, kth)) = exact.neighbors.last() else {
            continue;
        };
        want += exact.neighbors.len();
        hits += approx
            .neighbors
            .iter()
            .filter(|&&(_, s)| s >= kth)
            .count()
            .min(exact.neighbors.len());
    }
    if want == 0 {
        1.0
    } else {
        hits as f64 / want as f64
    }
}

fn fmt_us(d: Duration) -> String {
    format!("{:.0}", d.as_secs_f64() * 1e6)
}

/// Single-shard leg: drives one shard's [`sarn_serve::EmbeddingStore`]
/// directly (no fan-out, no router overhead), isolating "per-shard
/// linear scan vs per-shard ANN search" — the comparison the speedup
/// gate is about. Single-threaded so scheduler queueing does not pollute
/// the tail.
fn shard_loop(router: &Router, cfg: &LoadCfg) -> Vec<Duration> {
    let shard = &router.sharded().shards()[0];
    let rows = shard.globals.len();
    let mut samples = Vec::with_capacity(cfg.queries);
    let hist = sarn_obs::histogram("sarn_bench_loadgen_knn_seconds");
    for i in 0..cfg.queries {
        let segment = (i * 37) % rows;
        let t0 = Instant::now();
        shard
            .store
            .knn(segment, cfg.k, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("shard leg query: {e}")));
        let dt = t0.elapsed();
        hist.observe(dt.as_secs_f64());
        samples.push(dt);
    }
    samples
}

fn main() {
    let cfg = LoadCfg::from_env();
    sarn_obs::set_enabled(true);
    let mut table = Table::new(
        "load_gen",
        &[
            "leg",
            "rows",
            "queries",
            "errors",
            "p50_us",
            "p99_us",
            "recall_at_10",
            "build_ms",
            "peak_rss_mb",
        ],
    );
    let largest = *cfg.scales.iter().max().unwrap_or(&0);
    let mut speedup_at_largest = None;
    for &n in &cfg.scales {
        eprintln!("[load_gen] scale {n}: building scan + hnsw routers");
        let (scan_router, _) = build_router(&cfg, n, usize::MAX);
        let (ann_router, build_ms) = build_router(&cfg, n, 1);
        let ann_before = sarn_obs::counter("sarn_serve_knn_ann_total").get();

        let recall = recall_at_k(&scan_router, &ann_router, n, &cfg);
        ensure(
            recall >= cfg.min_recall,
            &format!(
                "recall@{} {recall:.3} below the {:.2} bound at {n} rows",
                cfg.k, cfg.min_recall
            ),
        );
        ensure(
            sarn_obs::counter("sarn_serve_knn_ann_total").get() > ann_before,
            "hnsw leg never served through the ANN index",
        );

        if cfg.mode != Mode::Open {
            // Routed end-to-end closed loops (fan-out overhead included).
            for (leg, router) in [("scan_routed", &scan_router), ("hnsw_routed", &ann_router)] {
                let (mut samples, errors) = closed_loop(router, n, &cfg);
                ensure(
                    errors == 0,
                    &format!("{leg} leg saw {errors} errors at {n} rows"),
                );
                samples.sort();
                let is_ann = leg.starts_with("hnsw");
                table.row(vec![
                    leg.to_string(),
                    n.to_string(),
                    samples.len().to_string(),
                    errors.to_string(),
                    fmt_us(percentile(&samples, 0.50)),
                    fmt_us(percentile(&samples, 0.99)),
                    if is_ann {
                        format!("{recall:.3}")
                    } else {
                        "1.000".to_string()
                    },
                    if is_ann {
                        build_ms.to_string()
                    } else {
                        "-".to_string()
                    },
                    peak_rss_mb(),
                ]);
            }
            // Per-shard legs: the linear-scan-vs-ANN comparison proper.
            let mut shard_p99 = Vec::with_capacity(2);
            for (leg, router) in [("scan_shard", &scan_router), ("hnsw_shard", &ann_router)] {
                let mut samples = shard_loop(router, &cfg);
                samples.sort();
                let (p50, p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
                shard_p99.push(p99);
                let is_ann = leg.starts_with("hnsw");
                table.row(vec![
                    leg.to_string(),
                    n.to_string(),
                    samples.len().to_string(),
                    "0".to_string(),
                    fmt_us(p50),
                    fmt_us(p99),
                    if is_ann {
                        format!("{recall:.3}")
                    } else {
                        "1.000".to_string()
                    },
                    if is_ann {
                        build_ms.to_string()
                    } else {
                        "-".to_string()
                    },
                    peak_rss_mb(),
                ]);
            }
            if let [scan_p99, ann_p99] = shard_p99[..] {
                let ratio = scan_p99.as_secs_f64() / ann_p99.as_secs_f64().max(1e-9);
                table.row(vec![
                    "speedup_p99".to_string(),
                    n.to_string(),
                    (2 * cfg.queries).to_string(),
                    "0".to_string(),
                    "-".to_string(),
                    format!("{ratio:.1}x"),
                    "-".to_string(),
                    "-".to_string(),
                    peak_rss_mb(),
                ]);
                if n == largest {
                    speedup_at_largest = Some(ratio);
                    if let Some(slo_ms) = cfg.slo_p99_ms {
                        ensure(
                            ann_p99.as_secs_f64() * 1e3 <= slo_ms,
                            &format!(
                                "hnsw per-shard p99 {:.2}ms over the {slo_ms}ms SLO",
                                ann_p99.as_secs_f64() * 1e3
                            ),
                        );
                    }
                }
            }
        }
        if cfg.mode != Mode::Closed && n == largest {
            let (mut samples, errors, achieved) = open_loop(&ann_router, n, &cfg);
            ensure(errors == 0, &format!("open loop saw {errors} errors"));
            samples.sort();
            table.row(vec![
                format!("hnsw_open@{:.0}qps", achieved),
                n.to_string(),
                samples.len().to_string(),
                errors.to_string(),
                fmt_us(percentile(&samples, 0.50)),
                fmt_us(percentile(&samples, 0.99)),
                format!("{recall:.3}"),
                build_ms.to_string(),
                peak_rss_mb(),
            ]);
        }
    }
    if let (Some(min), Some(got)) = (cfg.min_speedup, speedup_at_largest) {
        ensure(
            got >= min,
            &format!("p99 speedup {got:.1}x at {largest} rows below the {min}x bound"),
        );
    }
    table.print();
    eprintln!("[load_gen] ok");
}
