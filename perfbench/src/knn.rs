//! `knn_read`: read-only routed k-NN over a full city of seeded rows,
//! behind a 4-shard store whose shards all serve from a ready HNSW index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sarn_roadnet::{City, SynthConfig};
use sarn_serve::{
    IndexState, RoutedKnn, Router, RouterConfig, ServeConfig, ServeError, ShardedStore,
};
use sarn_tensor::kernels;
use sarn_tensor::Tensor;

use crate::gen::{correlated_rows, request_key};
use crate::loadgen::{closed_loop, open_loop, us, Outcome};
use crate::report::Report;
use crate::stats::{fastest, repeated_share, score_matched_hits, Samples, Schedule};
use crate::Args;

/// San Francisco lattice scale giving ~37k segments, the row count of
/// the paper's largest network.
pub const SF_SCALE: f64 = 3.85;
/// Row width `SarnConfig::small` exports.
const DIM: usize = 64;
const SHARDS: usize = 4;
pub const K: usize = 10;
/// Open-loop arrival rate: about half the closed-loop capacity of
/// `nproc` clients measured at the commit that introduced this workload.
pub const OPEN_RATE_PER_S: f64 = 1000.0;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPS: usize = 7;
/// Share of the run spent in the open-loop phase, whose latencies give
/// `op_p1_ms`; the rest measures closed-loop capacity.
const OPEN_SHARE: f64 = 0.8;
const RECALL_QUERIES: u64 = 200;
/// Recall floor on correlated rows (HNSW measured 0.99+ on them).
pub const RECALL_FLOOR: f64 = 0.95;

/// Builds the served state: synthesize, admit, wait for every shard's
/// index. Returns the router, the seconds it took and the slowest build.
fn set_up(rows: &Tensor) -> Result<(Router, f64, u64), String> {
    let t0 = Instant::now();
    let net = SynthConfig::city(City::SanFrancisco)
        .scaled(SF_SCALE)
        .generate();
    let sharded = ShardedStore::for_network(&net, DIM, ServeConfig::default(), SHARDS)
        .map_err(|e| format!("sharded store: {e}"))?;
    let router = Router::new(sharded, RouterConfig::default());
    router
        .sharded()
        .admit(rows)
        .map_err(|e| format!("admit: {e}"))?;
    loop {
        match router.health().index {
            IndexState::Ready { build_ms } => {
                return Ok((router, t0.elapsed().as_secs_f64(), build_ms))
            }
            IndexState::FellBack | IndexState::None => {
                return Err("an index fell back or was never started".into())
            }
            IndexState::Building => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Counts answers that break the output contract: k neighbours in
/// descending score order with complete coverage.
#[derive(Default)]
pub struct Contract {
    pub malformed: AtomicU64,
}

impl Contract {
    pub fn outcome(&self, r: Result<RoutedKnn, ServeError>) -> Outcome {
        match r {
            Ok(ans) if !ans.coverage.complete() => Outcome::Partial,
            Ok(ans) => {
                let ordered = ans.neighbors.windows(2).all(|w| w[0].1 >= w[1].1);
                if ans.neighbors.len() == K && ordered {
                    Outcome::Ok
                } else {
                    self.malformed.fetch_add(1, Ordering::Relaxed);
                    Outcome::Failed
                }
            }
            Err(ServeError::Overloaded { .. }) => Outcome::Shed,
            Err(ServeError::PartialCoverage { .. }) => Outcome::Partial,
            Err(_) => Outcome::Failed,
        }
    }
}

/// Exact cosine top-k scores of row `q` against every other row, and the
/// scorer itself (the serve path's kernel, operand order and norms).
struct BruteForce<'a> {
    rows: &'a Tensor,
    norms: Vec<f32>,
}

impl<'a> BruteForce<'a> {
    fn new(rows: &'a Tensor) -> Self {
        let norms = (0..rows.rows())
            .map(|i| kernels::squared_norm(rows.row_slice(i)).sqrt().max(1e-12))
            .collect();
        Self { rows, norms }
    }

    fn score(&self, q: usize, b: usize) -> f32 {
        kernels::dot(self.rows.row_slice(q), self.rows.row_slice(b))
            / (self.norms[q] * self.norms[b])
    }

    fn top_scores(&self, q: usize, k: usize) -> Vec<f32> {
        let mut s: Vec<f32> = (0..self.rows.rows())
            .filter(|&b| b != q)
            .map(|b| self.score(q, b))
            .collect();
        s.sort_by(|a, b| b.total_cmp(a));
        s.truncate(k);
        s
    }
}

fn recall(router: &Router, rows: &Tensor, seed: u64) -> Result<f64, String> {
    let bf = BruteForce::new(rows);
    let mut hits = 0usize;
    for i in 0..RECALL_QUERIES {
        let q = request_key(seed ^ 0x5245_4341, i, rows.rows());
        let ans = router
            .knn(q, K, router.deadline())
            .map_err(|e| format!("recall query {q}: {e}"))?;
        let returned: Vec<f32> = ans.neighbors.iter().map(|&(b, _)| bf.score(q, b)).collect();
        hits += score_matched_hits(&bf.top_scores(q, K), &returned, K);
    }
    Ok(hits as f64 / (RECALL_QUERIES as usize * K) as f64)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    let net = SynthConfig::city(City::SanFrancisco)
        .scaled(SF_SCALE)
        .generate();
    let midpoints: Vec<_> = net.segments().iter().map(|s| s.midpoint()).collect();
    let rows = correlated_rows(&midpoints, DIM, args.seed);
    let n = rows.rows();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..reps {
        // Drop the previous state first so set-ups never overlap.
        drop(served.take());
        match set_up(&rows) {
            Ok((router, secs, build_ms)) => {
                setups.push(secs);
                served = Some((router, build_ms));
            }
            Err(e) => {
                report.check(false, || e);
                return report;
            }
        }
    }
    let (router, build_ms) = served.expect("at least one set-up");
    let threads = args.nproc;
    let contract = Contract::default();

    if args.trace {
        return traced(args, &router, build_ms, &contract, report);
    }

    let open_for = args.seconds.mul_f64(OPEN_SHARE);
    let schedule = Schedule {
        start: Instant::now(),
        rate_per_s: OPEN_RATE_PER_S,
        duration: open_for,
    };
    let open = open_loop(schedule, threads, |i| {
        let key = request_key(args.seed, i, n);
        (contract.outcome(router.knn(key, K, router.deadline())), key)
    });
    let closed = closed_loop(args.seconds.saturating_sub(open_for), threads, |i| {
        let key = request_key(args.seed ^ 0x00C1_05ED, i, n);
        contract.outcome(router.knn(key, K, router.deadline()))
    });
    let recall = match recall(&router, &rows, args.seed) {
        Ok(r) => r,
        Err(e) => {
            report.check(false, || e);
            0.0
        }
    };

    let mut tally = open.tally;
    tally.add(closed.tally);
    let malformed = contract.malformed.load(Ordering::Relaxed);
    report.check(malformed == 0 && tally.partial == 0, || {
        format!(
            "{malformed} malformed and {} partial-coverage answers",
            tally.partial
        )
    });
    report.check(recall >= RECALL_FLOOR, || {
        format!("recall_at_10 {recall} below the floor {RECALL_FLOOR}")
    });
    report.attempted = tally.attempted;
    report.failed = tally.unsuccessful();
    let lat = &open.latency_ms;
    report.note(format!(
        "knn_read: {n} rows x {DIM} in {} shards, k={K}, default ServeConfig/RouterConfig \
         (hedging on); nproc {}; seed {}",
        router.sharded().num_shards(),
        args.nproc,
        args.seed
    ));
    report.note(format!(
        "open loop: {OPEN_RATE_PER_S}/s from {threads} generator threads for {:.1} s, \
         uniform keys, repeated-key share {:.4}; latency {}; generator lateness {}",
        open_for.as_secs_f64(),
        repeated_share(&open.keys),
        lat.describe("ms"),
        open.late_ms.describe("ms"),
    ));
    report.note(format!(
        "closed loop: {threads} clients, qps {:.1} ({} completions in {:.2} s)",
        closed.per_second(),
        closed.completed,
        closed.seconds
    ));
    report.note(format!(
        "recall_at_10 {recall:.4} (score-matched, {RECALL_QUERIES} queries, floor {RECALL_FLOOR}); \
         ann.build_ms {build_ms}; setup_s fastest of {reps}: {setups:?}"
    ));
    report.note(format!(
        "fail_frac {} ({})",
        report.failed as f64 / report.attempted.max(1) as f64,
        tally.describe()
    ));
    crate::end_to_end(
        &mut report,
        fastest(&setups),
        crate::peak_rss_mb(),
        lat.percentile(1.0).unwrap_or(0.0),
    );
    report
}

/// One request's re-issued parts, in µs.
#[derive(Default)]
pub struct Parts {
    routed: Samples,
    locate: Samples,
    leg: Samples,
    legs_sum: Samples,
    legs_max: Samples,
    router_self: Samples,
    legs: u64,
    ann_legs: u64,
    attributed: f64,
    routed_total: f64,
}

/// Re-issues the parts of one routed query outside the router: `locate`,
/// then each shard's `knn_vector` with the query row, norm and exclusion
/// the router uses. Returns (locate µs, per-leg µs and ANN flags).
pub fn reissue(router: &Router, key: usize) -> Option<(f64, Vec<(f64, bool)>)> {
    let sharded = router.sharded();
    let t0 = Instant::now();
    let (owner, local) = sharded.locate(key).ok()?;
    let locate = us(t0.elapsed());
    let gen = sharded.shard(owner).store.snapshot()?;
    let query = gen.embeddings().row_slice(local).to_vec();
    let norm = gen.row_norm(local);
    drop(gen);
    let mut legs = Vec::with_capacity(sharded.num_shards());
    for (si, shard) in sharded.shards().iter().enumerate() {
        let exclude = (si == owner).then_some(local);
        let t = Instant::now();
        let knn = shard
            .store
            .knn_vector(&query, norm, exclude, K, router.deadline())
            .ok()?;
        legs.push((us(t.elapsed()), knn.ann));
    }
    Some((locate, legs))
}

/// Records one traced request into `parts`.
pub fn record_parts(parts: &Mutex<Parts>, routed_us: f64, re: Option<(f64, Vec<(f64, bool)>)>) {
    let Some((locate, legs)) = re else { return };
    let sum: f64 = legs.iter().map(|l| l.0).sum();
    let max = legs.iter().map(|l| l.0).fold(0.0, f64::max);
    let mut p = parts
        .lock()
        .expect("a generator thread panicked while recording");
    p.routed.push(routed_us);
    p.locate.push(locate);
    for &(t, ann) in &legs {
        p.leg.push(t);
        p.legs += 1;
        p.ann_legs += u64::from(ann);
    }
    p.legs_sum.push(sum);
    p.legs_max.push(max);
    p.router_self.push(routed_us - locate - sum);
    p.attributed += locate + sum;
    p.routed_total += routed_us;
}

/// The routed-read layer rows shared by `knn_read` and `edit_churn`.
pub fn serve_layers(report: &mut Report, workload: &str, p: &Parts) {
    let mut layer =
        |name: &str, v: f64, unit: &'static str| crate::layer(report, workload, name, v, unit);
    layer("serve.router.self_p50_us", p.router_self.p50(), "us");
    layer(
        "serve.router.self_p99_us",
        p.router_self.percentile(99.0).unwrap_or(0.0),
        "us",
    );
    layer("serve.store.legs_sum_us", p.legs_sum.p50(), "us");
}

/// Traced run: an untraced open-loop phase, then a traced one where each
/// routed call is followed by its re-issued parts.
fn traced(
    args: &Args,
    router: &Router,
    build_ms: u64,
    contract: &Contract,
    mut report: Report,
) -> Report {
    let n = router.sharded().num_segments();
    let half = args.seconds / 2;
    let threads = args.nproc;
    let untraced_calls = Mutex::new(Samples::default());
    let plain = open_loop(
        Schedule {
            start: Instant::now(),
            rate_per_s: OPEN_RATE_PER_S,
            duration: half,
        },
        threads,
        |i| {
            let key = request_key(args.seed, i, n);
            let t0 = Instant::now();
            let r = router.knn(key, K, router.deadline());
            let t = us(t0.elapsed());
            untraced_calls
                .lock()
                .expect("a generator thread panicked while recording")
                .push(t);
            (contract.outcome(r), key)
        },
    );
    let parts = Mutex::new(Parts::default());
    let hedges0 = router.hedges_fired();
    let traced_phase = open_loop(
        Schedule {
            start: Instant::now(),
            rate_per_s: OPEN_RATE_PER_S,
            duration: half,
        },
        threads,
        |i| {
            let key = request_key(args.seed ^ 0x7ACE, i, n);
            let t0 = Instant::now();
            let r = router.knn(key, K, router.deadline());
            let routed = us(t0.elapsed());
            let o = contract.outcome(r);
            if o == Outcome::Ok {
                record_parts(&parts, routed, reissue(router, key));
            }
            (o, key)
        },
    );
    let hedges = router.hedges_fired() - hedges0;
    let p = parts.into_inner().expect("recording finished");
    let untraced = untraced_calls.into_inner().expect("recording finished");
    let mut tally = plain.tally;
    tally.add(traced_phase.tally);
    report.attempted = tally.attempted;
    report.failed = tally.unsuccessful();
    report.check(
        tally.partial == 0 && contract.malformed.load(Ordering::Relaxed) == 0,
        || "partial or malformed answers".into(),
    );
    report.note(format!(
        "traced knn_read: {} untraced + {} traced requests at {OPEN_RATE_PER_S}/s, {threads} \
         generator threads; {} legs re-issued",
        plain.tally.attempted, traced_phase.tally.attempted, p.legs
    ));
    {
        let mut layer = |name: &str, v: f64, unit: &'static str| {
            crate::layer(&mut report, "knn_read", name, v, unit)
        };
        layer("serve.router.knn_us", p.routed.p50(), "us");
        layer("serve.shard.locate_us", p.locate.p50(), "us");
        layer("serve.store.leg_us", p.leg.p50(), "us");
        layer("serve.store.legs_max_us", p.legs_max.p50(), "us");
        layer(
            "serve.store.ann_share",
            p.ann_legs as f64 / p.legs.max(1) as f64,
            "fraction",
        );
        layer(
            "serve.router.hedges_per_kq",
            hedges as f64 * 1e3 / traced_phase.tally.attempted.max(1) as f64,
            "count",
        );
        layer("ann.build_ms", build_ms as f64, "ms");
        layer(
            "loadgen.late_p99_ms",
            plain.late_ms.percentile(99.0).unwrap_or(0.0),
            "ms",
        );
        layer(
            "knn_read.attributed_share",
            p.attributed / p.routed_total.max(1e-9),
            "fraction",
        );
        layer(
            "trace.overhead_share",
            (p.routed.p50() - untraced.p50()) / untraced.p50().max(1e-9),
            "fraction",
        );
    }
    serve_layers(&mut report, "knn_read", &p);
    report
}
