//! `edit_churn`: one writer drives `Pipeline::process_batch` in a closed
//! loop while an open-loop reader queries the served generation. Its
//! traced run also times the training layers (`crate::train`).

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sarn_core::checkpoint::{latest_checkpoint, tmp_sibling};
use sarn_core::{try_train, Checkpoint, SarnConfig, SpatialSimilarity};
use sarn_pipeline::{Cursor, EditBatch, LiveNetwork, Pipeline, PipelineConfig, ServeFront, Stage};
use sarn_roadnet::{City, RoadNetwork};
use sarn_serve::{EmbeddingStore, Router, RouterConfig, ServeConfig, ShardedStore};
use sarn_tensor::{Tensor, TensorExpectation};

use crate::gen::{edit_stream, request_key};
use crate::knn::{record_parts, reissue, serve_layers, Contract, Parts, K};
use crate::loadgen::{closed_loop, ms, open_loop, us, OpenLoop, Outcome};
use crate::report::Report;
use crate::stats::{fastest, median, percentile, repeated_share, Schedule};
use crate::train::{harness_config, harness_network};
use crate::Args;

/// The harness's default Chengdu scale: 405 segments, so a batch's 3-hop
/// receptive field is the whole graph and every shard sits far below the
/// ANN threshold (reads take the exact scan).
const NET_SCALE: f64 = 0.45;
const SHARDS: usize = 4;
/// Warm-start retrain length per batch (and for the bootstrap).
const RETRAIN_EPOCHS: usize = 1;
/// Closed-loop capacity of one client reading the bootstrapped router
/// (405 rows in 4 exact-scan shards, hedging on), measured at the commit
/// that introduced this workload: 5.0–5.1k reads/s on 2 vCPUs. Every run
/// measures it again before the churn and records it beside the rate.
const MEASURED_READ_CAPACITY_PER_S: f64 = 5000.0;
/// Share of that capacity the concurrent reader offers. At 4% the reader
/// keeps one core about 4% busy, so it samples read latency beside the
/// writer without taking the second core from it (a change that makes
/// training use both cores then shows up as read latency), and a 30 s
/// run still gets 6,000 reads, 60 of them beyond the p99.
const READ_LOAD: f64 = 0.04;
/// Open-loop rate of the single concurrent reader: 200/s.
pub const READ_RATE_PER_S: f64 = READ_LOAD * MEASURED_READ_CAPACITY_PER_S;
/// Segments probed after every batch: router vs a store loaded from the
/// exported artifact.
const PROBES: usize = 8;
/// Set-ups before the churn in an untraced run.
const SETUP_REPS: usize = 9;
/// The churn makes one more set-up after every this many batches, so the
/// set-ups span the whole run and `setup_s`, the fastest of them, does
/// not hang on the host's speed during the first two seconds.
const SETUP_EVERY: usize = 5;
/// Length of the closed-loop read phase, before the churn starts, that
/// measures the reader's capacity the open-loop rate is a share of.
const CAPACITY_PROBE: Duration = Duration::from_secs(1);
/// Batches generated up front; a run uses as many as fit in its time.
const STREAM_LEN: usize = 20_000;
/// Share of a traced run spent on the churn; the rest replays `try_train`
/// to time the training layers.
const TRACED_CHURN_SHARE: f64 = 0.5;

fn pipeline_config(net: &RoadNetwork, seed: u64, dir: &Path) -> PipelineConfig {
    let mut train = harness_config(net, seed, RETRAIN_EPOCHS);
    train.checkpoint_every = 1;
    train.checkpoint_dir = Some(dir.join("ckpt"));
    let mut cfg = PipelineConfig::new(train, ServeConfig::default(), dir);
    cfg.serve_shards = SHARDS;
    cfg
}

fn artifact(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation:06}.emb"))
}

fn bits(n: &[(usize, f32)]) -> Vec<(usize, u32)> {
    n.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// The served answers for a fixed probe set equal, bit for bit, those of
/// a single store loaded from the exported artifact of `generation`.
fn probe_check(p: &Pipeline, dir: &Path, generation: u64) -> Result<(), String> {
    let router = p.front().router().ok_or("no router after a batch")?;
    let net = p.live().network();
    let store = EmbeddingStore::for_network(net, router.sharded().dim(), ServeConfig::default())
        .map_err(|e| format!("probe store: {e}"))?;
    store
        .reload(artifact(dir, generation))
        .map_err(|e| format!("probe store reload: {e}"))?;
    let n = net.num_segments();
    for probe in (0..PROBES).map(|i| i * n / PROBES) {
        let routed = router
            .knn(probe, K, router.deadline())
            .map_err(|e| format!("routed probe {probe}: {e}"))?;
        let single = store
            .knn(probe, K, store.deadline())
            .map_err(|e| format!("store probe {probe}: {e}"))?;
        if !routed.coverage.complete() || bits(&routed.neighbors) != bits(&single.neighbors) {
            return Err(format!(
                "generation {generation}: probe {probe} routed {:?} != exported {:?}",
                routed.neighbors, single.neighbors
            ));
        }
    }
    Ok(())
}

/// Concurrent open-loop reads through `ServeFront::router()`, re-fetched
/// per request; with `parts`, each answered read is followed by its
/// re-issued locate and shard legs.
fn reader<'a>(
    front: Arc<ServeFront>,
    seed: u64,
    duration: Duration,
    contract: &'a Contract,
    parts: Option<&'a Mutex<Parts>>,
) -> impl FnOnce() -> OpenLoop + Send + 'a {
    move || {
        let schedule = Schedule {
            start: Instant::now(),
            rate_per_s: READ_RATE_PER_S,
            duration,
        };
        open_loop(schedule, 1, |i| {
            let Some(router) = front.router() else {
                return (Outcome::Failed, 0);
            };
            let key = request_key(seed, i, router.sharded().num_segments());
            let t0 = Instant::now();
            let r = router.knn(key, K, router.deadline());
            let routed = us(t0.elapsed());
            let o = contract.outcome(r);
            if let (Some(parts), Outcome::Ok) = (parts, o) {
                record_parts(parts, routed, reissue(&router, key));
            }
            (o, key)
        })
    }
}

/// Removes the run's state directory, and its parent once empty, when
/// dropped.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        correct: true,
        ..Default::default()
    };
    let state =
        StateDir(PathBuf::from(".bench_state").join(format!("edit_churn-{}", std::process::id())));
    let net = harness_network(City::Chengdu, NET_SCALE);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..reps {
        drop(built.take());
        match setup(&net, args.seed, &state.0.join(format!("run-{rep}"))) {
            Ok((p, cfg, dir, secs)) => {
                setups.push(secs);
                built = Some((p, cfg, dir));
            }
            Err(e) => {
                report.check(false, || e);
                return report;
            }
        }
    }
    let (mut pipeline, cfg, dir) = built.expect("at least one set-up");
    let churn_for = if args.trace {
        args.seconds.mul_f64(TRACED_CHURN_SHARE)
    } else {
        args.seconds
    };
    let stream = edit_stream(&net, args.seed, STREAM_LEN);
    let contract = Contract::default();
    let front = pipeline.front();
    let capacity = closed_loop(CAPACITY_PROBE, 1, |i| match front.router() {
        Some(router) => {
            let key = request_key(args.seed ^ 0x00C1_05ED, i, router.sharded().num_segments());
            contract.outcome(router.knn(key, K, router.deadline()))
        }
        None => Outcome::Failed,
    });
    let parts = Mutex::new(Parts::default());
    let mut shadow = if args.trace {
        match Shadow::bootstrap(&net, &cfg, &state.0.join("shadow")) {
            Ok(s) => Some(s),
            Err(e) => {
                report.check(false, || format!("shadow bootstrap: {e}"));
                return report;
            }
        }
    } else {
        None
    };

    let mut walls = Vec::new();
    let mut shadow_walls = Vec::new();
    let mut stage_rows: Vec<Stages> = Vec::new();
    let mut kinds = Vec::new();
    let mut artifacts_match = true;
    let mut fallbacks = 0usize;
    let mut batch_failures = 0u64;
    let start = Instant::now();
    let read_seed = args.seed ^ 0x5245_4144;
    let reads = std::thread::scope(|s| {
        let reads = s.spawn(reader(
            pipeline.front(),
            read_seed,
            churn_for,
            &contract,
            args.trace.then_some(&parts),
        ));
        let mut generation = pipeline.generation();
        for (kind, bytes) in &stream {
            if !walls.is_empty() && start.elapsed() >= churn_for {
                break;
            }
            if !args.trace && !walls.is_empty() && walls.len() % SETUP_EVERY == 0 {
                let extra = state.0.join(format!("setup-{}", setups.len()));
                match setup(&net, args.seed, &extra) {
                    Ok((p, _, _, secs)) => {
                        setups.push(secs);
                        drop(p);
                    }
                    Err(e) => report.check(false, || e),
                }
                let _ = std::fs::remove_dir_all(&extra);
            }
            let t0 = Instant::now();
            let result = pipeline.process_batch(bytes);
            let wall = t0.elapsed();
            let rep = match result {
                Ok(rep) => rep,
                Err(e) => {
                    batch_failures += 1;
                    report.check(false, || format!("process_batch: {e}"));
                    break;
                }
            };
            walls.push(ms(wall));
            kinds.push(*kind);
            fallbacks += usize::from(rep.used_fallback);
            report.check(rep.generation == generation + 1, || {
                format!("generation went {generation} -> {}", rep.generation)
            });
            generation = rep.generation;
            if let Err(e) = probe_check(&pipeline, &dir, generation) {
                report.check(false, || e);
            }
            if let Some(sh) = shadow.as_mut() {
                let t0 = Instant::now();
                match sh.replay(bytes) {
                    Ok((stages, path)) => {
                        shadow_walls.push(ms(t0.elapsed()));
                        artifacts_match &= same_bytes(&path, &artifact(&dir, generation));
                        stage_rows.push(stages);
                    }
                    Err(e) => {
                        report.check(false, || format!("shadow replay: {e}"));
                        break;
                    }
                }
            }
        }
        reads.join().expect("the reader thread panicked")
    });

    let rebuilt = SpatialSimilarity::build(pipeline.live().network(), &cfg.train.similarity);
    let edge_bits = |e: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
        e.iter().map(|&(i, j, w)| (i, j, w.to_bits())).collect()
    };
    report.check(
        edge_bits(pipeline.live().spatial_edges()) == edge_bits(rebuilt.edges()),
        || "incrementally repaired A^s differs from a from-scratch build".into(),
    );
    let malformed = contract.malformed.load(Ordering::Relaxed);
    report.check(malformed == 0, || {
        format!("{malformed} malformed concurrent answers")
    });

    let batches = walls.len() as u64;
    let mut tally = reads.tally;
    tally.add(capacity.tally);
    tally.attempted += batches + batch_failures;
    tally.succeeded += batches;
    tally.failed += batch_failures;
    report.attempted = tally.attempted;
    report.failed = tally.unsuccessful();
    let preserving = kinds.iter().filter(|k| k.preserves_size()).count();
    report.note(format!(
        "edit_churn: Chengdu x{NET_SCALE} = {} segments, {SHARDS} shards (exact scan), \
         checkpointing on, {RETRAIN_EPOCHS}-epoch warm-start retrain per batch; nproc {}; seed {}",
        net.num_segments(),
        args.nproc,
        args.seed
    ));
    report.note(format!(
        "edit_to_served_s {:.4} s (median of {batches} batches, {preserving} size-preserving); \
         batch wall p1 {:.4} p10 {:.4} ms; {fallbacks} last-known-good fallbacks; setup_s \
         fastest of {} ({reps} before the churn, then one every {SETUP_EVERY} batches when \
         untraced): {setups:?}",
        median(&walls) / 1e3,
        percentile(&walls, 1.0),
        percentile(&walls, 10.0),
        setups.len(),
    ));
    report.note(format!(
        "read capacity before the churn: {:.1}/s (closed loop, 1 client, {} completions in \
         {:.2} s); the open-loop rate is {:.3} of it",
        capacity.per_second(),
        capacity.completed,
        capacity.seconds,
        READ_RATE_PER_S / capacity.per_second().max(1e-9),
    ));
    report.note(format!(
        "concurrent reads: open loop {READ_RATE_PER_S}/s, 1 generator thread, uniform keys, \
         repeated-key share {:.4}; latency {} (counted, never compared); generator lateness {}",
        repeated_share(&reads.keys),
        reads.latency_ms.describe("ms"),
        reads.late_ms.describe("ms"),
    ));
    report.note(format!(
        "fail_frac {} (concurrent reads: {}; capacity reads: {}; batches: {batches} ok, \
         {batch_failures} failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        reads.tally.describe(),
        capacity.tally.describe()
    ));

    if args.trace {
        let p = parts.into_inner().expect("recording finished");
        traced_rows(
            &mut report,
            &stage_rows,
            &walls,
            &shadow_walls,
            artifacts_match,
            &p,
        );
        let late = reads.late_ms.percentile(99.0).unwrap_or(0.0);
        crate::layer(&mut report, "edit_churn", "loadgen.late_p99_ms", late, "ms");
        crate::train::replay_layers(
            &net,
            &harness_config(&net, args.seed, RETRAIN_EPOCHS),
            args.seconds.saturating_sub(churn_for),
            &mut report,
        );
        return report;
    }
    crate::end_to_end(
        &mut report,
        fastest(&setups),
        crate::peak_rss_mb(),
        percentile(&walls, 1.0),
    );
    report
}

/// One set-up: the `Pipeline::new` bootstrap in a fresh state directory.
/// Returns the pipeline, its config, the directory and the wall time in s.
fn setup(
    net: &RoadNetwork,
    seed: u64,
    dir: &Path,
) -> Result<(Pipeline, PipelineConfig, PathBuf, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = pipeline_config(net, seed, dir);
    let t0 = Instant::now();
    let p = Pipeline::new(cfg.clone(), net.clone()).map_err(|e| format!("Pipeline::new: {e}"))?;
    Ok((p, cfg, dir.to_path_buf(), t0.elapsed().as_secs_f64()))
}

fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

/// One replayed batch's stage times.
#[derive(Debug, Default)]
struct Stages {
    decode_us: f64,
    validate_us: f64,
    repair_ms: f64,
    cursor_us: Vec<f64>,
    retrain_ms: f64,
    export_ms: f64,
    reload_ms: f64,
    swapped_share: f64,
    join_ms: f64,
}

impl Stages {
    /// Σ stage times in ms; the extra `A^s` join is timed separately and
    /// not part of the replayed batch.
    fn attributed_ms(&self) -> f64 {
        (self.decode_us + self.validate_us + self.cursor_us.iter().sum::<f64>()) / 1e3
            + self.repair_ms
            + self.retrain_ms
            + self.export_ms
            + self.reload_ms
    }
}

/// A second pipeline state built the same way as the real one, advanced
/// through the public calls of each stage so each can be timed.
struct Shadow {
    live: LiveNetwork,
    dir: PathBuf,
    train: SarnConfig,
    router: Option<Router>,
    cursor: Cursor,
}

impl Shadow {
    fn bootstrap(net: &RoadNetwork, cfg: &PipelineConfig, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut train = cfg.train.clone();
        train.checkpoint_dir = Some(dir.join("ckpt"));
        let mut s = Self {
            live: LiveNetwork::new(net.clone(), &train.similarity),
            dir: dir.to_path_buf(),
            train,
            router: None,
            cursor: Cursor::default(),
        };
        let mut stages = Stages::default();
        let emb = s.retrain(&mut stages)?;
        let path = s.export(&emb, 1, &mut stages)?;
        s.reload(&path, emb.cols(), &mut stages)?;
        s.cursor = Cursor {
            completed: 0,
            inflight: None,
            generation: 1,
        };
        s.save_cursor(&mut stages)?;
        Ok(s)
    }

    fn save_cursor(&self, st: &mut Stages) -> Result<(), String> {
        let t0 = Instant::now();
        self.cursor
            .save(&self.dir.join("pipeline.cursor"))
            .map_err(|e| e.to_string())?;
        st.cursor_us.push(us(t0.elapsed()));
        Ok(())
    }

    fn mark(&mut self, stage: Stage, st: &mut Stages) -> Result<(), String> {
        self.cursor.inflight = Some(stage);
        self.save_cursor(st)
    }

    /// Warm-started `try_train` from the newest compatible checkpoint,
    /// including the probe and the run's own checkpoint writes.
    fn retrain(&mut self, st: &mut Stages) -> Result<Tensor, String> {
        let t0 = Instant::now();
        let mut tcfg = self.train.clone();
        tcfg.resume_from = None;
        tcfg.resume_auto = false;
        let fp = tcfg.fingerprint();
        tcfg.warm_start_from = tcfg
            .checkpoint_dir
            .as_deref()
            .and_then(|d| latest_checkpoint(d, Some(fp)))
            .filter(|p| Checkpoint::probe_header(p).is_ok_and(|m| m.fingerprint == fp));
        let trained = try_train(self.live.network(), &tcfg).map_err(|e| e.to_string())?;
        st.retrain_ms = ms(t0.elapsed());
        Ok(trained.embeddings)
    }

    /// tmp sibling + `Tensor::save` + `load_validated` read-back + rename.
    fn export(&self, emb: &Tensor, generation: u64, st: &mut Stages) -> Result<PathBuf, String> {
        let t0 = Instant::now();
        let path = artifact(&self.dir, generation);
        let tmp = tmp_sibling(&path);
        emb.save(&tmp).map_err(|e| e.to_string())?;
        Tensor::load_validated(&tmp, &expect(emb.rows(), emb.cols())).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
        st.export_ms = ms(t0.elapsed());
        Ok(path)
    }

    /// Load the artifact, then swap the changed shards in place, or build
    /// a fresh sharded store and router when the segment count moved.
    fn reload(&mut self, path: &Path, dim: usize, st: &mut Stages) -> Result<(), String> {
        let t0 = Instant::now();
        let net = self.live.network();
        let emb = Tensor::load_validated(path, &expect(net.num_segments(), dim))
            .map_err(|e| e.to_string())?;
        match &self.router {
            Some(r) if r.sharded().num_segments() == net.num_segments() => {
                let swapped = r.sharded().admit_changed(&emb).map_err(|e| e.to_string())?;
                st.swapped_share = swapped.len() as f64 / r.sharded().num_shards() as f64;
            }
            _ => {
                let sharded = ShardedStore::for_network(net, dim, ServeConfig::default(), SHARDS)
                    .map_err(|e| e.to_string())?;
                sharded.admit(&emb).map_err(|e| e.to_string())?;
                let rcfg = RouterConfig {
                    num_shards: SHARDS,
                    ..RouterConfig::default()
                };
                self.router = Some(Router::new(sharded, rcfg));
                st.swapped_share = 1.0;
            }
        }
        st.reload_ms = ms(t0.elapsed());
        Ok(())
    }

    /// One batch through decode, validate, repair, retrain, export and
    /// reload, with the cursor saved at each transition as the pipeline
    /// does. Returns the stage times and the exported artifact.
    fn replay(&mut self, bytes: &[u8]) -> Result<(Stages, PathBuf), String> {
        let mut st = Stages::default();
        let t0 = Instant::now();
        let batch = EditBatch::decode(bytes).map_err(|e| e.to_string())?;
        st.decode_us = us(t0.elapsed());
        let t0 = Instant::now();
        self.live.validate(&batch).map_err(|e| e.to_string())?;
        st.validate_us = us(t0.elapsed());
        self.mark(Stage::Applied, &mut st)?;
        let t0 = Instant::now();
        self.live.apply(&batch).map_err(|e| e.to_string())?;
        st.repair_ms = ms(t0.elapsed());
        self.mark(Stage::Repaired, &mut st)?;
        let emb = self.retrain(&mut st)?;
        self.mark(Stage::Retrained, &mut st)?;
        let generation = self.cursor.generation + 1;
        let path = self.export(&emb, generation, &mut st)?;
        self.mark(Stage::Exported, &mut st)?;
        self.reload(&path, emb.cols(), &mut st)?;
        self.cursor = Cursor {
            completed: self.cursor.completed + 1,
            inflight: None,
            generation,
        };
        self.save_cursor(&mut st)?;
        let t0 = Instant::now();
        let _ = SpatialSimilarity::build(self.live.network(), &self.train.similarity);
        st.join_ms = ms(t0.elapsed());
        Ok((st, path))
    }
}

fn expect(rows: usize, cols: usize) -> TensorExpectation {
    TensorExpectation {
        rows: Some(rows),
        cols: Some(cols),
        finite: true,
    }
}

fn traced_rows(
    report: &mut Report,
    stages: &[Stages],
    walls: &[f64],
    shadow_walls: &[f64],
    matched: bool,
    parts: &Parts,
) {
    let m = |f: &dyn Fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let cursor: Vec<f64> = stages
        .iter()
        .flat_map(|s| s.cursor_us.iter().copied())
        .collect();
    let shares: Vec<f64> = stages
        .iter()
        .zip(shadow_walls)
        .map(|(s, w)| s.attributed_ms() / w)
        .collect();
    report.note(format!(
        "traced edit_churn: {} batches replayed on a shadow state; artifacts match {matched}",
        stages.len()
    ));
    let rows = [
        ("pipeline.edit.decode_us", m(&|s| s.decode_us), "us"),
        ("pipeline.live.validate_us", m(&|s| s.validate_us), "us"),
        ("pipeline.live.repair_ms", m(&|s| s.repair_ms), "ms"),
        ("pipeline.cursor.save_us", median(&cursor), "us"),
        ("core.train.retrain_ms", m(&|s| s.retrain_ms), "ms"),
        ("core.similarity.join_ms", m(&|s| s.join_ms), "ms"),
        ("tensor.io.export_ms", m(&|s| s.export_ms), "ms"),
        ("serve.shard.reload_ms", m(&|s| s.reload_ms), "ms"),
        (
            "serve.shard.swapped_share",
            m(&|s| s.swapped_share),
            "fraction",
        ),
        ("edit_churn.attributed_share", median(&shares), "fraction"),
        (
            "trace.overhead_share",
            (median(shadow_walls) - median(walls)) / median(walls).max(1e-9),
            "fraction",
        ),
        (
            "edit_churn.replay_artifact_match",
            f64::from(u8::from(matched)),
            "bool",
        ),
    ];
    for (name, v, unit) in rows {
        crate::layer(report, "edit_churn", name, v, unit);
    }
    serve_layers(report, "edit_churn", parts);
}
