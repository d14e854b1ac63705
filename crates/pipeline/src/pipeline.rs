//! The supervised online loop: edits → repair → warm-start retrain →
//! atomic export → hot-swap reload, every stage under bounded retry and
//! a durable cursor.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use sarn_core::checkpoint::{latest_checkpoint, tmp_sibling, ParamStoreSnapshot};
use sarn_core::watchdog::{FaultKind, FaultSpec, TrainError};
use sarn_core::{try_train, warm_start_apply, Augmenter, Checkpoint, SarnConfig, SarnModel};
use sarn_roadnet::RoadNetwork;
use sarn_serve::{
    EmbeddingStore, HealthReport, LoadFault, Router, RouterConfig, ServeConfig, ShardedStore,
};
use sarn_tensor::{Tensor, TensorExpectation};

use crate::cursor::{Cursor, CursorError, Stage};
use crate::edit::EditBatch;
use crate::error::{PipelineError, PipelineFault, PipelineFaultKind};
use crate::live::{AppliedStats, LiveNetwork};

/// Knobs of the online pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Training configuration for the bootstrap run and every retrain.
    /// `checkpoint_dir` + `checkpoint_every` should be set: checkpoints
    /// are both the warm-start source and the disk-backed tier of the
    /// last-known-good fallback. `resume_*`/`warm_start_from` are managed
    /// by the pipeline and overwritten per retrain.
    pub train: SarnConfig,
    /// Serve-store knobs (staleness SLO, reload retries, ...).
    pub serve: ServeConfig,
    /// Number of geo-partitioned serve shards. `0` or `1` keeps the
    /// classic single [`EmbeddingStore`] front; `>= 2` fronts queries
    /// with a [`Router`] over a [`ShardedStore`], and each batch
    /// hot-swaps only the shards whose row blocks actually changed
    /// ([`ShardedStore::admit_changed`]).
    pub serve_shards: usize,
    /// Where the cursor and exported `gen-*.emb` artifacts live.
    pub state_dir: PathBuf,
    /// Stage retries after the first attempt (total attempts = this + 1).
    pub max_stage_retries: usize,
    /// Sleep before a stage's first retry; doubles per subsequent retry.
    pub stage_backoff: Duration,
    /// Scheduled sabotage, in the training watchdog's `FaultSpec` mold.
    pub faults: Vec<PipelineFault>,
}

impl PipelineConfig {
    /// A pipeline with no faults and test-friendly retry pacing.
    pub fn new(train: SarnConfig, serve: ServeConfig, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            train,
            serve,
            state_dir: state_dir.into(),
            serve_shards: 0,
            max_stage_retries: 2,
            stage_backoff: Duration::from_millis(5),
            faults: Vec::new(),
        }
    }
}

/// What one processed batch did.
#[derive(Clone, Copy, Debug)]
pub struct BatchReport {
    /// 1-based ordinal of the batch.
    pub ordinal: u64,
    /// Pipeline generation its embeddings serve as.
    pub generation: u64,
    /// Edit counts and incremental-repair stats.
    pub stats: AppliedStats,
    /// `true` when retraining fell back to last-known-good parameters.
    pub used_fallback: bool,
}

/// The query-facing handle: an `Arc`-swapped [`EmbeddingStore`].
///
/// The store's geometry (segment count) is fixed at construction, so a
/// batch that changes the network's size installs a **new** store; a
/// same-size batch hot-reloads in place. Either way the flip is one
/// atomic pointer swap performed only *after* the new artifact loaded and
/// validated — a reader always sees a complete, self-consistent
/// generation, never a torn one. Store-local generation numbers restart
/// at 1 when the store is rebuilt; the durable pipeline generation lives
/// in the cursor.
pub struct ServeFront {
    cfg: ServeConfig,
    /// `>= 2` serves through the sharded router instead of one store.
    shards: usize,
    store: RwLock<Option<Arc<EmbeddingStore>>>,
    router: RwLock<Option<Arc<Router>>>,
}

impl ServeFront {
    fn new(cfg: ServeConfig, shards: usize) -> Self {
        Self {
            cfg,
            shards,
            store: RwLock::new(None),
            router: RwLock::new(None),
        }
    }

    /// The currently serving store, if any generation has been admitted.
    /// [`None`] in sharded mode — queries go through [`ServeFront::router`].
    pub fn store(&self) -> Option<Arc<EmbeddingStore>> {
        self.store
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The fault-isolating shard router, when `serve_shards >= 2` and a
    /// generation has been admitted.
    pub fn router(&self) -> Option<Arc<Router>> {
        self.router
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Health of the current front ([`None`] before the bootstrap
    /// generation is admitted). Sharded fronts report the per-shard-aware
    /// aggregate (worst shard wins).
    pub fn health(&self) -> Option<HealthReport> {
        if let Some(r) = self.router() {
            return Some(r.health());
        }
        self.store().map(|s| s.health())
    }

    /// Loads `path` into the serving position: in-place hot reload when
    /// the geometry still matches, otherwise a load into a fresh store
    /// that is swapped in only on success.
    fn reload_artifact(
        &self,
        net: &RoadNetwork,
        dim: usize,
        path: &Path,
        inject: bool,
    ) -> Result<(), PipelineError> {
        if self.shards >= 2 {
            return self.admit_sharded(net, dim, path, inject);
        }
        let fault = inject.then_some(LoadFault {
            fail_loads: 1,
            delay_ms: 0,
        });
        let current = self.store();
        match current {
            Some(s) if s.num_segments() == net.num_segments() && s.dim() == dim => {
                s.inject_fault(fault);
                s.reload(path)?;
            }
            _ => {
                let fresh = EmbeddingStore::for_network(net, dim, self.cfg)?;
                fresh.inject_fault(fault);
                fresh.reload(path)?;
                *self
                    .store
                    .write()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(Arc::new(fresh));
            }
        }
        Ok(())
    }

    /// Sharded-mode stage 5: load + validate the artifact, then admit it
    /// through the router's [`ShardedStore`]. When the geometry still
    /// matches, [`ShardedStore::admit_changed`] swaps only the shards
    /// whose row blocks differ bitwise — siblings keep their generation
    /// and readers mid-query on them are untouched. A size change builds
    /// a fresh sharded store + router that is swapped in only after the
    /// full artifact admitted.
    fn admit_sharded(
        &self,
        net: &RoadNetwork,
        dim: usize,
        path: &Path,
        inject: bool,
    ) -> Result<(), PipelineError> {
        if inject {
            // The sharded path reads the artifact here at the front, so
            // the reload I/O fault is injected here too: one failed load,
            // absorbed by the stage's bounded retry.
            return Err(PipelineError::Io {
                context: "loading artifact for sharded admit",
                source: std::io::Error::other("injected reload fault"),
            });
        }
        let embeddings = Tensor::load_validated(
            path,
            &TensorExpectation {
                rows: Some(net.num_segments()),
                cols: Some(dim),
                finite: true,
            },
        )?;
        match self.router() {
            Some(r)
                if r.sharded().num_segments() == net.num_segments() && r.sharded().dim() == dim =>
            {
                r.sharded().admit_changed(&embeddings)?;
            }
            _ => {
                let sharded = ShardedStore::for_network(net, dim, self.cfg, self.shards)?;
                sharded.admit(&embeddings)?;
                let rcfg = RouterConfig {
                    num_shards: self.shards,
                    ..RouterConfig::default()
                };
                *self
                    .router
                    .write()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) =
                    Some(Arc::new(Router::new(sharded, rcfg)));
            }
        }
        Ok(())
    }
}

/// Runs stage attempts under bounded retry with exponential backoff,
/// journaling every attempt as a `pipeline_stage` event.
fn run_stage<T>(
    batch: u64,
    stage: &'static str,
    retries: usize,
    mut backoff: Duration,
    mut attempt_fn: impl FnMut(usize) -> Result<T, PipelineError>,
) -> Result<T, PipelineError> {
    for attempt in 1usize.. {
        let t0 = Instant::now();
        let outcome = attempt_fn(attempt);
        if sarn_obs::enabled() {
            sarn_obs::counter("sarn_pipeline_stage_attempts_total").inc();
            sarn_obs::record(sarn_obs::Event::PipelineStage {
                batch,
                stage: stage.to_string(),
                attempt,
                ok: outcome.is_ok(),
                seconds: t0.elapsed().as_secs_f64(),
                error: outcome.as_ref().err().map(|e| e.to_string()),
            });
        }
        match outcome {
            Ok(v) => return Ok(v),
            Err(e) => {
                sarn_obs::counter("sarn_pipeline_stage_failures_total").inc();
                if attempt > retries {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    }
    unreachable!("retry loop returns")
}

/// The fault-tolerant online pipeline (DESIGN.md §14).
///
/// Owns the [`LiveNetwork`], the durable [`Cursor`], and the
/// [`ServeFront`]; [`Pipeline::process_batch`] drives one batch through
/// applying → repairing → retraining → exporting → reloading. Construct
/// with [`Pipeline::new`] (bootstraps generation 1 from the initial
/// network) or [`Pipeline::resume`] (rebuilds state from the cursor and
/// the durable edit log after a crash).
pub struct Pipeline {
    cfg: PipelineConfig,
    live: LiveNetwork,
    front: Arc<ServeFront>,
    cursor: Cursor,
    /// Embedding width, learned from the first trained artifact.
    dim: usize,
    /// In-memory tier of the last-known-good fallback: query-branch
    /// parameters of the most recent *healthy* retrain. The disk tier is
    /// the newest compatible checkpoint.
    last_good: Option<ParamStoreSnapshot>,
}

impl Pipeline {
    /// Builds the pipeline and bootstraps generation 1: train on the
    /// initial network (warm-started if a compatible checkpoint already
    /// exists), export, and load into the serve front — all under the
    /// same stage runner and fault hooks as regular batches (fault
    /// `batch` ordinal 0).
    pub fn new(cfg: PipelineConfig, net: RoadNetwork) -> Result<Self, PipelineError> {
        fs::create_dir_all(&cfg.state_dir).map_err(|source| PipelineError::Io {
            context: "creating pipeline state dir",
            source,
        })?;
        let live = LiveNetwork::new(net, &cfg.train.similarity);
        let front = Arc::new(ServeFront::new(cfg.serve, cfg.serve_shards));
        let mut p = Self {
            cfg,
            live,
            front,
            cursor: Cursor::default(),
            dim: 0,
            last_good: None,
        };
        p.train_export_reload(0)?;
        p.cursor = Cursor {
            completed: 0,
            inflight: None,
            generation: 1,
        };
        p.save_cursor()?;
        Ok(p)
    }

    /// Rebuilds a killed pipeline from its durable state: the cursor, the
    /// exported artifacts, and the caller-kept edit log (`batches[k]` =
    /// wire bytes of the k-th batch ever submitted, 0-based).
    ///
    /// Completed batches are re-applied deterministically (repair only —
    /// no retraining). An in-flight batch that had durably reached
    /// [`Stage::Exported`] is finished by reloading its artifact; one
    /// that died earlier is forgotten and must be resubmitted via
    /// [`Pipeline::process_batch`]. With no cursor on disk this is
    /// exactly [`Pipeline::new`].
    pub fn resume(
        cfg: PipelineConfig,
        net: RoadNetwork,
        batches: &[Vec<u8>],
    ) -> Result<Self, PipelineError> {
        let cursor_path = cfg.state_dir.join("pipeline.cursor");
        let cursor = match Cursor::load(&cursor_path) {
            Ok(c) => c,
            Err(CursorError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Self::new(cfg, net);
            }
            Err(e) => return Err(e.into()),
        };
        let mut live = LiveNetwork::new(net, &cfg.train.similarity);
        if (cursor.completed as usize) > batches.len() {
            return Err(PipelineError::ReplayMismatch(format!(
                "cursor says {} batches completed but the edit log holds only {}",
                cursor.completed,
                batches.len()
            )));
        }
        for (k, bytes) in batches[..cursor.completed as usize].iter().enumerate() {
            let batch = EditBatch::decode(bytes)?;
            live.apply(&batch).map_err(|e| {
                PipelineError::ReplayMismatch(format!("batch {} no longer applies: {e}", k + 1))
            })?;
        }
        let front = Arc::new(ServeFront::new(cfg.serve, cfg.serve_shards));
        let mut p = Self {
            cfg,
            live,
            front,
            cursor,
            dim: 0,
            last_good: None,
        };
        // Finish an in-flight batch whose artifact already made it to
        // disk: apply its edits, reload the artifact, no retraining.
        if p.cursor.inflight == Some(Stage::Exported) {
            let ord = p.cursor.completed as usize;
            let bytes = batches.get(ord).ok_or_else(|| {
                PipelineError::ReplayMismatch(format!(
                    "cursor has batch {} in flight but the edit log holds only {}",
                    ord + 1,
                    batches.len()
                ))
            })?;
            let batch = EditBatch::decode(bytes)?;
            p.live.apply(&batch)?;
            let gen = p.cursor.generation + 1;
            p.reload_stage(ord as u64 + 1, gen, false)?;
            p.cursor = Cursor {
                completed: p.cursor.completed + 1,
                inflight: None,
                generation: gen,
            };
            p.save_cursor()?;
        } else {
            // Anything short of Exported left nothing durable; the batch
            // will be redone from scratch when resubmitted.
            if p.cursor.inflight.is_some() {
                p.cursor.inflight = None;
                p.save_cursor()?;
            }
            if p.cursor.generation > 0 {
                let gen = p.cursor.generation;
                p.reload_stage(p.cursor.completed as u64, gen, false)?;
            }
        }
        Ok(p)
    }

    /// Number of batches fully processed.
    pub fn completed(&self) -> usize {
        self.cursor.completed as usize
    }

    /// Current pipeline generation (1 = bootstrap).
    pub fn generation(&self) -> u64 {
        self.cursor.generation
    }

    /// The query-facing serve handle, shareable across threads.
    pub fn front(&self) -> Arc<ServeFront> {
        Arc::clone(&self.front)
    }

    /// The live network and its incrementally repaired matrices.
    pub fn live(&self) -> &LiveNetwork {
        &self.live
    }

    fn cursor_path(&self) -> PathBuf {
        self.cfg.state_dir.join("pipeline.cursor")
    }

    fn save_cursor(&self) -> Result<(), PipelineError> {
        self.cursor.save(&self.cursor_path())?;
        Ok(())
    }

    fn artifact_path(&self, generation: u64) -> PathBuf {
        self.cfg.state_dir.join(format!("gen-{generation:06}.emb"))
    }

    fn fault_scheduled(&self, ordinal: u64, kind: PipelineFaultKind) -> bool {
        self.cfg
            .faults
            .iter()
            .any(|f| f.batch == ordinal && f.kind == kind)
    }

    /// Newest on-disk checkpoint whose probed header matches the training
    /// fingerprint (the [`Checkpoint::probe_header`] gate: a few hundred
    /// bytes read, no tensor sections).
    fn compatible_checkpoint(&self) -> Option<PathBuf> {
        let dir = self.cfg.train.checkpoint_dir.as_deref()?;
        let fp = self.cfg.train.fingerprint();
        let path = latest_checkpoint(dir, Some(fp))?;
        match Checkpoint::probe_header(&path) {
            Ok(meta) if meta.fingerprint == fp => Some(path),
            _ => None,
        }
    }

    /// Drives one batch end to end. On success the batch is durable: its
    /// artifact is on disk, the cursor advanced, and queries see the new
    /// generation. On error, nothing durable changed beyond the recorded
    /// stage — [`Pipeline::resume`] picks up from there.
    pub fn process_batch(&mut self, bytes: &[u8]) -> Result<BatchReport, PipelineError> {
        let _batch_span = sarn_obs::span!("sarn_pipeline_batch_seconds");
        let ordinal = self.cursor.completed as u64 + 1;
        let retries = self.cfg.max_stage_retries;
        let backoff = self.cfg.stage_backoff;

        // Stage 1 — applying: decode + validate, no mutation. A corrupt
        // record fails typed; retry re-reads the pristine bytes (as a
        // re-read from a durable log would).
        let corrupt = self.fault_scheduled(ordinal, PipelineFaultKind::CorruptEditRecord);
        let live_ref = &self.live;
        let batch = run_stage(ordinal, "applying", retries, backoff, |attempt| {
            let flipped;
            let data: &[u8] = if corrupt && attempt == 1 && !bytes.is_empty() {
                flipped = {
                    let mut b = bytes.to_vec();
                    let mid = b.len() / 2;
                    b[mid] ^= 0x20;
                    b
                };
                &flipped
            } else {
                bytes
            };
            let b = EditBatch::decode(data)?;
            live_ref.validate(&b)?;
            Ok(b)
        })?;
        self.cursor.inflight = Some(Stage::Applied);
        self.save_cursor()?;

        // Stage 2 — repairing: apply the edits, which interleaves the
        // A^t repairs (inside the RoadNetwork mutators) with the
        // localized A^s re-joins (SpatialIndex). The injected crash fires
        // *before* any mutation, so a retry starts from clean state —
        // matching a real kill, where the in-memory network dies with the
        // process and resume replays from the durable log.
        let crash = self.fault_scheduled(ordinal, PipelineFaultKind::MidRepairCrash);
        let live_mut = &mut self.live;
        let stats = run_stage(ordinal, "repairing", retries, backoff, |attempt| {
            if crash && attempt == 1 {
                return Err(PipelineError::InjectedCrash { stage: "repairing" });
            }
            Ok(live_mut.apply(&batch)?)
        })?;
        self.cursor.inflight = Some(Stage::Repaired);
        self.save_cursor()?;

        // Stages 3-5 — retrain, export, reload; shared with bootstrap.
        let used_fallback = self.train_export_reload(ordinal)?;
        let generation = self.cursor.generation + 1;
        self.cursor = Cursor {
            completed: self.cursor.completed + 1,
            inflight: None,
            generation,
        };
        self.save_cursor()?;
        sarn_obs::gauge("sarn_pipeline_generation").set(generation as f64);
        Ok(BatchReport {
            ordinal,
            generation,
            stats,
            used_fallback,
        })
    }

    /// Stages 3–5 for the current network state, producing pipeline
    /// generation `cursor.generation + 1`. Returns whether retraining
    /// fell back to last-known-good parameters.
    fn train_export_reload(&mut self, ordinal: u64) -> Result<bool, PipelineError> {
        let retries = self.cfg.max_stage_retries;
        let backoff = self.cfg.stage_backoff;
        let generation = self.cursor.generation + 1;

        // Stage 3 — retraining. Divergence and deadline overruns are NOT
        // retried (a deterministic retrain would fail identically);
        // they trigger the last-known-good fallback instead.
        let (embeddings, used_fallback) =
            run_stage(ordinal, "retraining", retries, backoff, |_attempt| {
                self.retrain(ordinal)
            })?;
        self.dim = embeddings.cols();
        if ordinal > 0 {
            self.cursor.inflight = Some(Stage::Retrained);
            self.save_cursor()?;
        }

        // Stage 4 — exporting: tmp + read-back validation + atomic
        // rename. A torn write is caught before the rename, so the final
        // path only ever holds complete, validated bytes.
        let torn = self.fault_scheduled(ordinal, PipelineFaultKind::TornExport);
        let path = self.artifact_path(generation);
        let emb_ref = &embeddings;
        run_stage(ordinal, "exporting", retries, backoff, |attempt| {
            export_artifact(&path, emb_ref, torn && attempt == 1)
        })?;
        if ordinal > 0 {
            self.cursor.inflight = Some(Stage::Exported);
            self.save_cursor()?;
        }

        // Stage 5 — reloading: hot-swap into the serve front.
        let inject = self.fault_scheduled(ordinal, PipelineFaultKind::ReloadIoFault);
        self.reload_stage(ordinal, generation, inject)?;
        Ok(used_fallback)
    }

    fn reload_stage(
        &mut self,
        ordinal: u64,
        generation: u64,
        inject: bool,
    ) -> Result<(), PipelineError> {
        let path = self.artifact_path(generation);
        if self.dim == 0 {
            // Resuming: learn the width from the artifact itself.
            self.dim = Tensor::load(&path)?.cols();
        }
        let front = &self.front;
        let net = self.live.network();
        let dim = self.dim;
        run_stage(
            ordinal,
            "reloading",
            self.cfg.max_stage_retries,
            self.cfg.stage_backoff,
            |attempt| front.reload_artifact(net, dim, &path, inject && attempt == 1),
        )
    }

    /// One retrain: warm-started from the newest compatible checkpoint,
    /// falling back to last-known-good parameters (in-memory snapshot,
    /// else newest compatible checkpoint) when training diverges or blows
    /// its deadline. Returns `(embeddings, used_fallback)`.
    fn retrain(&mut self, ordinal: u64) -> Result<(Tensor, bool), PipelineError> {
        let mut tcfg = self.cfg.train.clone();
        tcfg.resume_from = None;
        tcfg.resume_auto = false;
        tcfg.warm_start_from = self.compatible_checkpoint();
        if self.fault_scheduled(ordinal, PipelineFaultKind::DivergingRetrain) {
            // Sticky NaN gradient from the first batch on: the watchdog
            // rolls back, the fault re-fires, the tiny budget exhausts —
            // a deterministic TrainError::Diverged.
            tcfg.fault = Some(FaultSpec {
                epoch: 0,
                batch: 0,
                kind: FaultKind::NanGrad,
                sticky: true,
            });
            tcfg.watchdog.enabled = true;
            tcfg.watchdog.max_recoveries = 1;
        }
        match try_train(self.live.network(), &tcfg) {
            Ok(trained) => {
                self.last_good = Some(ParamStoreSnapshot::of(&trained.model.store));
                Ok((trained.embeddings, false))
            }
            Err(e @ (TrainError::Diverged(_) | TrainError::DeadlineExceeded { .. })) => {
                sarn_obs::counter("sarn_pipeline_fallbacks_total").inc();
                let emb = self.fallback_embeddings(e.to_string())?;
                Ok((emb, true))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Last-known-good embeddings for the *current* network: seed a fresh
    /// model from the newest healthy parameters (prefix-copying vocab
    /// tables whose row counts moved with the network) and embed without
    /// taking a single gradient step.
    fn fallback_embeddings(&self, cause: String) -> Result<Tensor, PipelineError> {
        let snapshot = match &self.last_good {
            Some(s) => s.clone(),
            None => match self.compatible_checkpoint() {
                Some(path) => Checkpoint::load(&path)?.query,
                None => return Err(PipelineError::NoFallback { cause }),
            },
        };
        let net = self.live.network();
        let mut model = SarnModel::new(net, &self.cfg.train);
        warm_start_apply(&snapshot, &mut model.store)?;
        let augmenter = Augmenter::new(
            net.num_segments(),
            net.topo_edges().to_vec(),
            self.live.spatial_edges().to_vec(),
            self.cfg.train.augment,
        );
        let edges = augmenter.full_view().edge_index();
        Ok(model.embed_detached(&model.store, &edges))
    }
}

/// Writes `embeddings` to `path` atomically: tmp sibling, optional
/// injected tear, read-back validation pinning shape and finiteness,
/// fsync of the tmp, rename. The tear is injected between write and
/// validation, so the validator — not luck — is what keeps torn bytes
/// from reaching the final path.
fn export_artifact(path: &Path, embeddings: &Tensor, tear: bool) -> Result<(), PipelineError> {
    let tmp = tmp_sibling(path);
    embeddings.save(&tmp)?;
    if tear {
        let len = fs::metadata(&tmp)
            .map_err(|source| PipelineError::Io {
                context: "statting artifact tmp",
                source,
            })?
            .len();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&tmp)
            .map_err(|source| PipelineError::Io {
                context: "opening artifact tmp for tear",
                source,
            })?;
        f.set_len(len / 2).map_err(|source| PipelineError::Io {
            context: "tearing artifact tmp",
            source,
        })?;
    }
    Tensor::load_validated(
        &tmp,
        &TensorExpectation {
            rows: Some(embeddings.rows()),
            cols: Some(embeddings.cols()),
            finite: true,
        },
    )?;
    fs::OpenOptions::new()
        .write(true)
        .open(&tmp)
        .and_then(|f| f.sync_all())
        .map_err(|source| PipelineError::Io {
            context: "syncing artifact tmp",
            source,
        })?;
    fs::rename(&tmp, path).map_err(|source| PipelineError::Io {
        context: "publishing artifact",
        source,
    })?;
    Ok(())
}
