//! SARN training (paper §4.5, Algorithm 1), with crash-safe periodic
//! checkpointing and bitwise-identical resume (see [`crate::checkpoint`]),
//! and an optional numerical-health watchdog with automatic
//! rollback-to-checkpoint recovery (see [`crate::watchdog`]).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::layers::EdgeIndex;
use sarn_tensor::optim::{Adam, CosineAnnealing, EarlyStopping};
use sarn_tensor::{Graph, ParamStore, Tensor, Var};

use crate::augment::Augmenter;
use crate::checkpoint::{
    self, Checkpoint, CheckpointError, CheckpointMeta, OptimState, ParamStoreSnapshot, QueueState,
};
use crate::config::{LossSimilarity, SarnConfig};
use crate::model::SarnModel;
use crate::queues::CellQueues;
use crate::similarity::SpatialSimilarity;
use crate::watchdog::{
    retry_seed, DivergenceReport, FaultKind, HealthViolation, RecoveryEvent, TrainError, Watchdog,
};

/// A trained SARN model plus its frozen road-segment embeddings.
pub struct SarnTrained {
    /// The model (both branches).
    pub model: SarnModel,
    /// Final `n x d` embeddings `H` from the query encoder on the
    /// uncorrupted graph.
    pub embeddings: Tensor,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f32>,
    /// Epochs actually run (early stopping may cut the budget short).
    pub epochs_run: usize,
    /// Wall-clock training time in seconds (Fig. 4).
    pub train_seconds: f64,
    /// Edge index of the uncorrupted graph (for fine-tuning forward passes).
    pub full_edges: EdgeIndex,
    /// Watchdog recoveries performed during training, in order (empty when
    /// the watchdog is disabled or the run stayed healthy).
    pub recoveries: Vec<RecoveryEvent>,
    cfg: SarnConfig,
}

impl SarnTrained {
    /// The configuration used at training time.
    pub fn config(&self) -> &SarnConfig {
        &self.cfg
    }

    /// Recomputes embeddings from the current query store (after
    /// fine-tuning the model in place).
    pub fn refresh_embeddings(&mut self) {
        self.embeddings = self
            .model
            .embed_detached(&self.model.store, &self.full_edges);
    }

    /// Persists the embeddings and both parameter branches to
    /// `<stem>.emb` / `<stem>.query` / `<stem>.momentum`.
    pub fn save(&self, stem: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let stem = stem.as_ref();
        self.embeddings.save(stem.with_extension("emb"))?;
        self.model.store.save(stem.with_extension("query"))?;
        self.model
            .store_momentum
            .save(stem.with_extension("momentum"))?;
        Ok(())
    }

    /// Restores parameters saved by [`SarnTrained::save`] into a model with
    /// the same configuration, then refreshes the embeddings.
    ///
    /// Both files are read and validated against the model's layout (names
    /// and shapes, in order) **before** any parameter is written, so a
    /// mismatch — e.g. a model built with a different `d` — errors out and
    /// leaves the model exactly as it was, never partially loaded.
    pub fn load_into(&mut self, stem: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let stem = stem.as_ref();
        let query = ParamStore::load(stem.with_extension("query"))?;
        let momentum = ParamStore::load(stem.with_extension("momentum"))?;
        self.model.store.validate_layout_of(&query)?;
        self.model.store_momentum.validate_layout_of(&momentum)?;
        self.model.store.copy_values_validated(&query)?;
        self.model.store_momentum.copy_values_validated(&momentum)?;
        self.refresh_embeddings();
        Ok(())
    }
}

/// Trains SARN on a road network (Algorithm 1) and returns the model and
/// embeddings.
///
/// # Panics
/// Panics if checkpointing or resuming is configured and fails (missing or
/// corrupt checkpoint, mismatched configuration, unwritable directory), or
/// if the training watchdog gives up after exhausting its retry budget;
/// use [`try_train`] to handle those as typed errors.
pub fn train(net: &RoadNetwork, cfg: &SarnConfig) -> SarnTrained {
    try_train(net, cfg).unwrap_or_else(|e| panic!("sarn training failure: {e}"))
}

/// [`train`] with failures surfaced as a typed [`TrainError`] instead of
/// panics: checkpoint/resume problems as [`TrainError::Checkpoint`], an
/// exhausted watchdog retry budget as [`TrainError::Diverged`].
pub fn try_train(net: &RoadNetwork, cfg: &SarnConfig) -> Result<SarnTrained, TrainError> {
    let start = Instant::now();
    cfg.obs.apply();
    sarn_par::set_num_threads(cfg.num_threads);
    let n = net.num_segments();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A4E);

    // Graph construction: A^t from the network, A^s per variant.
    let spatial_edges: Vec<(usize, usize, f64)> = if cfg.variant.uses_spatial_matrix() {
        SpatialSimilarity::build(net, &cfg.similarity)
            .edges()
            .to_vec()
    } else {
        Vec::new()
    };
    let augmenter = Augmenter::new(n, net.topo_edges().to_vec(), spatial_edges, cfg.augment);
    let full_view = augmenter.full_view();
    let full_edge_count = full_view.num_edges();
    let full_edges = full_view.edge_index();

    let mut model = SarnModel::new(net, cfg);
    let mut queues = cfg
        .variant
        .uses_grid_negatives()
        .then(|| CellQueues::with_readout(net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout));

    let mut opt = Adam::new(cfg.lr).with_clip_norm(cfg.clip_norm);
    let schedule = CosineAnnealing::new(cfg.lr, cfg.lr * 0.01, cfg.schedule_horizon() as u64);
    let mut stopper = EarlyStopping::new(cfg.patience);
    let mut loss_history: Vec<f32> = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();

    let fingerprint = cfg.fingerprint();
    let mut start_epoch = 0usize;
    let mut base_seconds = 0.0f64;
    let mut already_stopped = false;
    if cfg.warm_start_from.is_some() && (cfg.resume_from.is_some() || cfg.resume_auto) {
        return Err(CheckpointError::StateMismatch(
            "warm_start_from is mutually exclusive with resume_from/resume_auto: \
             a warm start begins a fresh run, a resume continues an old one"
                .to_string(),
        )
        .into());
    }
    let resume_path = match (&cfg.resume_from, cfg.resume_auto, &cfg.checkpoint_dir) {
        (Some(p), _, _) => Some(p.clone()),
        (None, true, Some(dir)) => checkpoint::latest_checkpoint(dir, Some(fingerprint)),
        _ => None,
    };
    if let Some(path) = resume_path {
        let ckpt = Checkpoint::load(&path)?;
        if ckpt.meta.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: ckpt.meta.fingerprint,
                found: fingerprint,
            }
            .into());
        }
        restore_state(
            &ckpt,
            n,
            &mut model,
            &mut opt,
            queues.as_mut(),
            &mut rng,
            &mut order,
        )?;
        loss_history = ckpt.meta.loss_history;
        // Replaying the history through a fresh stopper reproduces its
        // best/patience counters exactly (update order matches the
        // uninterrupted run).
        for &l in &loss_history {
            if stopper.update(l) {
                already_stopped = true;
            }
        }
        start_epoch = ckpt.meta.next_epoch as usize;
        base_seconds = ckpt.meta.train_seconds;
    }

    // Warm start: seed both parameter branches from a compatible
    // checkpoint, then proceed as a fresh run (epoch 0, fresh optimizer,
    // queues, and RNG) — the old weights initialize, nothing else carries
    // over. The online pipeline retrains this way after a network edit.
    if let Some(path) = &cfg.warm_start_from {
        // Probe first: an incompatible candidate is rejected on its META
        // section alone, before any tensor payload is read.
        let meta = Checkpoint::probe_header(path)?;
        if meta.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: meta.fingerprint,
                found: fingerprint,
            }
            .into());
        }
        let ckpt = Checkpoint::load(path)?;
        let applied = warm_start_apply(&ckpt.query, &mut model.store)?
            + warm_start_apply(&ckpt.momentum, &mut model.store_momentum)?;
        if sarn_obs::enabled() {
            sarn_obs::counter!("sarn_train_warm_starts_total").inc();
            sarn_obs::Registry::global()
                .gauge("sarn_train_warm_start_params_applied")
                .set(applied as f64);
        }
    }

    // Watchdog state. The rollback anchor is a full in-memory checkpoint
    // (the same structure the crash-safe subsystem persists), refreshed at
    // every healthy epoch boundary — recovery therefore works even when
    // disk checkpointing is off.
    let watching = cfg.watchdog.enabled;
    let mut watchdog = watching.then(|| Watchdog::new(cfg.watchdog));
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut lr_scale = 1.0f32;
    let mut fault_spent = false;
    let mut anchor: Option<Box<Checkpoint>> = watching.then(|| {
        Box::new(capture_state(
            fingerprint,
            start_epoch,
            base_seconds,
            &model,
            &opt,
            queues.as_ref(),
            &rng,
            &order,
            &loss_history,
        ))
    });

    let mut epoch = start_epoch;
    while epoch < cfg.max_epochs {
        if already_stopped {
            break;
        }
        // Deadline probe at the epoch boundary: a budgeted run that ran
        // out of wall clock aborts with a typed error rather than handing
        // back half-trained embeddings as if they were final.
        if cfg.max_train_seconds > 0.0 {
            let elapsed = base_seconds + start.elapsed().as_secs_f64();
            if elapsed > cfg.max_train_seconds {
                export_obs(&cfg.obs);
                return Err(TrainError::DeadlineExceeded {
                    elapsed_seconds: elapsed,
                    budget_seconds: cfg.max_train_seconds,
                    epochs_run: loss_history.len(),
                });
            }
        }
        let epoch_span = sarn_obs::span!("sarn_train_epoch_seconds");
        let epoch_lr = schedule.lr_at(epoch as u64) * lr_scale;
        opt.set_lr(epoch_lr);
        // Two-view sampling: the seeds are drawn serially from the main
        // stream (view 1's first), then each view is corrupted under its
        // own stream — so the pair of views is the same whether the two
        // tasks run concurrently or back-to-back.
        let (seed1, seed2) = (rng.next_u64(), rng.next_u64());
        let (view1, view2) = {
            let _aug = sarn_obs::span!("sarn_train_augment_seconds");
            sarn_par::join(
                || augmenter.corrupt_with_seed(seed1),
                || augmenter.corrupt_with_seed(seed2),
            )
        };
        let edges_removed = 2 * full_edge_count - view1.num_edges() - view2.num_edges();
        let (view1, view2) = (view1.edge_index(), view2.edge_index());
        order.shuffle(&mut rng);

        let mut epoch_loss = 0.0;
        let mut batches = 0;
        let mut violation: Option<HealthViolation> = None;
        for (batch_idx, batch) in order.chunks(cfg.batch_size).enumerate() {
            let _batch_span = sarn_obs::span!("sarn_train_batch_seconds");
            let fault = cfg
                .fault
                .filter(|f| f.epoch == epoch && f.batch == batch_idx && (f.sticky || !fault_spent));
            if fault.is_some() {
                fault_spent = true;
            }
            match train_batch(
                &mut model,
                cfg,
                &view1,
                &view2,
                batch,
                &mut opt,
                queues.as_mut(),
                watchdog.as_mut(),
                fault.map(|f| f.kind),
                epoch,
                batch_idx,
            ) {
                Ok(loss) => {
                    epoch_loss += loss;
                    batches += 1;
                }
                Err(v) => {
                    violation = Some(v);
                    break;
                }
            }
        }
        if watching && violation.is_none() {
            violation = Watchdog::check_epoch_params(&model, epoch).err();
        }

        if let Some(v) = violation {
            crate::watchdog::obs_violation(&v);
            let snap = anchor
                .as_deref()
                .expect("violations are only raised with the watchdog (and its anchor) in place");
            if recoveries.len() >= cfg.watchdog.max_recoveries {
                let report = Box::new(DivergenceReport {
                    violation: v,
                    recoveries,
                    max_recoveries: cfg.watchdog.max_recoveries,
                    loss_history: snap.meta.loss_history.clone(),
                });
                crate::watchdog::obs_divergence(&report);
                export_obs(&cfg.obs);
                return Err(TrainError::Diverged(report));
            }
            // Roll back through the same validated path a disk resume uses,
            // discarding every poisoned tensor, queue entry, and history
            // suffix…
            restore_state(
                snap,
                n,
                &mut model,
                &mut opt,
                queues.as_mut(),
                &mut rng,
                &mut order,
            )?;
            loss_history = snap.meta.loss_history.clone();
            stopper = EarlyStopping::new(cfg.patience);
            already_stopped = false;
            for &l in &loss_history {
                if stopper.update(l) {
                    already_stopped = true;
                }
            }
            // …then back off the learning rate and re-derive the RNG stream
            // from the anchor's saved state plus the retry ordinal:
            // deterministic and replayable, but exploring different views
            // and batch orders than the leg that diverged.
            let retry = recoveries.len() as u64 + 1;
            rng = StdRng::seed_from_u64(retry_seed(snap.meta.rng_state, retry));
            lr_scale *= cfg.watchdog.lr_backoff;
            if let Some(w) = watchdog.as_mut() {
                w.reset();
            }
            let resume_epoch = snap.meta.next_epoch as usize;
            recoveries.push(RecoveryEvent {
                violation: v,
                rolled_back_to_epoch: resume_epoch,
                lr_scale,
            });
            if let Some(ev) = recoveries.last() {
                crate::watchdog::obs_recovery(ev, retry as usize);
            }
            epoch = resume_epoch;
            continue;
        }

        let mean_loss = epoch_loss / batches.max(1) as f32;
        loss_history.push(mean_loss);

        if sarn_obs::enabled() {
            let grad_norm = global_grad_norm(&model.store);
            let queue_entries = queues.as_ref().map_or(0, |q| q.total_entries());
            let r = sarn_obs::Registry::global();
            r.counter("sarn_train_epochs_total").inc();
            r.gauge("sarn_train_loss").set(mean_loss as f64);
            r.gauge("sarn_train_lr").set(epoch_lr as f64);
            r.gauge("sarn_train_grad_norm").set(grad_norm);
            r.gauge("sarn_train_queue_entries")
                .set(queue_entries as f64);
            r.counter("sarn_train_aug_edges_removed_total")
                .add(edges_removed as u64);
            sarn_obs::record(sarn_obs::Event::EpochSummary {
                epoch,
                loss: mean_loss as f64,
                lr: epoch_lr as f64,
                grad_norm,
                seconds: epoch_span.elapsed_seconds().unwrap_or(0.0),
                queue_entries,
                edges_removed,
            });
            if cfg.obs.export_every > 0 && (epoch + 1).is_multiple_of(cfg.obs.export_every) {
                export_obs(&cfg.obs);
            }
        }

        if cfg.checkpoint_every > 0 && (epoch + 1).is_multiple_of(cfg.checkpoint_every) {
            if let Some(dir) = &cfg.checkpoint_dir {
                let ckpt = capture_state(
                    fingerprint,
                    epoch + 1,
                    base_seconds + start.elapsed().as_secs_f64(),
                    &model,
                    &opt,
                    queues.as_ref(),
                    &rng,
                    &order,
                    &loss_history,
                );
                std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
                ckpt.save(dir.join(checkpoint::checkpoint_file_name(fingerprint, epoch + 1)))?;
                checkpoint::prune_checkpoints(dir, fingerprint, cfg.checkpoint_keep)
                    .map_err(CheckpointError::Io)?;
            }
        }

        if watching {
            anchor = Some(Box::new(capture_state(
                fingerprint,
                epoch + 1,
                base_seconds + start.elapsed().as_secs_f64(),
                &model,
                &opt,
                queues.as_ref(),
                &rng,
                &order,
                &loss_history,
            )));
        }

        if stopper.update(mean_loss) {
            break;
        }
        epoch += 1;
    }

    export_obs(&cfg.obs);
    let embeddings = model.embed_detached(&model.store, &full_edges);
    let epochs_run = loss_history.len();
    Ok(SarnTrained {
        model,
        embeddings,
        loss_history,
        epochs_run,
        train_seconds: base_seconds + start.elapsed().as_secs_f64(),
        full_edges,
        recoveries,
        cfg: cfg.clone(),
    })
}

/// Global L2 norm over every parameter's current gradient (telemetry
/// only — reads the store without touching it).
fn global_grad_norm(store: &ParamStore) -> f64 {
    store
        .ids()
        .map(|id| store.grad(id).norm_sq() as f64)
        .sum::<f64>()
        .sqrt()
}

/// Writes the telemetry exports if an export directory is configured. An
/// export failure must never kill a training run: it is reported on
/// stderr and swallowed.
fn export_obs(obs: &sarn_obs::ObsConfig) {
    if !obs.enabled {
        return;
    }
    if let Some(dir) = &obs.export_dir {
        if let Err(e) = sarn_obs::export_all(dir) {
            eprintln!("warning: telemetry export to {} failed: {e}", dir.display());
        }
    }
}

/// Snapshots the full training state after a completed epoch.
#[allow(clippy::too_many_arguments)]
fn capture_state(
    fingerprint: u64,
    next_epoch: usize,
    train_seconds: f64,
    model: &SarnModel,
    opt: &Adam,
    queues: Option<&CellQueues>,
    rng: &StdRng,
    order: &[usize],
    loss_history: &[f32],
) -> Checkpoint {
    Checkpoint {
        meta: CheckpointMeta {
            fingerprint,
            next_epoch: next_epoch as u32,
            train_seconds,
            rng_state: rng.state(),
            loss_history: loss_history.to_vec(),
            order: order.iter().map(|&o| o as u32).collect(),
        },
        query: ParamStoreSnapshot::of(&model.store),
        momentum: ParamStoreSnapshot::of(&model.store_momentum),
        optim: OptimState {
            step: opt.step_count(),
            m: opt.first_moments().to_vec(),
            v: opt.second_moments().to_vec(),
        },
        queues: queues.map(|q| QueueState {
            dim: q.dim() as u32,
            capacity: q.capacity() as u32,
            cells: q
                .export_entries()
                .into_iter()
                .map(|cell| cell.into_iter().map(|(seg, e)| (seg as u32, e)).collect())
                .collect(),
        }),
    }
}

/// Seeds a freshly built store from a warm-start snapshot. Same-name
/// parameters with equal shapes are copied whole; the feature-embedding
/// vocab tables — whose row count tracks the *network's* bin contents, not
/// the hyper-parameters — copy the common row prefix when the embedding
/// width matches (rows are keyed by bin id, so a shared prefix means the
/// same bins). Parameters with no usable counterpart keep their fresh
/// initialization. Returns how many parameters received values; zero means
/// the checkpoint has nothing in common with this model and is an error.
///
/// Public because the online pipeline reuses it for its last-known-good
/// fallback: re-seeding a fresh model on the *edited* network from the
/// last healthy parameter snapshot, then embedding without training.
pub fn warm_start_apply(
    snap: &ParamStoreSnapshot,
    store: &mut ParamStore,
) -> Result<usize, CheckpointError> {
    let by_name: std::collections::HashMap<&str, &Tensor> = snap
        .params
        .iter()
        .map(|(name, t)| (name.as_str(), t))
        .collect();
    let mut applied = 0usize;
    for id in store.ids().collect::<Vec<_>>() {
        let Some(&src) = by_name.get(store.name(id)) else {
            continue;
        };
        let dst = store.value_mut(id);
        let (src_rows, src_cols) = src.shape();
        let (dst_rows, dst_cols) = dst.shape();
        if src_cols != dst_cols {
            continue;
        }
        let rows = src_rows.min(dst_rows);
        dst.data_mut()[..rows * dst_cols].copy_from_slice(&src.data()[..rows * src_cols]);
        applied += 1;
    }
    if applied == 0 {
        return Err(CheckpointError::StateMismatch(
            "warm-start checkpoint shares no applicable parameters with the model".to_string(),
        ));
    }
    Ok(applied)
}

/// Restores a loaded checkpoint into freshly built training state,
/// validating every piece against the run's geometry first.
fn restore_state(
    ckpt: &Checkpoint,
    n: usize,
    model: &mut SarnModel,
    opt: &mut Adam,
    queues: Option<&mut CellQueues>,
    rng: &mut StdRng,
    order: &mut Vec<usize>,
) -> Result<(), CheckpointError> {
    ckpt.query.apply_to(&mut model.store)?;
    ckpt.momentum.apply_to(&mut model.store_momentum)?;

    let optim = &ckpt.optim;
    if optim.m.len() != optim.v.len() {
        return Err(CheckpointError::StateMismatch(format!(
            "optimizer moment counts differ: {} vs {}",
            optim.m.len(),
            optim.v.len()
        )));
    }
    if !optim.m.is_empty() {
        if optim.m.len() != model.store.len() {
            return Err(CheckpointError::StateMismatch(format!(
                "optimizer tracks {} params, model has {}",
                optim.m.len(),
                model.store.len()
            )));
        }
        for (id, (m, v)) in model.store.ids().zip(optim.m.iter().zip(&optim.v)) {
            let want = model.store.value(id).shape();
            if m.shape() != want || v.shape() != want {
                return Err(CheckpointError::StateMismatch(format!(
                    "optimizer moment shape mismatch at {}: expected {:?}, found {:?}/{:?}",
                    model.store.name(id),
                    want,
                    m.shape(),
                    v.shape()
                )));
            }
        }
    }
    opt.restore_state(optim.step, optim.m.clone(), optim.v.clone());

    match (queues, &ckpt.queues) {
        (None, None) => {}
        (Some(q), Some(state)) => {
            if state.dim as usize != q.dim() || state.capacity as usize != q.capacity() {
                return Err(CheckpointError::StateMismatch(format!(
                    "queue geometry mismatch: checkpoint dim/cap {}/{}, run has {}/{}",
                    state.dim,
                    state.capacity,
                    q.dim(),
                    q.capacity()
                )));
            }
            let cells: Vec<Vec<(usize, Vec<f32>)>> = state
                .cells
                .iter()
                .map(|cell| {
                    cell.iter()
                        .map(|(seg, e)| (*seg as usize, e.clone()))
                        .collect()
                })
                .collect();
            q.restore_entries(&cells)
                .map_err(CheckpointError::StateMismatch)?;
        }
        (run, ckpt_q) => {
            return Err(CheckpointError::StateMismatch(format!(
                "queue presence mismatch: run {}, checkpoint {}",
                if run.is_some() {
                    "uses queues"
                } else {
                    "has none"
                },
                if ckpt_q.is_some() {
                    "has them"
                } else {
                    "does not"
                },
            )));
        }
    }

    *rng = StdRng::from_state(ckpt.meta.rng_state);

    if ckpt.meta.order.len() != n {
        return Err(CheckpointError::StateMismatch(format!(
            "shuffle order covers {} segments, network has {n}",
            ckpt.meta.order.len()
        )));
    }
    let mut seen = vec![false; n];
    for &o in &ckpt.meta.order {
        if (o as usize) >= n || seen[o as usize] {
            return Err(CheckpointError::StateMismatch(
                "shuffle order is not a permutation".to_string(),
            ));
        }
        seen[o as usize] = true;
    }
    *order = ckpt.meta.order.iter().map(|&o| o as usize).collect();
    Ok(())
}

/// One mini-batch step: forward both branches, build candidate sets, apply
/// the two-level (or plain) InfoNCE loss, update the query branch, momentum-
/// update the other, and refresh the queues (Algorithm 1 lines 5–15).
///
/// Both branches run over the batch's receptive field only: the momentum
/// branch on view 2 (detached — gradients flow only into the query branch,
/// per MoCo), the query branch on view 1. Each computes the batch's rows
/// through the per-layer blocks of [`EdgeIndex::blocks`], which equal the
/// full-graph pass's rows, and its parameter gradients, bit for bit.
///
/// With a watchdog present, the health probe runs after the backward pass
/// and **before** the optimizer step — a sick gradient is caught within the
/// batch that produced it and never touches the parameters — and queue
/// admission is checked. `fault` deliberately corrupts this batch (test
/// injection only).
#[allow(clippy::too_many_arguments)]
fn train_batch(
    model: &mut SarnModel,
    cfg: &SarnConfig,
    view1: &EdgeIndex,
    view2: &EdgeIndex,
    batch: &[usize],
    opt: &mut Adam,
    queues: Option<&mut CellQueues>,
    watchdog: Option<&mut Watchdog>,
    fault: Option<FaultKind>,
    epoch: usize,
    batch_idx: usize,
) -> Result<f32, HealthViolation> {
    let z_prime = model.embed_projected_rows_detached(&model.store_momentum, view2, batch);
    let g = Graph::new();
    let h_batch = model.encode_rows(&g, &model.store, view1, batch);
    update_batch(
        model, cfg, &g, h_batch, z_prime, batch, opt, queues, watchdog, fault, epoch, batch_idx,
    )
}

/// The rest of a step, once both branches have the batch's rows: `h_batch`
/// is the query encoder's output on the tape `g`, `z_prime` the momentum
/// projections (`batch.len() x d_z`), both in batch order.
#[allow(clippy::too_many_arguments)]
fn update_batch(
    model: &mut SarnModel,
    cfg: &SarnConfig,
    g: &Graph,
    h_batch: Var,
    mut z_prime: Tensor,
    batch: &[usize],
    opt: &mut Adam,
    queues: Option<&mut CellQueues>,
    watchdog: Option<&mut Watchdog>,
    fault: Option<FaultKind>,
    epoch: usize,
    batch_idx: usize,
) -> Result<f32, HealthViolation> {
    // Projections are L2-normalized so the dot-product similarity at
    // tau = 0.05 operates on the unit sphere (the MoCo convention the paper
    // builds on).
    if cfg.loss_similarity == LossSimilarity::Cosine {
        normalize_rows(&mut z_prime);
    }
    let z_prime: Vec<&[f32]> = (0..batch.len()).map(|k| z_prime.row_slice(k)).collect();

    model.store.zero_grads();
    let z = model.project(g, &model.store, h_batch);
    let z = if cfg.loss_similarity == LossSimilarity::Cosine {
        g.l2_normalize_rows(z)
    } else {
        z
    };

    let loss = match queues.as_deref() {
        Some(q) => {
            // Two-level loss (Eq. 15–17).
            let local: Vec<Tensor> = batch
                .iter()
                .zip(&z_prime)
                .map(|(&i, zp)| q.local_candidates(i, zp))
                .collect();
            let readouts = q.all_readouts();
            let global: Vec<Tensor> = batch
                .iter()
                .zip(&z_prime)
                .map(|(&i, zp)| q.global_candidates_from(&readouts, i, zp))
                .collect();
            let l_local = g.info_nce(z, local, cfg.tau);
            let l_global = g.info_nce(z, global, cfg.tau);
            g.add(
                g.scale(l_local, cfg.lambda),
                g.scale(l_global, 1.0 - cfg.lambda),
            )
        }
        None => {
            // Plain InfoNCE with in-batch negatives (baseline GCL, §3).
            let cands: Vec<Tensor> = (0..batch.len())
                .map(|a| {
                    let mut rows = Vec::with_capacity(batch.len() * cfg.d_z);
                    rows.extend_from_slice(z_prime[a]);
                    for (b, zp) in z_prime.iter().enumerate() {
                        if b != a {
                            rows.extend_from_slice(zp);
                        }
                    }
                    Tensor::from_vec(batch.len(), cfg.d_z, rows)
                })
                .collect();
            g.info_nce(z, cands, cfg.tau)
        }
    };
    let mut loss_value = g.value(loss).item();
    g.backward(loss);
    g.accumulate_grads(&mut model.store);

    match fault {
        Some(FaultKind::NanLoss) => loss_value = f32::NAN,
        Some(FaultKind::NanGrad) => {
            if let Some(id) = model.store.ids().next() {
                model.store.grad_mut(id).data_mut()[0] = f32::NAN;
            }
        }
        Some(FaultKind::HugeGrad) => {
            for id in model.store.ids().collect::<Vec<_>>() {
                model.store.grad_mut(id).scale_mut(1e20);
            }
        }
        None => {}
    }

    let watching = watchdog.is_some();
    if let Some(w) = watchdog {
        // Probing before `opt.step` means a sick gradient never reaches the
        // parameters — the rollback only has to unwind queue-free state.
        w.check_batch(&model.store, loss_value, epoch, batch_idx)?;
    }
    opt.step(&mut model.store);
    model.momentum_update(cfg.momentum);

    if let Some(q) = queues {
        for (&i, zp) in batch.iter().zip(&z_prime) {
            if watching {
                q.push_checked(i, zp)
                    .map_err(|defect| HealthViolation::CorruptQueueEntry {
                        epoch,
                        batch: batch_idx,
                        segment: i,
                        detail: defect.to_string(),
                    })?;
            } else {
                q.push(i, zp);
            }
        }
    }
    Ok(loss_value)
}

/// In-place row L2 normalization of a raw tensor (the norm is the shared
/// kernel's left-to-right sum of squares).
fn normalize_rows(t: &mut Tensor) {
    for i in 0..t.rows() {
        let row = t.row_slice_mut(i);
        let n = sarn_tensor::kernels::squared_norm(row).sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v /= n;
        }
    }
}

/// Zeroes the gradients of every parameter **not** listed in `keep` — used
/// by SARN* fine-tuning, which trains only the final GAT layer together
/// with the downstream head.
pub fn zero_grads_except(store: &mut ParamStore, keep: &[sarn_tensor::ParamId]) {
    let keep_set: std::collections::HashSet<usize> = keep.iter().map(|p| p.index()).collect();
    for id in store.ids().collect::<Vec<_>>() {
        if !keep_set.contains(&id.index()) {
            store.grad_mut(id).scale_mut(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SarnVariant;
    use rand::seq::SliceRandom;
    use sarn_durable::TempDir;
    use sarn_roadnet::{City, SynthConfig};

    fn tiny_net() -> RoadNetwork {
        SynthConfig::city(City::Chengdu).scaled(0.22).generate()
    }

    /// The full-graph step the trainer ran before the block step, kept as
    /// its oracle: both branches over every row of their view, then the
    /// batch's rows gathered.
    fn full_graph_batch(
        model: &mut SarnModel,
        cfg: &SarnConfig,
        view1: &EdgeIndex,
        view2: &EdgeIndex,
        batch: &[usize],
        opt: &mut Adam,
        queues: Option<&mut CellQueues>,
    ) -> Result<f32, HealthViolation> {
        let z_prime = model
            .embed_projected_detached(&model.store_momentum, view2)
            .gather_rows(batch);
        let g = Graph::new();
        let h = model.encode(&g, &model.store, view1);
        let h_batch = g.gather_rows(h, batch);
        update_batch(
            model, cfg, &g, h_batch, z_prime, batch, opt, queues, None, None, 0, 0,
        )
    }

    /// One step path's training state.
    struct StepState {
        model: SarnModel,
        opt: Adam,
        queues: Option<CellQueues>,
    }

    impl StepState {
        fn new(net: &RoadNetwork, cfg: &SarnConfig) -> Self {
            Self {
                model: SarnModel::new(net, cfg),
                opt: Adam::new(cfg.lr).with_clip_norm(cfg.clip_norm),
                queues: cfg.variant.uses_grid_negatives().then(|| {
                    CellQueues::with_readout(net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout)
                }),
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Both stores' parameters, the Adam moments and the queue entries,
    /// compared by `to_bits`.
    fn assert_same_state(a: &StepState, b: &StepState, at: &str) {
        for (branch, sa, sb) in [
            ("query", &a.model.store, &b.model.store),
            ("momentum", &a.model.store_momentum, &b.model.store_momentum),
        ] {
            for id in sa.ids() {
                assert_eq!(
                    bits(sa.value(id)),
                    bits(sb.value(id)),
                    "{at}: {branch} {}",
                    sa.name(id)
                );
            }
        }
        assert_eq!(a.opt.step_count(), b.opt.step_count(), "{at}: Adam steps");
        for (moments_a, moments_b) in [
            (a.opt.first_moments(), b.opt.first_moments()),
            (a.opt.second_moments(), b.opt.second_moments()),
        ] {
            assert_eq!(moments_a.len(), moments_b.len(), "{at}: Adam moments");
            for (ma, mb) in moments_a.iter().zip(moments_b) {
                assert_eq!(bits(ma), bits(mb), "{at}: Adam moments");
            }
        }
        let entries = |s: &StepState| -> Vec<Vec<(usize, Vec<u32>)>> {
            s.queues.as_ref().map_or_else(Vec::new, |q| {
                q.export_entries()
                    .into_iter()
                    .map(|cell| {
                        cell.into_iter()
                            .map(|(seg, e)| (seg, e.iter().map(|v| v.to_bits()).collect()))
                            .collect()
                    })
                    .collect()
            })
        };
        assert_eq!(entries(a), entries(b), "{at}: queue entries");
    }

    /// Restores the default thread count even when an assertion fails.
    struct ResetKnobs;
    impl Drop for ResetKnobs {
        fn drop(&mut self) {
            sarn_par::set_num_threads(1);
        }
    }

    #[test]
    fn block_step_equals_the_full_graph_step_bit_for_bit() {
        use crate::config::LossSimilarity;
        let _knobs = crate::test_knobs();
        let _reset = ResetKnobs;
        let net = tiny_net();
        let n = net.num_segments();
        for variant in [SarnVariant::Full, SarnVariant::WithoutMNL] {
            for similarity in [LossSimilarity::Cosine, LossSimilarity::Dot] {
                let mut cfg = SarnConfig::tiny().with_variant(variant);
                cfg.loss_similarity = similarity;
                cfg.n_layers = 3;
                // Small batches keep the 3-hop field a strict subset of
                // the rows, so the blocks really drop rows.
                cfg.batch_size = 8;
                let spatial = if variant.uses_spatial_matrix() {
                    SpatialSimilarity::build(&net, &cfg.similarity)
                        .edges()
                        .to_vec()
                } else {
                    Vec::new()
                };
                let augmenter = Augmenter::new(n, net.topo_edges().to_vec(), spatial, cfg.augment);
                let view1 = augmenter.corrupt_with_seed(11).edge_index();
                let view2 = augmenter.corrupt_with_seed(12).edge_index();
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut StdRng::seed_from_u64(13));
                let field = view1.blocks(&order[..cfg.batch_size], cfg.n_layers)[0]
                    .src()
                    .len();
                assert!(field < n, "3-hop field {field} of {n} rows drops none");
                for threads in [1, 4] {
                    sarn_par::set_num_threads(threads);
                    let mut block = StepState::new(&net, &cfg);
                    let mut full = StepState::new(&net, &cfg);
                    assert_same_state(&block, &full, "start");
                    for (b, batch) in order.chunks(cfg.batch_size).enumerate() {
                        let at = format!("{variant:?}/{similarity:?}/{threads} batch {b}");
                        let block_loss = train_batch(
                            &mut block.model,
                            &cfg,
                            &view1,
                            &view2,
                            batch,
                            &mut block.opt,
                            block.queues.as_mut(),
                            None,
                            None,
                            0,
                            b,
                        )
                        .unwrap();
                        let full_loss = full_graph_batch(
                            &mut full.model,
                            &cfg,
                            &view1,
                            &view2,
                            batch,
                            &mut full.opt,
                            full.queues.as_mut(),
                        )
                        .unwrap();
                        assert_eq!(block_loss.to_bits(), full_loss.to_bits(), "{at}: loss");
                        assert_same_state(&block, &full, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn training_runs_and_produces_finite_history() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 5;
        let trained = train(&net, &cfg);
        assert_eq!(trained.embeddings.shape(), (net.num_segments(), cfg.d));
        assert!(trained.embeddings.all_finite());
        assert_eq!(trained.loss_history.len(), trained.epochs_run);
        assert!(trained.loss_history.iter().all(|l| l.is_finite()));
        assert!(trained.train_seconds > 0.0);
    }

    #[test]
    fn in_batch_variant_loss_decreases() {
        let _knobs = crate::test_knobs();
        // The full model's loss is non-stationary while the MoCo queues warm
        // up, so descent is asserted on the stationary in-batch objective.
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny().with_variant(SarnVariant::WithoutMNL);
        cfg.max_epochs = 8;
        let trained = train(&net, &cfg);
        let first = trained.loss_history[0];
        let last = *trained.loss_history.last().unwrap();
        assert!(last < first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn all_variants_train() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        for variant in [
            SarnVariant::Full,
            SarnVariant::WithoutM,
            SarnVariant::WithoutNL,
            SarnVariant::WithoutMNL,
        ] {
            let mut cfg = SarnConfig::tiny().with_variant(variant);
            cfg.max_epochs = 2;
            let trained = train(&net, &cfg);
            assert!(
                trained.embeddings.all_finite(),
                "{variant:?} produced non-finite embeddings"
            );
        }
    }

    #[test]
    fn positive_pairs_end_up_more_similar_than_random() {
        let _knobs = crate::test_knobs();
        // After training, a segment's embedding should be closer (dot
        // product) to its spatial neighbors than to random far segments.
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 8;
        let trained = train(&net, &cfg);
        let emb = &trained.embeddings;
        let sim = SpatialSimilarity::build(&net, &cfg.similarity);
        let mut close_sim = 0.0f64;
        let mut close_n = 0;
        for &(i, j, _) in sim.edges().iter().take(300) {
            close_sim += cosine(emb.row_slice(i), emb.row_slice(j)) as f64;
            close_n += 1;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut far_sim = 0.0f64;
        let mut far_n = 0;
        use rand::Rng;
        for _ in 0..300 {
            let i = rng.gen_range(0..net.num_segments());
            let j = rng.gen_range(0..net.num_segments());
            if i == j {
                continue;
            }
            far_sim += cosine(emb.row_slice(i), emb.row_slice(j)) as f64;
            far_n += 1;
        }
        let close = close_sim / close_n.max(1) as f64;
        let far = far_sim / far_n.max(1) as f64;
        assert!(
            close > far,
            "spatial neighbors not more similar: close {close:.4} vs far {far:.4}"
        );
    }

    #[test]
    fn refresh_embeddings_tracks_store_changes() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 1;
        let mut trained = train(&net, &cfg);
        let before = trained.embeddings.clone();
        for id in trained.model.all_param_ids() {
            trained
                .model
                .store
                .value_mut(id)
                .data_mut()
                .iter_mut()
                .for_each(|v| *v += 0.05);
        }
        trained.refresh_embeddings();
        assert_ne!(before.data(), trained.embeddings.data());
    }

    #[test]
    fn dot_similarity_variant_trains_to_finite_embeddings() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.loss_similarity = crate::config::LossSimilarity::Dot;
        cfg.max_epochs = 3;
        let trained = train(&net, &cfg);
        assert!(trained.embeddings.all_finite());
    }

    #[test]
    fn max_readout_variant_trains_to_finite_embeddings() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.readout = crate::config::Readout::Max;
        cfg.max_epochs = 3;
        let trained = train(&net, &cfg);
        assert!(trained.embeddings.all_finite());
    }

    #[test]
    fn save_and_load_roundtrip_restores_embeddings() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 2;
        let trained = train(&net, &cfg);
        let dir = TempDir::new("train-save").unwrap();
        let stem = dir.path().join("model");
        trained.save(&stem).unwrap();
        // A freshly initialized model diverges; loading restores it.
        let mut fresh = train(&net, &cfg.clone().with_seed(777));
        assert_ne!(fresh.embeddings.data(), trained.embeddings.data());
        fresh.load_into(&stem).unwrap();
        assert_eq!(fresh.embeddings.data(), trained.embeddings.data());
    }

    #[test]
    fn load_into_rejects_shape_mismatch_without_mutating() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 1;
        let trained = train(&net, &cfg);
        let dir = TempDir::new("train-mismatch").unwrap();
        let stem = dir.path().join("model");
        trained.save(&stem).unwrap();

        // A model with a different width has the same parameter names but
        // different shapes; loading must fail and leave it untouched.
        let mut wider = cfg.clone();
        wider.d = cfg.d * 2;
        wider.d_z = cfg.d_z * 2;
        let mut other = train(&net, &wider);
        let before: Vec<Vec<f32>> = other
            .model
            .store
            .ids()
            .map(|id| other.model.store.value(id).data().to_vec())
            .collect();
        let err = other.load_into(&stem).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let after: Vec<Vec<f32>> = other
            .model
            .store
            .ids()
            .map(|id| other.model.store.value(id).data().to_vec())
            .collect();
        assert_eq!(before, after, "failed load must not mutate the store");
    }

    #[test]
    fn warm_start_seeds_a_fresh_run_across_a_network_edit() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let dir = TempDir::new("train-warm").unwrap();
        let mut cfg = SarnConfig::tiny().with_checkpointing(dir.path(), 1);
        cfg.max_epochs = 2;
        train(&net, &cfg);
        let latest = checkpoint::latest_checkpoint(dir.path(), Some(cfg.fingerprint())).unwrap();

        // Edit the network (append a segment), then warm-start on it: the
        // vocab tables may have grown, so this exercises the prefix path.
        let mut edited = net.clone();
        let seg = {
            let s = edited.segment(0).clone();
            sarn_roadnet::RoadSegment::between(s.class, s.start, s.end)
        };
        edited.add_segment(seg, &[0], &[]);
        let mut warm_cfg = cfg.clone().with_warm_start_from(&latest);
        warm_cfg.checkpoint_every = 0;
        warm_cfg.checkpoint_dir = None;
        let warm = try_train(&edited, &warm_cfg).unwrap();
        assert_eq!(warm.embeddings.rows(), edited.num_segments());
        assert!(warm.embeddings.all_finite());
        // A warm start is a fresh run: the history restarts at epoch 0.
        assert_eq!(warm.epochs_run, warm_cfg.max_epochs);

        // The seeded run differs from a cold run on the same network —
        // proof the checkpoint's weights actually reached the model.
        let cold = try_train(&edited, &{
            let mut c = warm_cfg.clone();
            c.warm_start_from = None;
            c
        })
        .unwrap();
        assert_ne!(warm.embeddings.data(), cold.embeddings.data());
    }

    #[test]
    fn warm_start_rejects_incompatibility_with_typed_errors() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let dir = TempDir::new("train-warmbad").unwrap();
        let mut cfg = SarnConfig::tiny().with_checkpointing(dir.path(), 1);
        cfg.max_epochs = 1;
        train(&net, &cfg);
        let latest = checkpoint::latest_checkpoint(dir.path(), Some(cfg.fingerprint())).unwrap();

        // A different seed is a different fingerprint: probe rejects it.
        let other = cfg.clone().with_seed(99).with_warm_start_from(&latest);
        assert!(matches!(
            try_train(&net, &other),
            Err(TrainError::Checkpoint(
                CheckpointError::ConfigMismatch { .. }
            ))
        ));

        // Warm start and resume are mutually exclusive.
        let mut both = cfg.clone().with_warm_start_from(&latest);
        both.resume_auto = true;
        assert!(matches!(
            try_train(&net, &both),
            Err(TrainError::Checkpoint(CheckpointError::StateMismatch(_)))
        ));

        // Garbage file: the probe's typed error surfaces, not a mid-load
        // failure.
        let junk = dir.path().join("junk.sarnckpt");
        std::fs::write(&junk, b"???").unwrap();
        let mut junk_cfg = cfg.clone().with_warm_start_from(&junk);
        junk_cfg.checkpoint_every = 0;
        assert!(matches!(
            try_train(&net, &junk_cfg),
            Err(TrainError::Checkpoint(
                CheckpointError::BadMagic | CheckpointError::Truncated { .. }
            ))
        ));
    }

    #[test]
    fn deadline_aborts_with_a_typed_error_not_partial_output() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let mut cfg = SarnConfig::tiny();
        cfg.max_epochs = 3;
        cfg.max_train_seconds = 1e-9; // already spent by the A^s build
        match try_train(&net, &cfg) {
            Err(TrainError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
                epochs_run,
            }) => {
                assert!(elapsed_seconds > budget_seconds);
                assert_eq!(epochs_run, 0);
            }
            Err(e) => panic!("expected DeadlineExceeded, got {e}"),
            Ok(_) => panic!("expected DeadlineExceeded, got a trained model"),
        }
        // Zero disables the deadline entirely.
        cfg.max_train_seconds = 0.0;
        assert!(try_train(&net, &cfg).is_ok());
    }

    #[test]
    fn zero_grads_except_keeps_only_requested() {
        let _knobs = crate::test_knobs();
        let net = tiny_net();
        let cfg = SarnConfig::tiny();
        let mut model = SarnModel::new(&net, &cfg);
        // Fill all grads with ones.
        for id in model.all_param_ids() {
            let (r, c) = model.store.value(id).shape();
            model.store.grad_mut(id).axpy(1.0, &Tensor::ones(r, c));
        }
        let keep = model.last_gat_layer_ids();
        zero_grads_except(&mut model.store, &keep);
        for id in model.all_param_ids() {
            let expect_nonzero = keep.contains(&id);
            assert_eq!(model.store.grad(id).norm_sq() > 0.0, expect_nonzero);
        }
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        sarn_tensor::kernels::cosine(a, b)
    }
}
