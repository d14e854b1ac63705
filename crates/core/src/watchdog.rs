//! Training watchdog: numerical-health monitoring, a typed failure
//! taxonomy, and automatic rollback-to-checkpoint recovery.
//!
//! A long contrastive-learning run has three ways to die silently: a
//! non-finite loss (which corrupts the history and early stopping), a
//! non-finite or exploding gradient (which poisons the parameters on the
//! next optimizer step), and a corrupted negative-queue entry (which
//! poisons every later batch that draws it as a candidate). The watchdog
//! guards all three with cheap probes in the hot loop and, on violation,
//! drives the recovery state machine
//!
//! ```text
//! healthy --violation--> rollback --backoff--> healthy (retry)
//!                           |
//!                           +--max_recoveries exhausted--> give-up
//! ```
//!
//! - **healthy**: every probe passes; at each epoch boundary the trainer
//!   refreshes an in-memory rollback anchor (a full [`crate::Checkpoint`],
//!   the same structure PR'd for crash-safe persistence — parameters, Adam
//!   moments, queues, RNG state, shuffle order, loss history).
//! - **violation**: a probe fails. The batch's update is *not* applied
//!   (gradient probes run before `Adam::step`), and the trainer abandons
//!   the epoch.
//! - **rollback**: the anchor is restored through the same validation path
//!   used when resuming a disk checkpoint, discarding every poisoned
//!   tensor, queue entry, and history suffix.
//! - **backoff**: the learning rate is scaled by
//!   [`WatchdogConfig::lr_backoff`] (compounding per recovery) and the
//!   main RNG stream is re-derived from the anchor's saved state plus the
//!   retry ordinal — deterministic and replayable, but exploring different
//!   augmentation views and batch orders than the leg that diverged.
//! - **give-up**: after [`WatchdogConfig::max_recoveries`] failed retries
//!   the run returns a structured [`TrainError::Diverged`] report naming
//!   the violation, epoch, and batch — never a panic.
//!
//! Supervision is free when healthy in the bitwise sense: a watched run
//! that never trips a probe produces exactly the history and embeddings of
//! an unwatched one (the probes only read). The probes themselves are
//! serial scalar scans, so results stay identical at every thread count.

use std::fmt;

use sarn_tensor::ParamStore;

use crate::checkpoint::CheckpointError;
use crate::model::SarnModel;

/// Which parameter branch a violation was observed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// The gradient-trained query branch (`F`, `P`).
    Query,
    /// The EMA momentum branch (`F'`, `P'`).
    Momentum,
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Branch::Query => write!(f, "query"),
            Branch::Momentum => write!(f, "momentum"),
        }
    }
}

/// A defect disqualifying one embedding vector, shared by every admission
/// gate that screens embeddings before letting them influence others: the
/// training watchdog's negative-queue probe (a corrupt entry would poison
/// every later batch that draws it) and the serving store's artifact
/// admission (a corrupt row must keep the last-known-good generation in
/// place, per DESIGN.md §10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EmbeddingDefect {
    /// The vector's length disagrees with the expected dimension.
    DimMismatch {
        /// Length found.
        found: usize,
        /// Length required.
        expected: usize,
    },
    /// A component is NaN or ±∞.
    NonFinite {
        /// Index of the first offending component.
        component: usize,
        /// The offending value.
        value: f32,
    },
}

impl fmt::Display for EmbeddingDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingDefect::DimMismatch { found, expected } => {
                write!(f, "embedding has dim {found}, expected {expected}")
            }
            EmbeddingDefect::NonFinite { component, value } => {
                write!(f, "non-finite value {value} at component {component}")
            }
        }
    }
}

/// Screens one embedding vector against `expected_dim`, returning the
/// first [`EmbeddingDefect`] found (`None` means admissible).
pub fn embedding_defect(embedding: &[f32], expected_dim: usize) -> Option<EmbeddingDefect> {
    if embedding.len() != expected_dim {
        return Some(EmbeddingDefect::DimMismatch {
            found: embedding.len(),
            expected: expected_dim,
        });
    }
    embedding
        .iter()
        .position(|v| !v.is_finite())
        .map(|component| EmbeddingDefect::NonFinite {
            component,
            value: embedding[component],
        })
}

/// One numerical-health violation caught by a watchdog probe.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthViolation {
    /// The batch loss evaluated to NaN or ±∞.
    NonFiniteLoss {
        /// Epoch of the sick batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
    },
    /// A parameter gradient contains NaN or ±∞ (caught *before* the
    /// optimizer step, so the parameters are still clean).
    NonFiniteGrad {
        /// Epoch of the sick batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Name of the first offending parameter.
        param: String,
    },
    /// The global gradient norm exploded past
    /// [`WatchdogConfig::grad_ratio`] times the EMA baseline (or became
    /// non-finite despite finite entries).
    GradExplosion {
        /// Epoch of the sick batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Observed global gradient norm.
        norm: f32,
        /// EMA baseline the norm was compared against.
        baseline: f32,
    },
    /// A parameter value went non-finite (end-of-epoch scan of both
    /// branches).
    NonFiniteParam {
        /// Epoch whose closing scan caught the value.
        epoch: usize,
        /// Branch holding the parameter.
        branch: Branch,
        /// Name of the first offending parameter.
        param: String,
    },
    /// A non-finite embedding was about to enter a negative-sample queue.
    CorruptQueueEntry {
        /// Epoch of the sick batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Segment whose embedding was rejected.
        segment: usize,
        /// What exactly was wrong with the entry.
        detail: String,
    },
}

impl HealthViolation {
    /// Epoch the violation was observed in.
    pub fn epoch(&self) -> usize {
        match self {
            HealthViolation::NonFiniteLoss { epoch, .. }
            | HealthViolation::NonFiniteGrad { epoch, .. }
            | HealthViolation::GradExplosion { epoch, .. }
            | HealthViolation::NonFiniteParam { epoch, .. }
            | HealthViolation::CorruptQueueEntry { epoch, .. } => *epoch,
        }
    }

    /// Batch index within the epoch, if the probe is per-batch (the
    /// end-of-epoch parameter scan has none).
    pub fn batch(&self) -> Option<usize> {
        match self {
            HealthViolation::NonFiniteLoss { batch, .. }
            | HealthViolation::NonFiniteGrad { batch, .. }
            | HealthViolation::GradExplosion { batch, .. }
            | HealthViolation::CorruptQueueEntry { batch, .. } => Some(*batch),
            HealthViolation::NonFiniteParam { .. } => None,
        }
    }
}

impl fmt::Display for HealthViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthViolation::NonFiniteLoss { epoch, batch } => {
                write!(f, "non-finite loss at epoch {epoch}, batch {batch}")
            }
            HealthViolation::NonFiniteGrad {
                epoch,
                batch,
                param,
            } => write!(
                f,
                "non-finite gradient in {param} at epoch {epoch}, batch {batch}"
            ),
            HealthViolation::GradExplosion {
                epoch,
                batch,
                norm,
                baseline,
            } => write!(
                f,
                "gradient norm {norm:.3e} exploded past baseline {baseline:.3e} \
                 at epoch {epoch}, batch {batch}"
            ),
            HealthViolation::NonFiniteParam {
                epoch,
                branch,
                param,
            } => write!(
                f,
                "non-finite value in {branch} parameter {param} after epoch {epoch}"
            ),
            HealthViolation::CorruptQueueEntry {
                epoch,
                batch,
                segment,
                detail,
            } => write!(
                f,
                "corrupt queue entry for segment {segment} at epoch {epoch}, \
                 batch {batch}: {detail}"
            ),
        }
    }
}

/// One recovery the watchdog performed: the violation that triggered it,
/// where training rolled back to, and the compounded learning-rate scale
/// the retry ran under.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// The violation that triggered the rollback.
    pub violation: HealthViolation,
    /// Epoch the run rolled back to (the anchor's next epoch).
    pub rolled_back_to_epoch: usize,
    /// Learning-rate scale in effect after this recovery's backoff
    /// (`lr_backoff` compounded once per recovery so far).
    pub lr_scale: f32,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; rolled back to epoch {}, lr scaled to {:.4}",
            self.violation, self.rolled_back_to_epoch, self.lr_scale
        )
    }
}

/// Structured give-up report: what finally killed the run and everything
/// the watchdog tried before giving up.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// The violation that exhausted the retry budget.
    pub violation: HealthViolation,
    /// Every recovery attempted before giving up, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// The retry budget that was exhausted.
    pub max_recoveries: usize,
    /// Mean loss of every healthy epoch completed before the final
    /// violation (the anchor's history — all entries are finite).
    pub loss_history: Vec<f32>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "training diverged after {} of {} recoveries: {} (epoch {}",
            self.recoveries.len(),
            self.max_recoveries,
            self.violation,
            self.violation.epoch(),
        )?;
        match self.violation.batch() {
            Some(b) => write!(f, ", batch {b})")?,
            None => write!(f, ", epoch-boundary scan)")?,
        }
        Ok(())
    }
}

/// Telemetry for a watchdog violation: a counter bump plus a journal
/// event (no-ops while telemetry is disabled).
pub(crate) fn obs_violation(v: &HealthViolation) {
    if !sarn_obs::enabled() {
        return;
    }
    sarn_obs::counter!("sarn_watchdog_violations_total").inc();
    sarn_obs::record(sarn_obs::Event::WatchdogViolation {
        epoch: v.epoch(),
        batch: v.batch(),
        detail: v.to_string(),
    });
}

/// Telemetry for one completed rollback recovery (`retry` is 1-based).
pub(crate) fn obs_recovery(ev: &RecoveryEvent, retry: usize) {
    if !sarn_obs::enabled() {
        return;
    }
    sarn_obs::counter!("sarn_watchdog_recoveries_total").inc();
    sarn_obs::record(sarn_obs::Event::WatchdogRecovery {
        rolled_back_to_epoch: ev.rolled_back_to_epoch,
        lr_scale: ev.lr_scale as f64,
        retry,
    });
}

/// Telemetry for a run that exhausted its retry budget.
pub(crate) fn obs_divergence(report: &DivergenceReport) {
    if !sarn_obs::enabled() {
        return;
    }
    sarn_obs::counter!("sarn_watchdog_divergences_total").inc();
    sarn_obs::record(sarn_obs::Event::WatchdogDivergence {
        recoveries: report.recoveries.len(),
        detail: report.violation.to_string(),
    });
}

/// Everything that can abort [`crate::try_train`].
#[derive(Debug)]
pub enum TrainError {
    /// Saving, loading, or validating a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The watchdog exhausted its retry budget; the report names the
    /// violation, epoch, and batch, plus every recovery attempted.
    Diverged(Box<DivergenceReport>),
    /// [`crate::SarnConfig::max_train_seconds`] elapsed before the run
    /// finished its epochs. Checked only at epoch boundaries, so the
    /// overrun can exceed the deadline by up to one epoch.
    DeadlineExceeded {
        /// Wall-clock seconds the run had consumed at the check.
        elapsed_seconds: f64,
        /// The configured budget.
        budget_seconds: f64,
        /// Epochs fully completed before the run was cut short.
        epochs_run: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Diverged(report) => write!(f, "{report}"),
            TrainError::DeadlineExceeded {
                elapsed_seconds,
                budget_seconds,
                epochs_run,
            } => write!(
                f,
                "training deadline exceeded: {elapsed_seconds:.2}s elapsed of a \
                 {budget_seconds:.2}s budget after {epochs_run} epochs"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Watchdog knobs (part of [`crate::SarnConfig`]). Disabled by default;
/// none of these shape a healthy run's trajectory, so they are excluded
/// from the config fingerprint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Master switch. Off by default: the unwatched hot loop runs exactly
    /// as before, with zero probe overhead.
    pub enabled: bool,
    /// Rollback retries before giving up with [`TrainError::Diverged`].
    pub max_recoveries: usize,
    /// Learning-rate multiplier applied per recovery (compounding).
    pub lr_backoff: f32,
    /// Gradient-norm explosion threshold as a multiple of the EMA
    /// baseline (`0` disables the explosion probe; non-finite norms are
    /// always violations).
    pub grad_ratio: f32,
    /// Healthy batches observed before the explosion probe arms (the EMA
    /// baseline is meaningless while it warms up).
    pub warmup_batches: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            max_recoveries: 3,
            lr_backoff: 0.5,
            grad_ratio: 25.0,
            warmup_batches: 20,
        }
    }
}

/// Which quantity a [`FaultSpec`] corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one gradient entry with NaN after the backward pass.
    NanGrad,
    /// Replace the batch loss value with NaN.
    NanLoss,
    /// Scale every gradient by `1e20` (trips the explosion probe, or the
    /// non-finite probes once the values overflow).
    HugeGrad,
}

/// Deterministic fault injection for watchdog tests and the pipeline's
/// `DivergingRetrain` fault: detonates the training run at a chosen epoch
/// and batch. Excluded from the config fingerprint — it is injected
/// damage, not a trajectory knob — and never set in real runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Epoch to detonate in.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
    /// What to corrupt.
    pub kind: FaultKind,
    /// `true` re-fires on every visit to (epoch, batch) — including
    /// post-rollback replays, which exhausts the retry budget; `false`
    /// fires once per process run, so a watched run recovers.
    pub sticky: bool,
}

/// Per-run monitor: cheap numerical-health probes plus the EMA
/// gradient-norm baseline for the explosion check.
pub struct Watchdog {
    cfg: WatchdogConfig,
    ema_grad_norm: f32,
    healthy_batches: usize,
}

impl Watchdog {
    /// Creates a monitor with the given knobs.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            ema_grad_norm: 0.0,
            healthy_batches: 0,
        }
    }

    /// Resets the EMA baseline and warmup counter (called after a
    /// rollback: the restored state re-warms from scratch, so a retried
    /// leg is judged by its own gradients, not the diverged leg's).
    pub fn reset(&mut self) {
        self.ema_grad_norm = 0.0;
        self.healthy_batches = 0;
    }

    /// EMA gradient-norm baseline (0 until the first healthy batch).
    pub fn grad_norm_baseline(&self) -> f32 {
        self.ema_grad_norm
    }

    /// Per-batch probe, run after the backward pass and **before** the
    /// optimizer step: loss finiteness, per-parameter gradient
    /// finiteness, and gradient-norm explosion against the EMA baseline.
    /// On success the baseline absorbs this batch's norm.
    pub fn check_batch(
        &mut self,
        store: &ParamStore,
        loss: f32,
        epoch: usize,
        batch: usize,
    ) -> Result<(), HealthViolation> {
        if !loss.is_finite() {
            return Err(HealthViolation::NonFiniteLoss { epoch, batch });
        }
        let mut norm_sq = 0.0f32;
        for id in store.ids() {
            let g = store.grad(id);
            if !g.all_finite() {
                return Err(HealthViolation::NonFiniteGrad {
                    epoch,
                    batch,
                    param: store.name(id).to_string(),
                });
            }
            norm_sq += g.norm_sq();
        }
        let norm = norm_sq.sqrt();
        // Finite entries can still overflow the squared sum.
        if !norm.is_finite() {
            return Err(HealthViolation::GradExplosion {
                epoch,
                batch,
                norm,
                baseline: self.ema_grad_norm,
            });
        }
        if self.cfg.grad_ratio > 0.0
            && self.healthy_batches >= self.cfg.warmup_batches
            && norm > self.cfg.grad_ratio * self.ema_grad_norm
        {
            return Err(HealthViolation::GradExplosion {
                epoch,
                batch,
                norm,
                baseline: self.ema_grad_norm,
            });
        }
        self.ema_grad_norm = if self.healthy_batches == 0 {
            norm
        } else {
            0.9 * self.ema_grad_norm + 0.1 * norm
        };
        self.healthy_batches += 1;
        Ok(())
    }

    /// End-of-epoch probe: every parameter of both branches is finite.
    /// Catches poison that slipped past the gradient probes (e.g. a huge
    /// but finite update overflowing a weight).
    pub fn check_epoch_params(model: &SarnModel, epoch: usize) -> Result<(), HealthViolation> {
        for (store, branch) in [
            (&model.store, Branch::Query),
            (&model.store_momentum, Branch::Momentum),
        ] {
            for id in store.ids() {
                if !store.value(id).all_finite() {
                    return Err(HealthViolation::NonFiniteParam {
                        epoch,
                        branch,
                        param: store.name(id).to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Seed of the re-derived RNG stream for retry number `retry` (1-based)
/// from a rollback anchor's saved xoshiro state. Deterministic, so a
/// recovered run replays bitwise-identically, yet distinct per retry and
/// from the stream that diverged — the retried leg samples different
/// augmentation views and batch orders.
pub(crate) fn retry_seed(rng_state: [u64; 4], retry: u64) -> u64 {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(retry.wrapping_add(1));
    for (i, s) in rng_state.iter().enumerate() {
        seed ^= s.rotate_left(11 * (i as u32 + 1));
        seed = seed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    seed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sarn_tensor::Tensor;

    fn store_with_grad(grad: &[f32]) -> ParamStore {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros(1, grad.len()));
        s.grad_mut(id).data_mut().copy_from_slice(grad);
        s
    }

    #[test]
    fn clean_batches_pass_and_warm_the_baseline() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        let s = store_with_grad(&[3.0, 4.0]);
        for b in 0..5 {
            w.check_batch(&s, 0.5, 0, b).unwrap();
        }
        assert!((w.grad_norm_baseline() - 5.0).abs() < 1e-5);
    }

    #[test]
    fn non_finite_loss_is_a_violation() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        let s = store_with_grad(&[1.0]);
        let err = w.check_batch(&s, f32::NAN, 2, 3).unwrap_err();
        assert_eq!(err, HealthViolation::NonFiniteLoss { epoch: 2, batch: 3 });
        assert_eq!(err.epoch(), 2);
        assert_eq!(err.batch(), Some(3));
    }

    #[test]
    fn non_finite_grad_names_the_parameter() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        let s = store_with_grad(&[1.0, f32::NAN]);
        match w.check_batch(&s, 0.5, 1, 0).unwrap_err() {
            HealthViolation::NonFiniteGrad { param, .. } => assert_eq!(param, "w"),
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn explosion_probe_arms_after_warmup() {
        let cfg = WatchdogConfig {
            enabled: true,
            warmup_batches: 3,
            grad_ratio: 10.0,
            ..WatchdogConfig::default()
        };
        let mut w = Watchdog::new(cfg);
        let calm = store_with_grad(&[1.0]);
        let wild = store_with_grad(&[1000.0]);
        // During warmup even a wild norm passes (and skews the EMA, which
        // reset() clears).
        w.check_batch(&wild, 0.5, 0, 0).unwrap();
        w.reset();
        for b in 0..3 {
            w.check_batch(&calm, 0.5, 0, b).unwrap();
        }
        match w.check_batch(&wild, 0.5, 0, 3).unwrap_err() {
            HealthViolation::GradExplosion { norm, baseline, .. } => {
                assert!(norm > 999.0);
                assert!((baseline - 1.0).abs() < 1e-6);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn epoch_param_scan_names_branch_and_param() {
        use crate::SarnConfig;
        use sarn_roadnet::{City, SynthConfig};
        let net = SynthConfig::city(City::Chengdu).scaled(0.22).generate();
        let mut model = SarnModel::new(&net, &SarnConfig::tiny());
        Watchdog::check_epoch_params(&model, 4).unwrap();
        let id = model
            .store_momentum
            .ids()
            .next()
            .expect("model has parameters");
        model.store_momentum.value_mut(id).data_mut()[0] = f32::INFINITY;
        match Watchdog::check_epoch_params(&model, 4).unwrap_err() {
            HealthViolation::NonFiniteParam { branch, epoch, .. } => {
                assert_eq!(branch, Branch::Momentum);
                assert_eq!(epoch, 4);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn embedding_defect_screens_dim_and_finiteness() {
        assert_eq!(embedding_defect(&[1.0, 2.0], 2), None);
        assert_eq!(
            embedding_defect(&[1.0], 2),
            Some(EmbeddingDefect::DimMismatch {
                found: 1,
                expected: 2
            })
        );
        match embedding_defect(&[0.0, f32::NEG_INFINITY], 2) {
            Some(EmbeddingDefect::NonFinite {
                component: 1,
                value,
            }) => assert_eq!(value, f32::NEG_INFINITY),
            other => panic!("expected NonFinite at component 1, got {other:?}"),
        }
        // An empty expectation screens an empty vector cleanly.
        assert_eq!(embedding_defect(&[], 0), None);
    }

    #[test]
    fn retry_seeds_are_deterministic_and_distinct() {
        let state = [1, 2, 3, 4];
        assert_eq!(retry_seed(state, 1), retry_seed(state, 1));
        assert_ne!(retry_seed(state, 1), retry_seed(state, 2));
        assert_ne!(retry_seed(state, 1), retry_seed([5, 6, 7, 8], 1));
    }

    #[test]
    fn divergence_report_names_violation_epoch_and_batch() {
        let report = DivergenceReport {
            violation: HealthViolation::NonFiniteLoss { epoch: 7, batch: 2 },
            recoveries: vec![RecoveryEvent {
                violation: HealthViolation::NonFiniteLoss { epoch: 7, batch: 2 },
                rolled_back_to_epoch: 6,
                lr_scale: 0.5,
            }],
            max_recoveries: 1,
            loss_history: vec![1.0, 0.5],
        };
        let msg = TrainError::Diverged(Box::new(report)).to_string();
        assert!(msg.contains("epoch 7"), "{msg}");
        assert!(msg.contains("batch 2"), "{msg}");
        assert!(msg.contains("non-finite loss"), "{msg}");
    }
}
