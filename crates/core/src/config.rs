//! SARN hyper-parameters (paper §5.1 "Implementation details").

use crate::augment::AugmentConfig;
use crate::similarity::SpatialSimilarityConfig;
use crate::watchdog::{FaultSpec, WatchdogConfig};

/// Which SARN components are active — the paper's ablation variants (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SarnVariant {
    /// All four technical contributions.
    Full,
    /// Without the spatial similarity **M**atrix: topology-only encoding and
    /// augmentation; keeps grid negatives and the two-level loss.
    WithoutM,
    /// Without **N**egative sampling and the two-level **L**oss: keeps the
    /// spatial matrix and spatial augmentation; trains with plain InfoNCE on
    /// in-batch negatives.
    WithoutNL,
    /// Without all three: the baseline GCL of §3 (weighted topological
    /// augmentation + in-batch InfoNCE).
    WithoutMNL,
}

impl SarnVariant {
    /// Whether the spatial similarity matrix / spatial edges are used.
    pub fn uses_spatial_matrix(self) -> bool {
        matches!(self, SarnVariant::Full | SarnVariant::WithoutNL)
    }

    /// Whether grid queues + the two-level loss are used.
    pub fn uses_grid_negatives(self) -> bool {
        matches!(self, SarnVariant::Full | SarnVariant::WithoutM)
    }

    /// Ablation label used in the paper's Fig. 5.
    pub fn label(self) -> &'static str {
        match self {
            SarnVariant::Full => "SARN",
            SarnVariant::WithoutM => "SARN-w/o-M",
            SarnVariant::WithoutNL => "SARN-w/o-NL",
            SarnVariant::WithoutMNL => "SARN-w/o-MNL",
        }
    }
}

/// Similarity used inside the InfoNCE losses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LossSimilarity {
    /// Dot product on L2-normalized projections (cosine; the MoCo
    /// convention, numerically stable at small temperatures).
    #[default]
    Cosine,
    /// Raw dot product (the paper's literal description of Λ).
    Dot,
}

/// Aggregation used for the global-negative cell readouts `R(·)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Readout {
    /// Mean of the queue (the paper's choice).
    #[default]
    Mean,
    /// Elementwise maximum (design-choice ablation).
    Max,
}

/// Full hyper-parameter set of SARN.
#[derive(Clone, Debug)]
pub struct SarnConfig {
    /// Embedding dimensionality `d` (paper: 128).
    pub d: usize,
    /// Projection dimensionality `d_z < d`.
    pub d_z: usize,
    /// Per-feature embedding width (`d_f = 7 *` this).
    pub d_per_feature: usize,
    /// GAT layers (paper: 3).
    pub n_layers: usize,
    /// Attention heads `L` (paper: 4).
    pub n_heads: usize,
    /// `A^s` thresholds (paper: 200 m, π/8).
    pub similarity: SpatialSimilarityConfig,
    /// Edge corruption configuration (paper: ρ_t = ρ_s = 0.4).
    pub augment: AugmentConfig,
    /// Grid cell side `clen` in meters.
    pub clen_m: f64,
    /// Total negative-sample queue budget `K` (paper: 1000).
    pub total_k: usize,
    /// InfoNCE temperature `τ` (paper: 0.05).
    pub tau: f32,
    /// Local/global loss trade-off `λ` (paper: 0.4).
    pub lambda: f32,
    /// Momentum coefficient `m` (paper: 0.999).
    pub momentum: f32,
    /// Initial learning rate (paper: 0.005, cosine annealed).
    pub lr: f32,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Maximum training epochs (paper: 200).
    pub max_epochs: usize,
    /// Cosine-annealing horizon in epochs; `0` (default) follows
    /// `max_epochs`. Pin this when an invocation's epoch budget differs
    /// from the schedule's intended total — e.g. a run that will be
    /// interrupted and resumed trains every leg with the same horizon, so
    /// the learning-rate curve (and hence the trajectory) is unchanged.
    pub schedule_epochs: usize,
    /// Early-stopping patience in epochs (paper: 20).
    pub patience: u32,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel compute backend: `0` = automatic
    /// (`RAYON_NUM_THREADS`, then the machine), `1` = serial (default),
    /// `n` = exactly `n`. Results are identical at every setting — the
    /// backend only splits work, never reorders accumulation.
    pub num_threads: usize,
    /// Read by nothing: the tensor kernels have one arithmetic. Kept only
    /// for `perfbench/src/train.rs:50` and `:146`, which pin it to
    /// `Reference` and pass it to `sarn_par::set_reduction_order`; delete
    /// it once a benchmark change drops that pin. Not part of the
    /// checkpoint fingerprint.
    pub reduction_order: sarn_par::ReductionOrder,
    /// Active components.
    pub variant: SarnVariant,
    /// InfoNCE similarity (design-choice ablation; default cosine).
    pub loss_similarity: LossSimilarity,
    /// Global-negative readout aggregation (design-choice ablation).
    pub readout: Readout,
    /// Save a training checkpoint every this many epochs (`0` = never).
    pub checkpoint_every: usize,
    /// Directory receiving checkpoint files (required when
    /// `checkpoint_every > 0`; created on first save).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Rolling retention: keep only the newest this many checkpoints of
    /// this configuration (`0` = keep everything).
    pub checkpoint_keep: usize,
    /// Resume training from this checkpoint file; loading or validation
    /// failures abort the run with a typed error.
    pub resume_from: Option<std::path::PathBuf>,
    /// When set (and `resume_from` is not), resume from the newest
    /// compatible checkpoint found in `checkpoint_dir`, starting fresh if
    /// there is none — the mode the bench harness uses, making interrupted
    /// table/figure runs restartable with the same command line.
    pub resume_auto: bool,
    /// Warm-start: seed the model parameters from this checkpoint file and
    /// then train a *fresh* run (epoch 0, fresh optimizer/queues/RNG) — the
    /// online pipeline's retrain mode after a network edit, where the old
    /// weights are a good initialization but the exact trajectory cannot
    /// continue (the segment set changed). The checkpoint must pass the
    /// [`crate::Checkpoint::probe_header`] fingerprint check; parameter
    /// tensors whose shape depends on network content (the feature-
    /// embedding vocab tables) are copied row-prefix-wise. Mutually
    /// exclusive with `resume_from`/`resume_auto`. Excluded from the
    /// fingerprint: it changes the initialization, not the hyper-parameter
    /// trajectory a checkpoint lineage is keyed by — warm-started runs are
    /// a new lineage by construction (fresh epoch 0).
    pub warm_start_from: Option<std::path::PathBuf>,
    /// Wall-clock training budget in seconds (`0` = unbounded, the
    /// default). Checked at epoch boundaries; an exceeded budget aborts
    /// the run with [`crate::watchdog::TrainError::DeadlineExceeded`]
    /// instead of returning partial embeddings. Excluded from the
    /// fingerprint like `max_epochs`: it bounds how *long* a run gets,
    /// never which trajectory it takes.
    pub max_train_seconds: f64,
    /// Global gradient-norm clip applied by the optimizer before each step
    /// (`0` = no clipping, the default). Clipping reshapes the trajectory,
    /// so this knob is part of the config fingerprint.
    pub clip_norm: f32,
    /// Training watchdog: numerical-health probes plus automatic
    /// rollback-to-checkpoint recovery (see [`crate::watchdog`]). Disabled
    /// by default; a healthy watched run is bitwise-identical to an
    /// unwatched one, so these knobs are *not* fingerprinted.
    pub watchdog: WatchdogConfig,
    /// Deterministic fault injection for watchdog and pipeline tests
    /// (never set in real runs; excluded from the fingerprint).
    pub fault: Option<FaultSpec>,
    /// Telemetry (see [`sarn_obs`]): counters/histograms/spans plus the
    /// event journal and periodic file exports. Disabled by default;
    /// recording only ever *reads* training state, so an instrumented
    /// run is bitwise-identical to an uninstrumented one and these
    /// knobs are *not* fingerprinted.
    pub obs: sarn_obs::ObsConfig,
}

impl Default for SarnConfig {
    /// The paper's defaults. Expensive on a CPU — prefer
    /// [`SarnConfig::small`] for experiments and [`SarnConfig::tiny`] in
    /// tests.
    fn default() -> Self {
        Self {
            d: 128,
            d_z: 64,
            d_per_feature: 16,
            n_layers: 3,
            n_heads: 4,
            similarity: SpatialSimilarityConfig::default(),
            augment: AugmentConfig::default(),
            clen_m: 600.0,
            total_k: 1000,
            tau: 0.05,
            lambda: 0.4,
            momentum: 0.999,
            lr: 0.005,
            batch_size: 128,
            max_epochs: 200,
            schedule_epochs: 0,
            patience: 20,
            seed: 1,
            num_threads: 1,
            reduction_order: sarn_par::ReductionOrder::Reference,
            variant: SarnVariant::Full,
            loss_similarity: LossSimilarity::Cosine,
            readout: Readout::Mean,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep: 3,
            resume_from: None,
            resume_auto: false,
            warm_start_from: None,
            max_train_seconds: 0.0,
            clip_norm: 0.0,
            watchdog: WatchdogConfig::default(),
            fault: None,
            obs: sarn_obs::ObsConfig::default(),
        }
    }
}

impl SarnConfig {
    /// CPU-friendly configuration used by the experiment harness: same
    /// structure as the paper's setup with reduced width and epoch budget.
    pub fn small() -> Self {
        Self {
            d: 64,
            d_z: 32,
            d_per_feature: 8,
            max_epochs: 30,
            patience: 8,
            momentum: 0.99,
            ..Self::default()
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            d: 16,
            d_z: 8,
            d_per_feature: 4,
            n_layers: 2,
            n_heads: 2,
            max_epochs: 3,
            patience: 3,
            batch_size: 64,
            total_k: 200,
            momentum: 0.9,
            ..Self::default()
        }
    }

    /// Sets the ablation variant.
    pub fn with_variant(mut self, v: SarnVariant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count of the parallel compute backend
    /// (`0` = automatic, `1` = serial, `n` = exactly `n`).
    pub fn with_num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Enables periodic checkpointing into `dir` every `every` epochs.
    pub fn with_checkpointing(mut self, dir: impl Into<std::path::PathBuf>, every: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Resumes training from an explicit checkpoint file.
    pub fn with_resume_from(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Warm-starts a fresh run from a checkpoint's parameters (see
    /// [`SarnConfig::warm_start_from`]).
    pub fn with_warm_start_from(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.warm_start_from = Some(path.into());
        self
    }

    /// Sets the wall-clock training budget (`0` = unbounded).
    pub fn with_max_train_seconds(mut self, seconds: f64) -> Self {
        self.max_train_seconds = seconds;
        self
    }

    /// Enables the training watchdog with the given knobs (the `enabled`
    /// flag inside `wd` is forced on).
    pub fn with_watchdog(mut self, wd: WatchdogConfig) -> Self {
        self.watchdog = WatchdogConfig {
            enabled: true,
            ..wd
        };
        self
    }

    /// Enables telemetry with the given knobs (the `enabled` flag inside
    /// `obs` is forced on).
    pub fn with_obs(mut self, obs: sarn_obs::ObsConfig) -> Self {
        self.obs = sarn_obs::ObsConfig {
            enabled: true,
            ..obs
        };
        self
    }

    /// Sets the global gradient-norm clip (`0` disables clipping).
    pub fn with_clip_norm(mut self, clip_norm: f32) -> Self {
        self.clip_norm = clip_norm;
        self
    }

    /// Effective cosine-annealing horizon: `schedule_epochs` when pinned,
    /// otherwise `max_epochs`.
    pub fn schedule_horizon(&self) -> usize {
        if self.schedule_epochs > 0 {
            self.schedule_epochs
        } else {
            self.max_epochs
        }
    }

    /// Fingerprint of every hyper-parameter that shapes the training
    /// trajectory (model widths, seed, loss knobs, augmentation, variant,
    /// the annealing horizon…). Checkpoints record it and refuse to resume
    /// under a different value. Deliberately excluded: `max_epochs` itself
    /// (with the horizon pinned via `schedule_epochs`, a larger budget
    /// *extends* a run), `patience`, `num_threads` (training is bitwise
    /// identical at every thread count), `reduction_order` (read by
    /// nothing), `similarity.join` (the `A^s` spatial-join strategy builds
    /// the identical edge list either way —
    /// `crates/core/tests/spatial_join_equivalence.rs` proves it — so it
    /// can never fork a trajectory), the checkpoint knobs themselves,
    /// the watchdog/fault knobs (a healthy watched run is bitwise
    /// identical to an unwatched one), and the telemetry knobs (recording
    /// only reads training state; an instrumented run is bitwise identical
    /// to an uninstrumented one — `tests/sys/tests/obs_equivalence.rs`
    /// proves it). `clip_norm` IS included — clipping reshapes every step
    /// that trips it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for v in [
            self.schedule_horizon() as u64,
            self.d as u64,
            self.d_z as u64,
            self.d_per_feature as u64,
            self.n_layers as u64,
            self.n_heads as u64,
            self.similarity.delta_ds_m.to_bits(),
            self.similarity.delta_as_rad.to_bits(),
            self.augment.rho_t.to_bits(),
            self.augment.rho_s.to_bits(),
            self.augment.epsilon.to_bits(),
            self.clen_m.to_bits(),
            self.total_k as u64,
            self.tau.to_bits() as u64,
            self.lambda.to_bits() as u64,
            self.momentum.to_bits() as u64,
            self.lr.to_bits() as u64,
            self.batch_size as u64,
            self.seed,
            self.variant as u64,
            self.loss_similarity as u64,
            self.readout as u64,
            self.clip_norm.to_bits() as u64,
        ] {
            h.write_u64(v);
        }
        h.finish()
    }
}

/// Minimal FNV-1a hasher for the config fingerprint (stable across builds,
/// unlike `std::collections`' randomized hashers).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SarnConfig::default();
        assert_eq!(c.d, 128);
        assert_eq!(c.n_layers, 3);
        assert_eq!(c.n_heads, 4);
        assert_eq!(c.total_k, 1000);
        assert!((c.tau - 0.05).abs() < 1e-9);
        assert!((c.lambda - 0.4).abs() < 1e-9);
        assert!((c.augment.rho_t - 0.4).abs() < 1e-12);
        assert!((c.similarity.delta_ds_m - 200.0).abs() < 1e-12);
        assert_eq!(c.max_epochs, 200);
        assert_eq!(c.patience, 20);
        assert_eq!(c.batch_size, 128);
        // The compute backend defaults to the serial path.
        assert_eq!(c.num_threads, 1);
        assert_eq!(c.with_num_threads(4).num_threads, 4);
    }

    #[test]
    fn fingerprint_tracks_trajectory_knobs_only() {
        let base = SarnConfig::tiny();
        assert_eq!(base.fingerprint(), SarnConfig::tiny().fingerprint());
        // Trajectory-shaping knobs change the fingerprint.
        assert_ne!(base.fingerprint(), base.clone().with_seed(2).fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.clone()
                .with_variant(SarnVariant::WithoutM)
                .fingerprint()
        );
        let mut wide = base.clone();
        wide.d += 8;
        assert_ne!(base.fingerprint(), wide.fingerprint());
        // The annealing horizon is part of the trajectory: growing
        // `max_epochs` alone stretches the cosine schedule.
        let mut stretched = base.clone();
        stretched.max_epochs += 100;
        assert_ne!(base.fingerprint(), stretched.fingerprint());
        // With the horizon pinned, a larger epoch budget extends the same
        // run; patience/backend/checkpoint knobs never matter.
        let mut longer = base.clone();
        longer.schedule_epochs = base.max_epochs;
        longer.max_epochs += 100;
        longer.patience += 5;
        assert_eq!(base.fingerprint(), longer.fingerprint());
        assert_eq!(
            base.fingerprint(),
            base.clone().with_num_threads(8).fingerprint()
        );
        assert_eq!(
            base.fingerprint(),
            base.clone().with_checkpointing("/tmp/x", 2).fingerprint()
        );
        // The spatial-join strategy builds the identical `A^s` edge list
        // either way, so it is likewise excluded.
        let mut reference_join = base.clone();
        reference_join.similarity.join = crate::similarity::SpatialJoin::Reference;
        assert_eq!(base.fingerprint(), reference_join.fingerprint());
        // Gradient clipping reshapes the trajectory; the watchdog does not.
        assert_ne!(
            base.fingerprint(),
            base.clone().with_clip_norm(5.0).fingerprint()
        );
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_watchdog(WatchdogConfig::default())
                .fingerprint()
        );
        // Warm-start changes the initialization (a new lineage, fresh
        // epoch 0), not the trajectory knobs a lineage is keyed by; the
        // deadline only bounds a run's length. Both are excluded.
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_warm_start_from("/tmp/ck/x.sarnckpt")
                .with_max_train_seconds(30.0)
                .fingerprint()
        );
        // Telemetry never perturbs the trajectory either.
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_obs(sarn_obs::ObsConfig {
                    export_dir: Some("/tmp/obs".into()),
                    export_every: 2,
                    ..sarn_obs::ObsConfig::default()
                })
                .fingerprint()
        );
    }

    #[test]
    fn obs_is_off_by_default_and_with_obs_forces_it_on() {
        let c = SarnConfig::default();
        assert!(!c.obs.enabled);
        let on = c.with_obs(sarn_obs::ObsConfig {
            enabled: false, // forced on by the builder
            export_every: 3,
            ..sarn_obs::ObsConfig::default()
        });
        assert!(on.obs.enabled);
        assert_eq!(on.obs.export_every, 3);
    }

    #[test]
    fn watchdog_is_off_by_default_and_with_watchdog_forces_it_on() {
        let c = SarnConfig::default();
        assert!(!c.watchdog.enabled);
        assert!((c.clip_norm - 0.0).abs() < f32::EPSILON);
        assert!(c.fault.is_none());
        let on = c.with_watchdog(WatchdogConfig {
            enabled: false, // forced on by the builder
            max_recoveries: 5,
            ..WatchdogConfig::default()
        });
        assert!(on.watchdog.enabled);
        assert_eq!(on.watchdog.max_recoveries, 5);
    }

    #[test]
    fn checkpointing_is_off_by_default() {
        let c = SarnConfig::default();
        assert_eq!(c.checkpoint_every, 0);
        assert!(c.checkpoint_dir.is_none());
        assert!(c.resume_from.is_none());
        assert!(!c.resume_auto);
        assert_eq!(c.checkpoint_keep, 3);
        let c = c
            .with_checkpointing("/tmp/ck", 5)
            .with_resume_from("/tmp/ck/x");
        assert_eq!(c.checkpoint_every, 5);
        assert!(c.checkpoint_dir.is_some() && c.resume_from.is_some());
    }

    #[test]
    fn variant_component_flags() {
        assert!(SarnVariant::Full.uses_spatial_matrix());
        assert!(SarnVariant::Full.uses_grid_negatives());
        assert!(!SarnVariant::WithoutM.uses_spatial_matrix());
        assert!(SarnVariant::WithoutM.uses_grid_negatives());
        assert!(SarnVariant::WithoutNL.uses_spatial_matrix());
        assert!(!SarnVariant::WithoutNL.uses_grid_negatives());
        assert!(!SarnVariant::WithoutMNL.uses_spatial_matrix());
        assert!(!SarnVariant::WithoutMNL.uses_grid_negatives());
    }
}
