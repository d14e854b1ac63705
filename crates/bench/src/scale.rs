//! Experiment scale knobs (environment-variable driven).

use sarn_core::SarnConfig;
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_traj::{TrajDataset, TrajGenConfig};

/// Scale configuration shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// Road-network lattice scale factor.
    pub net_scale: f64,
    /// Repeated runs (different seeds) per reported cell.
    pub seeds: usize,
    /// Self-supervised training epochs.
    pub epochs: usize,
    /// Pinned cosine-annealing horizon (`SARN_SCHEDULE_EPOCHS`; 0 =
    /// follow `SARN_EPOCHS`). Set it when resuming with a larger
    /// `SARN_EPOCHS` than the interrupted run so both legs train on the
    /// same learning-rate curve (and hence share a config fingerprint).
    pub schedule_epochs: usize,
    /// Trajectories generated per dataset.
    pub traj_count: usize,
    /// Maximum segments per trajectory (paper default: 60).
    pub max_traj_segments: usize,
    /// Worker threads for the parallel compute backend (`SARN_NUM_THREADS`;
    /// `0` = automatic, `1` = serial).
    pub num_threads: usize,
    /// Checkpoint directory (`SARN_CKPT_DIR`; unset = no checkpointing).
    pub ckpt_dir: Option<std::path::PathBuf>,
    /// Save a checkpoint every this many epochs (`SARN_CKPT_EVERY`,
    /// default 5; effective only with `ckpt_dir` set).
    pub ckpt_every: usize,
    /// Rolling retention per configuration (`SARN_CKPT_KEEP`, default 3;
    /// `0` keeps everything).
    pub ckpt_keep: usize,
    /// Resume interrupted runs from the newest compatible checkpoint in
    /// `ckpt_dir` (`SARN_RESUME=1`; fresh runs are unaffected). Each
    /// city/seed/variant has its own config fingerprint, so one directory
    /// serves a whole table sweep.
    pub resume: bool,
    /// Enable the training watchdog (`SARN_WATCHDOG=1`; off by default).
    pub watchdog: bool,
    /// Rollback/retry budget before a run reports divergence
    /// (`SARN_WATCHDOG_MAX_RECOVERIES`, default 3).
    pub watchdog_max_recoveries: usize,
    /// Learning-rate multiplier compounded on every recovery
    /// (`SARN_WATCHDOG_LR_BACKOFF`, default 0.5).
    pub watchdog_lr_backoff: f32,
    /// Gradient-norm explosion threshold as a multiple of the EMA baseline
    /// (`SARN_WATCHDOG_GRAD_RATIO`, default 25; `0` disables the ratio
    /// probe while keeping the non-finite scans).
    pub watchdog_grad_ratio: f32,
    /// Global gradient-norm clip applied before every Adam step
    /// (`SARN_CLIP_NORM`, default 0 = off).
    pub clip_norm: f32,
    /// Telemetry knobs (`SARN_OBS=1` enables recording, `SARN_OBS_DIR`
    /// adds periodic file exports, `SARN_OBS_EVERY` /
    /// `SARN_OBS_JOURNAL_CAP` tune them; off by default).
    pub obs: sarn_obs::ObsConfig,
}

impl ExperimentScale {
    /// Reads the scale from the environment (see crate docs), falling back
    /// to quick-run defaults.
    pub fn from_env() -> Self {
        let get = |k: &str, d: f64| -> f64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Self {
            net_scale: get("SARN_NET_SCALE", 0.45),
            seeds: get("SARN_SEEDS", 2.0) as usize,
            epochs: get("SARN_EPOCHS", 15.0) as usize,
            schedule_epochs: get("SARN_SCHEDULE_EPOCHS", 0.0) as usize,
            traj_count: get("SARN_TRAJ_COUNT", 140.0) as usize,
            max_traj_segments: get("SARN_MAX_TRAJ_SEGMENTS", 30.0) as usize,
            num_threads: get("SARN_NUM_THREADS", 1.0) as usize,
            ckpt_dir: std::env::var("SARN_CKPT_DIR")
                .ok()
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from),
            ckpt_every: get("SARN_CKPT_EVERY", 5.0) as usize,
            ckpt_keep: get("SARN_CKPT_KEEP", 3.0) as usize,
            resume: get("SARN_RESUME", 0.0) != 0.0,
            watchdog: get("SARN_WATCHDOG", 0.0) != 0.0,
            watchdog_max_recoveries: get("SARN_WATCHDOG_MAX_RECOVERIES", 3.0) as usize,
            watchdog_lr_backoff: get("SARN_WATCHDOG_LR_BACKOFF", 0.5) as f32,
            watchdog_grad_ratio: get("SARN_WATCHDOG_GRAD_RATIO", 25.0) as f32,
            clip_norm: get("SARN_CLIP_NORM", 0.0) as f32,
            obs: sarn_obs::ObsConfig::from_env(),
        }
    }

    /// Builds a city road network at this scale.
    ///
    /// When scaling a lattice down, the speed-limit label *fraction* is
    /// scaled up (capped at 0.5) so the label *count* stays large enough
    /// for the road-property task to produce meaningful F1/AUC.
    pub fn network(&self, city: City) -> RoadNetwork {
        let mut cfg = SynthConfig::city(city).scaled(self.net_scale);
        if self.net_scale < 1.0 {
            cfg.label_frac = (cfg.label_frac / (self.net_scale * self.net_scale)).min(0.5);
        }
        let net = cfg.generate();
        // Guarantee a usable label count (>= ~200) even on small lattices.
        let min_frac = (200.0 / net.num_segments() as f64).min(0.5);
        if cfg.label_frac < min_frac {
            cfg.label_frac = min_frac;
            return cfg.generate();
        }
        net
    }

    /// Builds the trajectory dataset for a network (max length per Table 7
    /// sweeps is passed explicitly).
    pub fn trajectories(&self, net: &RoadNetwork, max_segments: usize, seed: u64) -> TrajDataset {
        let gen = TrajGenConfig {
            count: self.traj_count,
            min_segments: 6,
            max_segments: max_segments.max(8),
            seed,
            ..Default::default()
        };
        TrajDataset::build(net, &gen, max_segments)
    }

    /// SARN configuration at this scale. With `SARN_CKPT_DIR` set, training
    /// checkpoints periodically and (under `SARN_RESUME=1`) resumes the
    /// newest compatible checkpoint, making interrupted table/figure runs
    /// restartable with the same command line.
    pub fn sarn_config(&self, seed: u64) -> SarnConfig {
        let mut cfg = SarnConfig::small();
        cfg.max_epochs = self.epochs;
        cfg.schedule_epochs = self.schedule_epochs;
        cfg.patience = (self.epochs as u32 / 3).max(3);
        cfg.seed = seed;
        cfg.num_threads = self.num_threads;
        if let Some(dir) = &self.ckpt_dir {
            cfg = cfg.with_checkpointing(dir, self.ckpt_every);
            cfg.checkpoint_keep = self.ckpt_keep;
            cfg.resume_auto = self.resume;
        }
        if self.watchdog {
            cfg = cfg.with_watchdog(sarn_core::WatchdogConfig {
                enabled: true,
                max_recoveries: self.watchdog_max_recoveries,
                lr_backoff: self.watchdog_lr_backoff,
                grad_ratio: self.watchdog_grad_ratio,
                ..Default::default()
            });
        }
        if self.clip_norm > 0.0 {
            cfg = cfg.with_clip_norm(self.clip_norm);
        }
        cfg.obs = self.obs.clone();
        cfg
    }

    /// SARN configuration with the negative-sampling grid matched to a
    /// network's extent: the paper's `clen = 600 m` is ~10.5% of the SF
    /// region's side, and the per-cell queue size phi = K / #cells lands at
    /// 10-16; reduced-scale maps need a proportionally smaller `clen` to
    /// keep the same local/global structure.
    pub fn sarn_config_for(&self, net: &RoadNetwork, seed: u64) -> SarnConfig {
        let mut cfg = self.sarn_config(seed);
        let extent = net.bbox().width_m().max(net.bbox().height_m());
        cfg.clen_m = (0.105 * extent).max(50.0);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_usable_networks() {
        let s = ExperimentScale {
            net_scale: 0.3,
            seeds: 1,
            epochs: 2,
            schedule_epochs: 0,
            traj_count: 20,
            max_traj_segments: 15,
            num_threads: 1,
            ckpt_dir: None,
            ckpt_every: 5,
            ckpt_keep: 3,
            resume: false,
            watchdog: false,
            watchdog_max_recoveries: 3,
            watchdog_lr_backoff: 0.5,
            watchdog_grad_ratio: 25.0,
            clip_norm: 0.0,
            obs: Default::default(),
        };
        let net = s.network(City::Chengdu);
        assert!(net.num_segments() > 100);
        let data = s.trajectories(&net, 15, 1);
        assert!(data.len() >= 15);
        let cfg = s.sarn_config(1);
        assert_eq!(cfg.max_epochs, 2);
        // Checkpointing stays off unless a directory is given.
        assert_eq!(cfg.checkpoint_every, 0);
        assert!(!cfg.resume_auto);
    }

    #[test]
    fn checkpoint_knobs_flow_into_the_config() {
        let s = ExperimentScale {
            net_scale: 0.3,
            seeds: 1,
            epochs: 2,
            schedule_epochs: 0,
            traj_count: 20,
            max_traj_segments: 15,
            num_threads: 1,
            ckpt_dir: Some("/tmp/sarn-ckpts".into()),
            ckpt_every: 4,
            ckpt_keep: 2,
            resume: true,
            watchdog: true,
            watchdog_max_recoveries: 5,
            watchdog_lr_backoff: 0.25,
            watchdog_grad_ratio: 40.0,
            clip_norm: 1.5,
            obs: Default::default(),
        };
        let cfg = s.sarn_config(7);
        assert_eq!(cfg.checkpoint_every, 4);
        assert_eq!(cfg.checkpoint_keep, 2);
        assert_eq!(
            cfg.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/sarn-ckpts"))
        );
        assert!(cfg.resume_auto);
        assert!(cfg.watchdog.enabled);
        assert_eq!(cfg.watchdog.max_recoveries, 5);
        assert_eq!(cfg.watchdog.lr_backoff, 0.25);
        assert_eq!(cfg.watchdog.grad_ratio, 40.0);
        assert_eq!(cfg.clip_norm, 1.5);
        // The watchdog and clip knobs must not fork the checkpoint
        // fingerprint lineage of an existing resumable run... except for
        // clip_norm, which changes the trajectory and therefore must.
        let mut off = s.clone();
        off.watchdog = false;
        off.clip_norm = 0.0;
        let mut wd_only = s.clone();
        wd_only.clip_norm = 0.0;
        assert_eq!(
            off.sarn_config(7).fingerprint(),
            wd_only.sarn_config(7).fingerprint()
        );
        assert_ne!(
            off.sarn_config(7).fingerprint(),
            s.sarn_config(7).fingerprint()
        );
        // Different seeds are different runs: their checkpoints must not
        // collide in the shared directory.
        assert_ne!(
            s.sarn_config(7).fingerprint(),
            s.sarn_config(8).fingerprint()
        );
    }
}
