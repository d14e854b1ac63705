//! Serving knobs, their validated environment parsing, and the
//! injectable load fault.

use std::time::Duration;

use crate::breaker::BreakerConfig;

/// A malformed `SARN_SERVE_*` environment knob, named. Unset or empty
/// variables fall back to defaults; a *present but invalid* value
/// (non-numeric, zero where zero is incoherent, negative, non-finite) is
/// a hard error — a typo in an operator's deployment must not silently
/// become the default ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable that held the bad value.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// What the knob requires, human-readable.
    pub requirement: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} rejected: {}",
            self.var, self.value, self.requirement
        )
    }
}

impl std::error::Error for ConfigError {}

/// Reads a trimmed environment value; unset or empty means "use the
/// default".
fn env_raw(var: &'static str) -> Option<String> {
    std::env::var(var)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Parses `var` with `parse`, which returns `None` for any value that is
/// malformed *or* out of range — both become the same typed error naming
/// the variable.
fn env_knob<T>(
    var: &'static str,
    default: T,
    requirement: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, ConfigError> {
    match env_raw(var) {
        None => Ok(default),
        Some(raw) => parse(&raw).ok_or(ConfigError {
            var,
            value: raw,
            requirement,
        }),
    }
}

fn env_usize_min(var: &'static str, default: usize, min: usize) -> Result<usize, ConfigError> {
    let requirement = if min == 0 {
        "must be a non-negative integer"
    } else {
        "must be a positive integer"
    };
    env_knob(var, default, requirement, |raw| {
        raw.parse::<usize>().ok().filter(|&v| v >= min)
    })
}

fn env_u64_min(var: &'static str, default: u64, min: u64) -> Result<u64, ConfigError> {
    let requirement = if min == 0 {
        "must be a non-negative integer of milliseconds"
    } else {
        "must be a positive integer of milliseconds"
    };
    env_knob(var, default, requirement, |raw| {
        raw.parse::<u64>().ok().filter(|&v| v >= min)
    })
}

fn env_u32_min(var: &'static str, default: u32, min: u32) -> Result<u32, ConfigError> {
    env_knob(var, default, "must be a positive integer", |raw| {
        raw.parse::<u32>().ok().filter(|&v| v >= min)
    })
}

fn env_f64_pos(var: &'static str, default: f64) -> Result<f64, ConfigError> {
    env_knob(var, default, "must be a finite number > 0", |raw| {
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
    })
}

fn env_f64_nonneg(var: &'static str, default: f64) -> Result<f64, ConfigError> {
    env_knob(var, default, "must be a finite number >= 0", |raw| {
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
    })
}

/// `SARN_ANN_THRESHOLD` is either a positive row count or one of the
/// "disabled" spellings (`inf`/`∞`/`off`/`none`, case-insensitive) that
/// map to `usize::MAX` — a threshold no real generation reaches.
fn env_ann_threshold(var: &'static str, default: usize) -> Result<usize, ConfigError> {
    env_knob(
        var,
        default,
        "must be a positive integer or inf/off/none",
        |raw| match raw.to_ascii_lowercase().as_str() {
            "inf" | "∞" | "off" | "none" => Some(usize::MAX),
            other => other.parse::<usize>().ok().filter(|&v| v >= 1),
        },
    )
}

/// Knobs of an [`crate::EmbeddingStore`].
///
/// The bench binaries read these from `SARN_SERVE_*` environment
/// variables via [`ServeConfig::from_env`]; library callers set fields
/// directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Hard in-flight request ceiling: admission beyond this sheds the
    /// request with [`crate::ServeError::Overloaded`].
    pub max_inflight: usize,
    /// Soft pressure threshold: while more than this many requests are in
    /// flight, exact k-NN degrades to the grid-approximate path (`0`
    /// disables degradation).
    pub degrade_inflight: usize,
    /// Default per-request time budget (`None` = unbounded); individual
    /// requests may override it with their own [`crate::Deadline`].
    pub default_deadline: Option<Duration>,
    /// Reload retries after the first failed attempt (total attempts are
    /// `reload_retries + 1`).
    pub reload_retries: usize,
    /// Sleep before the first reload retry; doubles per subsequent retry.
    pub reload_backoff: Duration,
    /// Rows scanned between deadline probes inside k-NN loops.
    pub deadline_check_every: usize,
    /// Cell side in meters of the spatial grid backing approximate k-NN.
    pub grid_clen_m: f64,
    /// Starting Chebyshev cell radius of the approximate candidate search
    /// (grows until enough candidates are found).
    pub approx_radius: usize,
    /// Staleness SLO: when the live generation's age exceeds this, the
    /// store's health degrades to [`crate::ServeState::Stale`] (queries
    /// keep being served — stale answers beat no answers — but the breach
    /// is journaled and counted so an operator, or the online pipeline,
    /// reacts). `None` disables the check.
    pub max_staleness: Option<Duration>,
    /// Row count at or above which an admitted generation gets an HNSW
    /// index built in the background (`usize::MAX` disables ANN entirely
    /// — serving is then bitwise-identical to a store without the
    /// subsystem).
    pub ann_threshold: usize,
    /// HNSW `M`: neighbors kept per node per layer (>= 2).
    pub ann_m: usize,
    /// HNSW `ef_construction`: beam width while building the index.
    pub ann_ef_construction: usize,
    /// HNSW `ef_search`: beam width while querying (floored at `k + 1`
    /// per query, so small values stay safe).
    pub ann_ef_search: usize,
    /// Seed of the deterministic level assignment — same seed and rows
    /// produce a bitwise-identical index.
    pub ann_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            degrade_inflight: 48,
            default_deadline: None,
            reload_retries: 3,
            reload_backoff: Duration::from_millis(10),
            deadline_check_every: 256,
            grid_clen_m: 500.0,
            approx_radius: 1,
            max_staleness: None,
            ann_threshold: 4096,
            ann_m: 16,
            ann_ef_construction: 100,
            ann_ef_search: 64,
            ann_seed: 42,
        }
    }
}

impl ServeConfig {
    /// Reads the `SARN_SERVE_*` environment knobs, falling back to the
    /// defaults: `SARN_SERVE_MAX_INFLIGHT` (>= 1),
    /// `SARN_SERVE_DEGRADE_INFLIGHT` (`0` disables degradation),
    /// `SARN_SERVE_DEADLINE_MS` (`0` = unbounded),
    /// `SARN_SERVE_RELOAD_RETRIES` (`0` = no retries),
    /// `SARN_SERVE_RELOAD_BACKOFF_MS` (>= 1), `SARN_SERVE_CLEN_M`
    /// (finite, > 0), `SARN_SERVE_APPROX_RADIUS` (>= 1),
    /// `SARN_SERVE_MAX_STALENESS_S` (`0` = no staleness SLO; fractional
    /// seconds accepted), plus the ANN knobs: `SARN_ANN_THRESHOLD`
    /// (positive row count, or `inf`/`off`/`none` to disable ANN),
    /// `SARN_ANN_M` (>= 2), `SARN_ANN_EF_CONSTRUCTION` (>= 1),
    /// `SARN_ANN_EF_SEARCH` (>= 1), and `SARN_ANN_SEED` (any u64).
    ///
    /// A present-but-malformed value returns a [`ConfigError`] naming the
    /// variable; only unset/empty variables default.
    pub fn from_env() -> Result<Self, ConfigError> {
        let d = ServeConfig::default();
        let deadline_ms = env_u64_min("SARN_SERVE_DEADLINE_MS", 0, 0)?;
        let max_staleness_s = env_f64_nonneg("SARN_SERVE_MAX_STALENESS_S", 0.0)?;
        Ok(Self {
            max_inflight: env_usize_min("SARN_SERVE_MAX_INFLIGHT", d.max_inflight, 1)?,
            degrade_inflight: env_usize_min("SARN_SERVE_DEGRADE_INFLIGHT", d.degrade_inflight, 0)?,
            default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            reload_retries: env_usize_min("SARN_SERVE_RELOAD_RETRIES", d.reload_retries, 0)?,
            reload_backoff: Duration::from_millis(env_u64_min(
                "SARN_SERVE_RELOAD_BACKOFF_MS",
                d.reload_backoff.as_millis() as u64,
                1,
            )?),
            deadline_check_every: d.deadline_check_every,
            grid_clen_m: env_f64_pos("SARN_SERVE_CLEN_M", d.grid_clen_m)?,
            approx_radius: env_usize_min("SARN_SERVE_APPROX_RADIUS", d.approx_radius, 1)?,
            max_staleness: (max_staleness_s > 0.0)
                .then(|| Duration::from_secs_f64(max_staleness_s)),
            ann_threshold: env_ann_threshold("SARN_ANN_THRESHOLD", d.ann_threshold)?,
            ann_m: env_usize_min("SARN_ANN_M", d.ann_m, 2)?,
            ann_ef_construction: env_usize_min(
                "SARN_ANN_EF_CONSTRUCTION",
                d.ann_ef_construction,
                1,
            )?,
            ann_ef_search: env_usize_min("SARN_ANN_EF_SEARCH", d.ann_ef_search, 1)?,
            ann_seed: env_knob(
                "SARN_ANN_SEED",
                d.ann_seed,
                "must be an unsigned integer",
                |raw| raw.parse::<u64>().ok(),
            )?,
        })
    }
}

/// Knobs of the shard [`crate::Router`] fronting a
/// [`crate::ShardedStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterConfig {
    /// Shards requested of the geo-partitioner. The actual shard count
    /// may be lower (empty cell bands are compacted away).
    pub num_shards: usize,
    /// Minimum shards that must contribute to a fan-out answer; fewer
    /// fails the request with [`crate::ServeError::PartialCoverage`].
    pub min_shards: usize,
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Retries per shard after the first failed attempt. A deadline
    /// failure (the budget is gone) and an unknown segment (no retry can
    /// succeed) are terminal; every other typed failure is retried after
    /// the backoff, a shard's shed [`crate::ServeError::Overloaded`]
    /// included.
    pub shard_retries: usize,
    /// Sleep before the first per-shard retry; doubles per retry.
    pub shard_backoff: Duration,
    /// In-flight ceiling across the whole router (checked once per
    /// fan-out, on top of the per-shard store ceilings).
    pub router_max_inflight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            min_shards: 1,
            breaker: BreakerConfig::default(),
            shard_retries: 1,
            shard_backoff: Duration::from_millis(2),
            router_max_inflight: 256,
        }
    }
}

impl RouterConfig {
    /// Reads the router's `SARN_SERVE_*` environment knobs, falling back
    /// to the defaults: `SARN_SERVE_SHARDS` (>= 1),
    /// `SARN_SERVE_MIN_SHARDS` (>= 1),
    /// `SARN_SERVE_BREAKER_THRESHOLD` (>= 1),
    /// `SARN_SERVE_BREAKER_COOLDOWN_MS` (>= 1),
    /// `SARN_SERVE_SHARD_RETRIES` (`0` = no retries),
    /// `SARN_SERVE_SHARD_BACKOFF_MS` (>= 1), and
    /// `SARN_SERVE_ROUTER_MAX_INFLIGHT` (>= 1). Same contract as
    /// [`ServeConfig::from_env`]: malformed values are typed errors
    /// naming the variable, never silent defaults.
    pub fn from_env() -> Result<Self, ConfigError> {
        let d = RouterConfig::default();
        Ok(Self {
            num_shards: env_usize_min("SARN_SERVE_SHARDS", d.num_shards, 1)?,
            min_shards: env_usize_min("SARN_SERVE_MIN_SHARDS", d.min_shards, 1)?,
            breaker: BreakerConfig {
                failure_threshold: env_u32_min(
                    "SARN_SERVE_BREAKER_THRESHOLD",
                    d.breaker.failure_threshold,
                    1,
                )?,
                open_cooldown: Duration::from_millis(env_u64_min(
                    "SARN_SERVE_BREAKER_COOLDOWN_MS",
                    d.breaker.open_cooldown.as_millis() as u64,
                    1,
                )?),
            },
            shard_retries: env_usize_min("SARN_SERVE_SHARD_RETRIES", d.shard_retries, 0)?,
            shard_backoff: Duration::from_millis(env_u64_min(
                "SARN_SERVE_SHARD_BACKOFF_MS",
                d.shard_backoff.as_millis() as u64,
                1,
            )?),
            router_max_inflight: env_usize_min(
                "SARN_SERVE_ROUTER_MAX_INFLIGHT",
                d.router_max_inflight,
                1,
            )?,
        })
    }
}

/// Injected reload damage, in the mold of the training watchdog's
/// `FaultSpec`: deterministic, test-only sabotage of the load path so the
/// stale-fallback contract can be exercised without relying on real disk
/// failures. Set on a store with [`crate::EmbeddingStore::inject_fault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadFault {
    /// The next this many load attempts fail with an injected I/O error
    /// (each attempt decrements the counter, so bounded retry eventually
    /// outlasts a transient fault).
    pub fail_loads: u32,
    /// Sleep applied to every load attempt while the fault is installed —
    /// simulated slow I/O for deadline and churn tests.
    pub delay_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Env-mutating tests in this module serialize on this lock (threads
    /// within one test binary share the process environment).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_env<R>(pairs: &[(&'static str, &str)], f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        for (k, v) in pairs {
            std::env::set_var(k, v);
        }
        let out = f();
        for (k, _) in pairs {
            std::env::remove_var(k);
        }
        out
    }

    #[test]
    fn defaults_are_coherent() {
        let d = ServeConfig::default();
        assert!(d.degrade_inflight < d.max_inflight);
        assert!(d.default_deadline.is_none());
        assert!(d.reload_backoff > Duration::ZERO);
        assert!(d.deadline_check_every > 0);
        assert!(d.ann_m >= 2);
        assert!(d.ann_ef_construction >= d.ann_m);
        assert!(d.ann_ef_search >= 1);
        assert!(d.ann_threshold >= 1);
        let r = RouterConfig::default();
        assert!(r.min_shards <= r.num_shards);
        assert!(r.breaker.failure_threshold >= 1);
    }

    #[test]
    fn unset_and_empty_fall_back_to_defaults() {
        let cfg = with_env(&[("SARN_SERVE_MAX_INFLIGHT", "  ")], || {
            ServeConfig::from_env().expect("empty value defaults")
        });
        assert_eq!(cfg, ServeConfig::default());
        let rcfg = with_env(&[], || RouterConfig::from_env().expect("all unset"));
        assert_eq!(rcfg, RouterConfig::default());
    }

    #[test]
    fn valid_overrides_parse() {
        let cfg = with_env(
            &[
                ("SARN_SERVE_MAX_INFLIGHT", "8"),
                ("SARN_SERVE_DEGRADE_INFLIGHT", "0"),
                ("SARN_SERVE_DEADLINE_MS", "0"),
                ("SARN_SERVE_RELOAD_RETRIES", "0"),
                ("SARN_SERVE_RELOAD_BACKOFF_MS", "5"),
                ("SARN_SERVE_CLEN_M", "250.5"),
                ("SARN_SERVE_APPROX_RADIUS", "2"),
                ("SARN_SERVE_MAX_STALENESS_S", "1.5"),
                ("SARN_ANN_THRESHOLD", "512"),
                ("SARN_ANN_M", "8"),
                ("SARN_ANN_EF_CONSTRUCTION", "64"),
                ("SARN_ANN_EF_SEARCH", "48"),
                ("SARN_ANN_SEED", "7"),
            ],
            || ServeConfig::from_env().expect("valid overrides"),
        );
        assert_eq!(cfg.max_inflight, 8);
        assert_eq!(cfg.degrade_inflight, 0, "zero disables degradation");
        assert!(cfg.default_deadline.is_none(), "zero means unbounded");
        assert_eq!(cfg.reload_retries, 0);
        assert_eq!(cfg.reload_backoff, Duration::from_millis(5));
        assert_eq!(cfg.grid_clen_m, 250.5);
        assert_eq!(cfg.approx_radius, 2);
        assert_eq!(cfg.max_staleness, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(cfg.ann_threshold, 512);
        assert_eq!(cfg.ann_m, 8);
        assert_eq!(cfg.ann_ef_construction, 64);
        assert_eq!(cfg.ann_ef_search, 48);
        assert_eq!(cfg.ann_seed, 7);
    }

    /// Every "disabled" spelling of the threshold maps to `usize::MAX`,
    /// case-insensitively.
    #[test]
    fn ann_threshold_disabled_spellings_map_to_max() {
        for spelling in ["inf", "INF", "∞", "off", "Off", "none", "NONE"] {
            let cfg = with_env(&[("SARN_ANN_THRESHOLD", spelling)], || {
                ServeConfig::from_env().expect("disabled spelling")
            });
            assert_eq!(cfg.ann_threshold, usize::MAX, "spelling {spelling:?}");
        }
    }

    /// Every knob, one by one: a malformed value is a typed error that
    /// names the variable (satellite contract — no silent fallback).
    #[test]
    fn each_serve_knob_rejects_malformed_values_by_name() {
        let cases: &[(&'static str, &str)] = &[
            ("SARN_SERVE_MAX_INFLIGHT", "zero"),
            ("SARN_SERVE_MAX_INFLIGHT", "0"),
            ("SARN_SERVE_MAX_INFLIGHT", "-3"),
            ("SARN_SERVE_DEGRADE_INFLIGHT", "many"),
            ("SARN_SERVE_DEGRADE_INFLIGHT", "-1"),
            ("SARN_SERVE_DEADLINE_MS", "fast"),
            ("SARN_SERVE_DEADLINE_MS", "-5"),
            ("SARN_SERVE_RELOAD_RETRIES", "3.5"),
            ("SARN_SERVE_RELOAD_BACKOFF_MS", "0"),
            ("SARN_SERVE_RELOAD_BACKOFF_MS", "soon"),
            ("SARN_SERVE_CLEN_M", "0"),
            ("SARN_SERVE_CLEN_M", "-100"),
            ("SARN_SERVE_CLEN_M", "NaN"),
            ("SARN_SERVE_CLEN_M", "wide"),
            ("SARN_SERVE_APPROX_RADIUS", "0"),
            ("SARN_SERVE_APPROX_RADIUS", "near"),
            ("SARN_SERVE_MAX_STALENESS_S", "-1"),
            ("SARN_SERVE_MAX_STALENESS_S", "inf"),
            ("SARN_SERVE_MAX_STALENESS_S", "fresh"),
            ("SARN_ANN_THRESHOLD", "0"),
            ("SARN_ANN_THRESHOLD", "-1"),
            ("SARN_ANN_THRESHOLD", "never"),
            ("SARN_ANN_M", "1"),
            ("SARN_ANN_M", "sixteen"),
            ("SARN_ANN_EF_CONSTRUCTION", "0"),
            ("SARN_ANN_EF_SEARCH", "0"),
            ("SARN_ANN_EF_SEARCH", "-8"),
            ("SARN_ANN_SEED", "-1"),
            ("SARN_ANN_SEED", "random"),
        ];
        for (var, bad) in cases {
            let err = with_env(&[(var, bad)], || {
                ServeConfig::from_env().expect_err("malformed value must not default")
            });
            assert_eq!(err.var, *var, "wrong variable named for {var}={bad}");
            assert_eq!(err.value, *bad);
            let msg = err.to_string();
            assert!(
                msg.contains(var) && msg.contains(bad),
                "display must name variable and value: {msg}"
            );
        }
    }

    #[test]
    fn each_router_knob_rejects_malformed_values_by_name() {
        let cases: &[(&'static str, &str)] = &[
            ("SARN_SERVE_SHARDS", "0"),
            ("SARN_SERVE_SHARDS", "-2"),
            ("SARN_SERVE_SHARDS", "four"),
            ("SARN_SERVE_MIN_SHARDS", "0"),
            ("SARN_SERVE_BREAKER_THRESHOLD", "0"),
            ("SARN_SERVE_BREAKER_THRESHOLD", "often"),
            ("SARN_SERVE_BREAKER_COOLDOWN_MS", "0"),
            ("SARN_SERVE_BREAKER_COOLDOWN_MS", "-10"),
            ("SARN_SERVE_SHARD_RETRIES", "-1"),
            ("SARN_SERVE_SHARD_BACKOFF_MS", "0"),
            ("SARN_SERVE_ROUTER_MAX_INFLIGHT", "0"),
        ];
        for (var, bad) in cases {
            let err = with_env(&[(var, bad)], || {
                RouterConfig::from_env().expect_err("malformed value must not default")
            });
            assert_eq!(err.var, *var, "wrong variable named for {var}={bad}");
        }
    }

    #[test]
    fn router_overrides_parse() {
        let cfg = with_env(
            &[
                ("SARN_SERVE_SHARDS", "8"),
                ("SARN_SERVE_MIN_SHARDS", "6"),
                ("SARN_SERVE_BREAKER_THRESHOLD", "2"),
                ("SARN_SERVE_BREAKER_COOLDOWN_MS", "50"),
                ("SARN_SERVE_SHARD_RETRIES", "0"),
                ("SARN_SERVE_SHARD_BACKOFF_MS", "1"),
                ("SARN_SERVE_ROUTER_MAX_INFLIGHT", "32"),
            ],
            || RouterConfig::from_env().expect("valid overrides"),
        );
        assert_eq!(cfg.num_shards, 8);
        assert_eq!(cfg.min_shards, 6);
        assert_eq!(cfg.breaker.failure_threshold, 2);
        assert_eq!(cfg.breaker.open_cooldown, Duration::from_millis(50));
        assert_eq!(cfg.shard_retries, 0);
        assert_eq!(cfg.shard_backoff, Duration::from_millis(1));
        assert_eq!(cfg.router_max_inflight, 32);
    }

    #[test]
    fn config_error_converts_into_serve_error() {
        let err = ConfigError {
            var: "SARN_SERVE_MAX_INFLIGHT",
            value: "lots".into(),
            requirement: "must be a positive integer",
        };
        let serve: crate::ServeError = err.clone().into();
        assert!(matches!(serve, crate::ServeError::Config(_)));
        assert!(serve.to_string().contains("SARN_SERVE_MAX_INFLIGHT"));
        assert!(std::error::Error::source(&serve).is_some());
    }
}
