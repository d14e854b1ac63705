//! # sarn-obs
//!
//! Std-only telemetry for the SARN workspace: the observability
//! substrate behind training, the watchdog, checkpoints, and serving
//! (DESIGN.md §11).
//!
//! - **Metrics.** A process-wide [`Registry`] interning lock-free
//!   [`Counter`]s and [`Gauge`]s (one `AtomicU64` each) and
//!   fixed-boundary [`Histogram`]s (log-spaced latency buckets, atomic
//!   bucket counts, sum + count for means). Handles are resolved once at
//!   construction — hot-path recording is a relaxed flag load plus
//!   relaxed atomic ops, no locks.
//! - **Spans.** RAII [`Span`] timers ([`span!`]) feeding histograms,
//!   cheap enough for per-batch use.
//! - **Events.** A bounded ring-buffer [`EventJournal`] of typed
//!   structured [`Event`]s (epoch summaries, watchdog rollbacks,
//!   checkpoint writes, reload outcomes, sheds, bench rows),
//!   drainable to JSONL.
//! - **Exporters.** Prometheus text exposition and a JSON snapshot,
//!   written with `sarn_durable::atomic_write` (never a torn file), on
//!   demand or every N epochs via `SarnConfig::obs` / the `SARN_OBS_*`
//!   knobs ([`ObsConfig`]).
//!
//! ## The overhead contract
//!
//! Telemetry is **off by default**. Disabled, every recording call is a
//! single relaxed flag load and an early return, and a [`Span`] takes no
//! timestamp. Enabled, recording only ever *reads* training state —
//! never the RNG, never a parameter — so training output is bitwise
//! identical with telemetry on or off (pinned by the `obs_equivalence`
//! sys test, in the tradition of `parallel_equivalence`), and the
//! measured per-epoch overhead stays under 2% (EXPERIMENTS.md).
//!
//! Enabling is sticky per process (see [`ObsConfig::apply`]).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

mod config;
pub mod export;
mod journal;
mod metrics;
mod proc;
mod quantile;
mod registry;
mod span;

pub use config::ObsConfig;
pub use export::{
    export_all, json_text, parse_prometheus, prometheus_text, validate_json, PromSample,
    EVENTS_FILE, JSON_FILE, PROMETHEUS_FILE,
};
pub use journal::{Event, EventJournal, TimedEvent, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{latency_boundaries, magnitude_boundaries, Counter, Gauge, Histogram};
pub use proc::peak_rss_bytes;
pub use quantile::{bucket_index, quantile_from_buckets};
pub use registry::{HistogramSnapshot, Registry, Snapshot};
pub use span::Span;

/// The process-wide recording switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is enabled (a relaxed load — this is the whole
/// cost of a disabled recording call).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Prefer
/// [`ObsConfig::apply`] (sticky enable) in library flows; this direct
/// switch exists for tests and tools that own the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records `event` into the global journal (no-op while disabled).
pub fn record(event: Event) {
    EventJournal::global().record(event);
}

/// Convenience: the global registry's counter `name`. Each call locks
/// the registry and allocates the name; recording sites use
/// [`counter!`] instead, which resolves the handle once per call site.
pub fn counter(name: &str) -> Counter {
    Registry::global().counter(name)
}

/// The global registry's counter `name`, interned once per call site
/// (like [`span!`]): the first call resolves the handle, every later one
/// is a `OnceLock` load.
///
/// ```
/// sarn_obs::counter!("demo_requests_total").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SARN_OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        __SARN_OBS_COUNTER.get_or_init(|| $crate::Registry::global().counter($name))
    }};
}

/// Convenience: the global registry's gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    Registry::global().gauge(name)
}

/// Convenience: the global registry's histogram `name` (default
/// latency buckets).
pub fn histogram(name: &str) -> Histogram {
    Registry::global().histogram(name)
}

/// Serializes unit tests that depend on the process-wide flag (tests
/// run concurrently within one process; an unguarded `set_enabled`
/// would yank recording out from under a sibling test).
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_is_the_default_and_toggles() {
        let _guard = super::test_flag_lock();
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
    }

    #[test]
    fn counter_macro_shares_the_registry_handle() {
        let _guard = super::test_flag_lock();
        super::set_enabled(true);
        let bump = || crate::counter!("obs_test_macro_counter_total").inc();
        let resolved = super::Registry::global().counter("obs_test_macro_counter_total");
        let before = resolved.get();
        bump();
        bump();
        resolved.inc();
        assert_eq!(resolved.get(), before + 3);
        assert_eq!(
            crate::counter!("obs_test_macro_counter_total").get(),
            before + 3
        );
        super::set_enabled(false);
    }
}
