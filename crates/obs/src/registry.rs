//! The process-wide metric registry.
//!
//! Names are interned once: the first `counter("x")` call creates the
//! metric, every later call returns a clone of the same handle. Callers
//! cache the handle in a `static OnceLock` (the [`crate::span!`] and
//! [`crate::counter!`] macros do this for you), so the registry's mutex
//! is touched only during setup — never on the recording hot path.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{latency_boundaries, Counter, Gauge, Histogram};

#[derive(Clone, Debug)]
enum MetricEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricEntry {
    fn kind(&self) -> &'static str {
        match self {
            MetricEntry::Counter(_) => "counter",
            MetricEntry::Gauge(_) => "gauge",
            MetricEntry::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds (the overflow bucket is implicit).
    pub boundaries: Vec<f64>,
    /// Per-bucket counts; one longer than `boundaries` (overflow last).
    pub counts: Vec<u64>,
    /// Sum of recorded values.
    pub sum: f64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile of the recorded values (`None` when
    /// empty) — the shared cumulative-bucket walk of
    /// [`crate::quantile_from_buckets`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::quantile_from_buckets(&self.boundaries, &self.counts, q)
    }
}

/// A point-in-time copy of every registered metric, sorted by name —
/// the input to both exporters and the `metrics` field of the serving
/// health report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram's state.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// State of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// The process-wide registry of named metrics.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, MetricEntry>>,
}

impl Registry {
    fn new() -> Self {
        Self {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::new)
    }

    fn resolve(
        &self,
        name: &str,
        make: impl FnOnce() -> MetricEntry,
        pick: impl FnOnce(&MetricEntry) -> Option<MetricEntry>,
    ) -> MetricEntry {
        let mut map = self
            .metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let entry = map.entry(name.to_string()).or_insert_with(make);
        match pick(entry) {
            Some(handle) => handle,
            // A name registered under two kinds is a programming error
            // that would corrupt the export; fail loudly at setup time
            // (never on the hot path — handles are resolved once).
            None => panic!(
                "metric `{name}` already registered as a {}, requested as a different kind",
                entry.kind()
            ),
        }
    }

    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let entry = self.resolve(
            name,
            || MetricEntry::Counter(Counter::new()),
            |e| match e {
                MetricEntry::Counter(c) => Some(MetricEntry::Counter(c.clone())),
                _ => None,
            },
        );
        match entry {
            MetricEntry::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let entry = self.resolve(
            name,
            || MetricEntry::Gauge(Gauge::new()),
            |e| match e {
                MetricEntry::Gauge(g) => Some(MetricEntry::Gauge(g.clone())),
                _ => None,
            },
        );
        match entry {
            MetricEntry::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// The histogram named `name` with the default log-spaced latency
    /// buckets (see [`latency_boundaries`]), creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, latency_boundaries())
    }

    /// The histogram named `name` with explicit bucket upper bounds
    /// (used on first creation; later calls return the existing
    /// histogram regardless of `boundaries`).
    pub fn histogram_with(&self, name: &str, boundaries: Vec<f64>) -> Histogram {
        let entry = self.resolve(
            name,
            || MetricEntry::Histogram(Histogram::new(boundaries)),
            |e| match e {
                MetricEntry::Histogram(h) => Some(MetricEntry::Histogram(h.clone())),
                _ => None,
            },
        );
        match entry {
            MetricEntry::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Copies every metric's current value. Bucket counts and the
    /// histogram totals are read without a global pause, so a snapshot
    /// taken during concurrent recording can be mid-observation by one
    /// count — each individual value is still coherent.
    pub fn snapshot(&self) -> Snapshot {
        let map = self
            .metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut snap = Snapshot::default();
        for (name, entry) in map.iter() {
            match entry {
                MetricEntry::Counter(c) => snap.counters.push((name.clone(), c.get())),
                MetricEntry::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                MetricEntry::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    boundaries: h.boundaries().to_vec(),
                    counts: h.bucket_counts(),
                    sum: h.sum(),
                    count: h.count(),
                }),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_metric() {
        let _guard = crate::test_flag_lock();
        crate::set_enabled(true);
        let r = Registry::global();
        let a = r.counter("obs_test_interned_total");
        let b = r.counter("obs_test_interned_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 2);
        crate::set_enabled(false);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics_at_setup() {
        let r = Registry::global();
        let _ = r.counter("obs_test_kind_clash");
        let _ = r.gauge("obs_test_kind_clash");
    }

    #[test]
    fn snapshot_sees_registered_metrics() {
        let _guard = crate::test_flag_lock();
        crate::set_enabled(true);
        let r = Registry::global();
        r.counter("obs_test_snap_total").add(7);
        r.gauge("obs_test_snap_gauge").set(2.5);
        r.histogram("obs_test_snap_seconds").observe(0.25);
        let s = r.snapshot();
        assert!(s.counter("obs_test_snap_total").is_some_and(|v| v >= 7));
        assert_eq!(s.gauge("obs_test_snap_gauge"), Some(2.5));
        let h = s.histogram("obs_test_snap_seconds").expect("histogram");
        assert!(h.count >= 1);
        assert_eq!(h.counts.len(), h.boundaries.len() + 1);
        assert!(h.mean() > 0.0);
        crate::set_enabled(false);
    }
}
