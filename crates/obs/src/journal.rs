//! The bounded ring-buffer journal of typed structured events.
//!
//! Every subsystem pushes its landmark moments here — epoch summaries,
//! watchdog violations and rollbacks, checkpoint writes, serve reload
//! outcomes, sheds, bench table rows — and the whole ring drains to
//! JSONL (one event object per line) for machine-readable run artifacts.
//! The ring is bounded: when full, the oldest event is dropped and a
//! drop counter keeps the loss visible.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::enabled;

/// Default ring capacity (see `SARN_OBS_JOURNAL_CAP`).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// One structured telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// One completed (healthy) training epoch.
    EpochSummary {
        /// Epoch index.
        epoch: usize,
        /// Mean batch loss of the epoch.
        loss: f64,
        /// Learning rate the epoch ran at (after schedule and backoff).
        lr: f64,
        /// Global gradient norm of the epoch's last batch.
        grad_norm: f64,
        /// Wall-clock seconds the epoch took.
        seconds: f64,
        /// Negative-queue entries resident after the epoch.
        queue_entries: usize,
        /// Edges removed by the epoch's two-view augmentation.
        edges_removed: usize,
    },
    /// A watchdog probe fired.
    WatchdogViolation {
        /// Epoch of the violation.
        epoch: usize,
        /// Batch within the epoch (`None` for epoch-boundary scans).
        batch: Option<usize>,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The watchdog rolled training back to its anchor.
    WatchdogRecovery {
        /// Epoch training resumed from.
        rolled_back_to_epoch: usize,
        /// Compounded learning-rate scale after this backoff.
        lr_scale: f64,
        /// Recovery ordinal (1 = first rollback).
        retry: usize,
    },
    /// The watchdog exhausted its retry budget and the run gave up.
    WatchdogDivergence {
        /// Recoveries attempted before giving up.
        recoveries: usize,
        /// The final violation.
        detail: String,
    },
    /// A training checkpoint was written.
    CheckpointWrite {
        /// Epoch the checkpoint resumes at.
        epoch: usize,
        /// Serialized size in bytes.
        bytes: usize,
        /// Wall-clock seconds of the (atomic) write.
        seconds: f64,
    },
    /// A training checkpoint was loaded (resume or rollback validation).
    CheckpointLoad {
        /// Epoch the checkpoint resumes at.
        epoch: usize,
        /// Serialized size in bytes.
        bytes: usize,
        /// Wall-clock seconds of the read + validation.
        seconds: f64,
    },
    /// A serve reload succeeded and published a new generation.
    ReloadOk {
        /// The published generation number.
        generation: u64,
        /// Wall-clock seconds including retries.
        seconds: f64,
    },
    /// A serve reload failed after exhausting its retries.
    ReloadFailed {
        /// Attempts made (initial + retries).
        attempts: usize,
        /// The final attempt's error.
        error: String,
    },
    /// A request was shed at the in-flight ceiling.
    Shed {
        /// In-flight count observed at the shed.
        inflight: usize,
    },
    /// One row of a bench table (the machine-readable artifact behind
    /// `table*` / `fig*` binaries).
    BenchRow {
        /// Table title.
        table: String,
        /// `(column, value)` pairs, in column order.
        cells: Vec<(String, String)>,
    },
    /// One pipeline stage attempt finished (success or typed failure).
    PipelineStage {
        /// Edit batch ordinal the pipeline was processing.
        batch: u64,
        /// Stage name (`applying` / `repairing` / `retraining` /
        /// `exporting` / `reloading`).
        stage: String,
        /// Attempt ordinal within the stage (1 = first try).
        attempt: usize,
        /// Whether the attempt succeeded.
        ok: bool,
        /// Wall-clock seconds of the attempt.
        seconds: f64,
        /// The attempt's error, if it failed.
        error: Option<String>,
    },
    /// The serving store crossed its staleness SLO: the live generation's
    /// age exceeded the configured maximum.
    ServeStale {
        /// The stale generation's number.
        generation: u64,
        /// Its age in seconds when the breach was observed.
        age_seconds: f64,
    },
    /// A shard's circuit breaker changed state
    /// (`closed`/`open`/`half-open`).
    BreakerTransition {
        /// Shard the breaker guards.
        shard: usize,
        /// State before the transition.
        from: String,
        /// State after the transition.
        to: String,
        /// Consecutive typed failures observed at the transition.
        consecutive_failures: u32,
    },
    /// A shard entered quarantine: its breaker opened and the router now
    /// routes around it.
    QuarantineEnter {
        /// The quarantined shard.
        shard: usize,
        /// Consecutive typed failures that exhausted the threshold.
        consecutive_failures: u32,
    },
    /// A shard left quarantine: a half-open probe succeeded and the
    /// breaker re-closed.
    QuarantineExit {
        /// The recovered shard.
        shard: usize,
    },
    /// The router answered with partial coverage: some shards were
    /// skipped or failed and the response says so instead of erroring.
    PartialCoverage {
        /// Shards that contributed results.
        answered: usize,
        /// Shards the query consulted.
        total: usize,
    },
    /// A serving generation finished building its ANN index and k-NN
    /// switched from linear scan to the HNSW graph.
    IndexBuilt {
        /// Generation the index serves.
        generation: u64,
        /// Rows indexed.
        rows: u64,
        /// Wall-clock milliseconds of the build.
        build_ms: f64,
    },
    /// An ANN-backed query or index adoption fell back to the exact
    /// scan (index absent, still building, corrupt sidecar, or
    /// deadline expired mid-walk).
    AnnFallback {
        /// Generation serving at the fallback.
        generation: u64,
        /// Why the ANN path was not taken.
        reason: String,
    },
}

impl Event {
    /// The event's `type` tag in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EpochSummary { .. } => "epoch_summary",
            Event::WatchdogViolation { .. } => "watchdog_violation",
            Event::WatchdogRecovery { .. } => "watchdog_recovery",
            Event::WatchdogDivergence { .. } => "watchdog_divergence",
            Event::CheckpointWrite { .. } => "checkpoint_write",
            Event::CheckpointLoad { .. } => "checkpoint_load",
            Event::ReloadOk { .. } => "reload_ok",
            Event::ReloadFailed { .. } => "reload_failed",
            Event::Shed { .. } => "shed",
            Event::BenchRow { .. } => "bench_row",
            Event::PipelineStage { .. } => "pipeline_stage",
            Event::ServeStale { .. } => "serve_stale",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::QuarantineEnter { .. } => "quarantine_enter",
            Event::QuarantineExit { .. } => "quarantine_exit",
            Event::PartialCoverage { .. } => "partial_coverage",
            Event::IndexBuilt { .. } => "index_built",
            Event::AnnFallback { .. } => "ann_fallback",
        }
    }
}

/// An [`Event`] stamped with the wall-clock time it was recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Milliseconds since the Unix epoch at recording time.
    pub t_unix_ms: u64,
    /// The event.
    pub event: Event,
}

impl TimedEvent {
    /// Stamps `event` with the current wall-clock time.
    pub fn now(event: Event) -> Self {
        let t_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self { t_unix_ms, event }
    }

    /// Encodes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonObject::new();
        w.field_u64("t_ms", self.t_unix_ms);
        w.field_str("type", self.event.kind());
        match &self.event {
            Event::EpochSummary {
                epoch,
                loss,
                lr,
                grad_norm,
                seconds,
                queue_entries,
                edges_removed,
            } => {
                w.field_u64("epoch", *epoch as u64);
                w.field_f64("loss", *loss);
                w.field_f64("lr", *lr);
                w.field_f64("grad_norm", *grad_norm);
                w.field_f64("seconds", *seconds);
                w.field_u64("queue_entries", *queue_entries as u64);
                w.field_u64("edges_removed", *edges_removed as u64);
            }
            Event::WatchdogViolation {
                epoch,
                batch,
                detail,
            } => {
                w.field_u64("epoch", *epoch as u64);
                match batch {
                    Some(b) => w.field_u64("batch", *b as u64),
                    None => w.field_null("batch"),
                }
                w.field_str("detail", detail);
            }
            Event::WatchdogRecovery {
                rolled_back_to_epoch,
                lr_scale,
                retry,
            } => {
                w.field_u64("rolled_back_to_epoch", *rolled_back_to_epoch as u64);
                w.field_f64("lr_scale", *lr_scale);
                w.field_u64("retry", *retry as u64);
            }
            Event::WatchdogDivergence { recoveries, detail } => {
                w.field_u64("recoveries", *recoveries as u64);
                w.field_str("detail", detail);
            }
            Event::CheckpointWrite {
                epoch,
                bytes,
                seconds,
            }
            | Event::CheckpointLoad {
                epoch,
                bytes,
                seconds,
            } => {
                w.field_u64("epoch", *epoch as u64);
                w.field_u64("bytes", *bytes as u64);
                w.field_f64("seconds", *seconds);
            }
            Event::ReloadOk {
                generation,
                seconds,
            } => {
                w.field_u64("generation", *generation);
                w.field_f64("seconds", *seconds);
            }
            Event::ReloadFailed { attempts, error } => {
                w.field_u64("attempts", *attempts as u64);
                w.field_str("error", error);
            }
            Event::Shed { inflight } => {
                w.field_u64("inflight", *inflight as u64);
            }
            Event::BenchRow { table, cells } => {
                w.field_str("table", table);
                let mut cells_obj = JsonObject::new();
                for (k, v) in cells {
                    cells_obj.field_str(k, v);
                }
                w.field_raw("cells", &cells_obj.finish());
            }
            Event::PipelineStage {
                batch,
                stage,
                attempt,
                ok,
                seconds,
                error,
            } => {
                w.field_u64("batch", *batch);
                w.field_str("stage", stage);
                w.field_u64("attempt", *attempt as u64);
                w.field_raw("ok", if *ok { "true" } else { "false" });
                w.field_f64("seconds", *seconds);
                match error {
                    Some(e) => w.field_str("error", e),
                    None => w.field_null("error"),
                }
            }
            Event::ServeStale {
                generation,
                age_seconds,
            } => {
                w.field_u64("generation", *generation);
                w.field_f64("age_seconds", *age_seconds);
            }
            Event::BreakerTransition {
                shard,
                from,
                to,
                consecutive_failures,
            } => {
                w.field_u64("shard", *shard as u64);
                w.field_str("from", from);
                w.field_str("to", to);
                w.field_u64("consecutive_failures", *consecutive_failures as u64);
            }
            Event::QuarantineEnter {
                shard,
                consecutive_failures,
            } => {
                w.field_u64("shard", *shard as u64);
                w.field_u64("consecutive_failures", *consecutive_failures as u64);
            }
            Event::QuarantineExit { shard } => {
                w.field_u64("shard", *shard as u64);
            }
            Event::PartialCoverage { answered, total } => {
                w.field_u64("answered", *answered as u64);
                w.field_u64("total", *total as u64);
            }
            Event::IndexBuilt {
                generation,
                rows,
                build_ms,
            } => {
                w.field_u64("generation", *generation);
                w.field_u64("rows", *rows);
                w.field_f64("build_ms", *build_ms);
            }
            Event::AnnFallback { generation, reason } => {
                w.field_u64("generation", *generation);
                w.field_str("reason", reason);
            }
        }
        w.finish()
    }
}

/// Minimal JSON object writer (the workspace is offline; no serde).
pub(crate) struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    pub(crate) fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&json_string(k));
        self.buf.push(':');
    }

    pub(crate) fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(&json_string(v));
    }

    pub(crate) fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    pub(crate) fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&json_f64(v));
    }

    pub(crate) fn field_null(&mut self, k: &str) {
        self.key(k);
        self.buf.push_str("null");
    }

    pub(crate) fn field_raw(&mut self, k: &str, raw: &str) {
        self.key(k);
        self.buf.push_str(raw);
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Encodes `v` as a JSON value (non-finite floats become `null`: JSON
/// has no NaN/Inf literal).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` always includes enough digits to round-trip and always
        // produces a valid JSON number for finite values.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Encodes `s` as a JSON string literal with full escaping.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct JournalCore {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

/// The bounded ring buffer of [`TimedEvent`]s.
pub struct EventJournal {
    inner: Mutex<JournalCore>,
}

impl EventJournal {
    fn new() -> Self {
        Self {
            inner: Mutex::new(JournalCore {
                events: VecDeque::new(),
                capacity: DEFAULT_JOURNAL_CAPACITY,
                dropped: 0,
            }),
        }
    }

    /// The process-wide journal.
    pub fn global() -> &'static EventJournal {
        static JOURNAL: OnceLock<EventJournal> = OnceLock::new();
        JOURNAL.get_or_init(EventJournal::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalCore> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resizes the ring (evicting oldest events if shrinking).
    pub fn set_capacity(&self, capacity: usize) {
        let mut core = self.lock();
        core.capacity = capacity.max(1);
        while core.events.len() > core.capacity {
            core.events.pop_front();
            core.dropped += 1;
        }
    }

    /// Records `event`, stamped now. No-op while telemetry is disabled.
    pub fn record(&self, event: Event) {
        if !enabled() {
            return;
        }
        self.record_forced(event);
    }

    /// Records `event` regardless of the enabled flag (used by the bench
    /// artifact emitter, which must work even in un-instrumented runs).
    pub fn record_forced(&self, event: Event) {
        let timed = TimedEvent::now(event);
        let mut core = self.lock();
        if core.events.len() >= core.capacity {
            core.events.pop_front();
            core.dropped += 1;
        }
        core.events.push_back(timed);
    }

    /// Number of events currently resident.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies the resident events, oldest first (non-draining).
    pub fn snapshot_events(&self) -> Vec<TimedEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Removes and returns the resident events, oldest first.
    pub fn drain(&self) -> Vec<TimedEvent> {
        self.lock().events.drain(..).collect()
    }

    /// Encodes the resident events as JSONL (one object per line,
    /// trailing newline; empty string when no events), non-draining.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot_events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let j = EventJournal::new();
        j.set_capacity(3);
        for i in 0..5 {
            j.record_forced(Event::Shed { inflight: i });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let drained = j.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].event, Event::Shed { inflight: 2 });
        assert!(j.is_empty());
    }

    #[test]
    fn jsonl_encodes_every_event_kind() {
        let j = EventJournal::new();
        let events = [
            Event::EpochSummary {
                epoch: 1,
                loss: 2.5,
                lr: 0.005,
                grad_norm: 1.25,
                seconds: 0.75,
                queue_entries: 100,
                edges_removed: 42,
            },
            Event::WatchdogViolation {
                epoch: 2,
                batch: None,
                detail: "non-finite \"loss\"\nline2".into(),
            },
            Event::WatchdogRecovery {
                rolled_back_to_epoch: 1,
                lr_scale: 0.5,
                retry: 1,
            },
            Event::WatchdogDivergence {
                recoveries: 3,
                detail: "gave up".into(),
            },
            Event::CheckpointWrite {
                epoch: 4,
                bytes: 1024,
                seconds: 0.01,
            },
            Event::CheckpointLoad {
                epoch: 4,
                bytes: 1024,
                seconds: 0.02,
            },
            Event::ReloadOk {
                generation: 7,
                seconds: 0.1,
            },
            Event::ReloadFailed {
                attempts: 4,
                error: "bad magic".into(),
            },
            Event::Shed { inflight: 64 },
            Event::BenchRow {
                table: "Table 4".into(),
                cells: vec![
                    ("Method".into(), "SARN".into()),
                    ("F1".into(), "98.7".into()),
                ],
            },
            Event::PipelineStage {
                batch: 3,
                stage: "retraining".into(),
                attempt: 2,
                ok: false,
                seconds: 0.4,
                error: Some("injected divergence".into()),
            },
            Event::PipelineStage {
                batch: 3,
                stage: "reloading".into(),
                attempt: 1,
                ok: true,
                seconds: 0.05,
                error: None,
            },
            Event::ServeStale {
                generation: 9,
                age_seconds: 12.5,
            },
            Event::BreakerTransition {
                shard: 2,
                from: "closed".into(),
                to: "open".into(),
                consecutive_failures: 3,
            },
            Event::QuarantineEnter {
                shard: 2,
                consecutive_failures: 3,
            },
            Event::QuarantineExit { shard: 2 },
            Event::PartialCoverage {
                answered: 3,
                total: 4,
            },
            Event::IndexBuilt {
                generation: 11,
                rows: 8192,
                build_ms: 73.5,
            },
            Event::AnnFallback {
                generation: 11,
                reason: "index building".into(),
            },
        ];
        for e in events.iter().cloned() {
            j.record_forced(e);
        }
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            crate::export::validate_json(line).expect("event line must be valid JSON");
            assert!(line.contains(&format!("\"type\":\"{}\"", event.kind())));
        }
        // Escaping really happened.
        assert!(jsonl.contains("non-finite \\\"loss\\\"\\nline2"));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
