//! The typed failure taxonomy of the serving path.

use std::fmt;
use std::time::Duration;

use sarn_core::EmbeddingDefect;
use sarn_geo::GridError;
use sarn_tensor::IoError;

/// Everything a serving call can fail with. The read path never panics:
/// each failure mode has a variant a caller (or health endpoint) can
/// route on, mirroring how the training watchdog's `TrainError` taxonomy
/// keeps the write path typed.
#[derive(Debug)]
pub enum ServeError {
    /// No generation has been admitted yet — the store is still loading.
    NotReady,
    /// The queried segment id is outside the served network.
    UnknownSegment {
        /// The requested segment id.
        segment: usize,
        /// Number of segments the store serves.
        num_segments: usize,
    },
    /// Admission was refused because the in-flight ceiling is reached —
    /// the request was shed, not queued.
    Overloaded {
        /// In-flight requests observed at admission.
        inflight: usize,
        /// The configured ceiling.
        max_inflight: usize,
    },
    /// The request ran past its time budget.
    DeadlineExceeded {
        /// Time spent before the expiry was noticed.
        elapsed: Duration,
        /// The budget that was exceeded.
        budget: Duration,
    },
    /// Reading or validating an artifact failed (truncation, garbage,
    /// shape mismatch, injected I/O fault) — the previous generation is
    /// still serving.
    Load(IoError),
    /// An embedding row failed the shared admission screen
    /// ([`sarn_core::embedding_defect`], the same gate the training
    /// watchdog runs on queue entries) — the artifact was rejected whole.
    CorruptRow {
        /// Row (segment id) of the first defective embedding.
        row: usize,
        /// What was wrong with it.
        defect: EmbeddingDefect,
    },
    /// The grid whose cell bands partition a sharded store could not be
    /// built from the network's bounding box and the configured cell
    /// side.
    Grid(GridError),
    /// Too few shards answered a fan-out query: fewer than the router's
    /// configured minimum contributed results, so not even a partial
    /// answer is available. Responses *above* the minimum succeed and
    /// carry the shortfall in their typed `Coverage` report instead.
    PartialCoverage {
        /// Shards that contributed results.
        answered: usize,
        /// Shards the query consulted.
        total: usize,
        /// The configured minimum for an answer.
        min_shards: usize,
    },
    /// The ANN index itself failed (corrupt sidecar bytes, I/O) — the
    /// exact scan is still available; callers that see this chose the
    /// ANN-only path explicitly.
    Index(sarn_ann::AnnError),
    /// An ANN-only call found no ready index: it is absent, still
    /// building, or the generation fell back to exact scan.
    IndexUnavailable {
        /// The index lifecycle state that blocked the call.
        state: crate::IndexState,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NotReady => write!(f, "no embedding generation admitted yet"),
            ServeError::UnknownSegment {
                segment,
                num_segments,
            } => write!(
                f,
                "segment {segment} outside the served network of {num_segments} segments"
            ),
            ServeError::Overloaded {
                inflight,
                max_inflight,
            } => write!(
                f,
                "shed: {inflight} requests in flight at the {max_inflight}-request ceiling"
            ),
            ServeError::DeadlineExceeded { elapsed, budget } => write!(
                f,
                "deadline exceeded: {:.1}ms elapsed of a {:.1}ms budget",
                elapsed.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            ServeError::Load(e) => write!(f, "artifact load failed: {e}"),
            ServeError::CorruptRow { row, defect } => {
                write!(f, "embedding row {row} rejected: {defect}")
            }
            ServeError::Grid(e) => write!(f, "serving grid rejected: {e}"),
            ServeError::PartialCoverage {
                answered,
                total,
                min_shards,
            } => write!(
                f,
                "partial coverage: only {answered} of {total} shards answered \
                 (minimum {min_shards})"
            ),
            ServeError::Index(e) => write!(f, "ann index failed: {e}"),
            ServeError::IndexUnavailable { state } => {
                write!(f, "ann index unavailable (state {state:?})")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Load(e) => Some(e),
            ServeError::Grid(e) => Some(e),
            ServeError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoError> for ServeError {
    fn from(e: IoError) -> Self {
        ServeError::Load(e)
    }
}

impl From<GridError> for ServeError {
    fn from(e: GridError) -> Self {
        ServeError::Grid(e)
    }
}

impl From<sarn_ann::AnnError> for ServeError {
    fn from(e: sarn_ann::AnnError) -> Self {
        ServeError::Index(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_site() {
        let msg = ServeError::UnknownSegment {
            segment: 99,
            num_segments: 10,
        }
        .to_string();
        assert!(msg.contains("99") && msg.contains("10"), "{msg}");

        let msg = ServeError::Overloaded {
            inflight: 64,
            max_inflight: 64,
        }
        .to_string();
        assert!(msg.contains("shed") && msg.contains("64"), "{msg}");

        let msg = ServeError::CorruptRow {
            row: 7,
            defect: EmbeddingDefect::NonFinite {
                component: 3,
                value: f32::NAN,
            },
        }
        .to_string();
        assert!(
            msg.contains("row 7") && msg.contains("component 3"),
            "{msg}"
        );
    }

    #[test]
    fn io_and_grid_errors_convert_with_source_chains() {
        let e: ServeError = IoError::BadMagic { expected: "SRT1" }.into();
        assert!(matches!(e, ServeError::Load(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: ServeError = GridError::BadCellSide(-1.0).into();
        assert!(matches!(e, ServeError::Grid(_)));
        assert!(e.to_string().contains("-1"), "{e}");
    }
}
