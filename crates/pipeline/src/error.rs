//! The pipeline's error taxonomy and injectable faults.

use std::io;

use sarn_core::watchdog::TrainError;
use sarn_serve::ServeError;

use crate::cursor::CursorError;
use crate::edit::EditError;

/// Anything the online pipeline can fail with, per stage. Every variant
/// is typed — the pipeline never panics on bad input, bad disk bytes, or
/// injected faults.
#[derive(Debug)]
pub enum PipelineError {
    /// An edit batch failed to decode, validate, or apply.
    Edit(EditError),
    /// The stage cursor failed to load or persist.
    Cursor(CursorError),
    /// Retraining failed in a way neither retry nor the last-known-good
    /// fallback could absorb.
    Train(TrainError),
    /// The serve store rejected an admission or exhausted reload retries.
    Serve(ServeError),
    /// An exported artifact failed its read-back validation (torn write,
    /// shape mismatch, non-finite values).
    Artifact(sarn_tensor::IoError),
    /// Filesystem plumbing (state dir, tmp rename) failed.
    Io {
        /// What was being done.
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A [`PipelineFault`] detonated a simulated process crash.
    InjectedCrash {
        /// Stage the crash was injected into.
        stage: &'static str,
    },
    /// On resume, replaying the durable edit log diverged from the cursor
    /// (e.g. a batch that previously applied no longer validates).
    ReplayMismatch(String),
    /// Retraining needed the last-known-good fallback but none exists yet
    /// (no healthy retrain has completed and no compatible checkpoint is
    /// on disk).
    NoFallback {
        /// The retrain failure that triggered the fallback attempt.
        cause: String,
    },
    /// The checkpoint directory was probed for a warm-start source and
    /// the probe itself failed unrecoverably.
    Checkpoint(sarn_core::CheckpointError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Edit(e) => write!(f, "edit batch rejected: {e}"),
            PipelineError::Cursor(e) => write!(f, "stage cursor: {e}"),
            PipelineError::Train(e) => write!(f, "retrain failed: {e}"),
            PipelineError::Serve(e) => write!(f, "serve: {e}"),
            PipelineError::Artifact(e) => write!(f, "artifact validation: {e}"),
            PipelineError::Io { context, source } => write!(f, "{context}: {source}"),
            PipelineError::InjectedCrash { stage } => {
                write!(f, "injected crash in stage {stage}")
            }
            PipelineError::ReplayMismatch(why) => {
                write!(f, "edit-log replay diverged from cursor: {why}")
            }
            PipelineError::NoFallback { cause } => write!(
                f,
                "retrain failed ({cause}) and no last-known-good embeddings exist"
            ),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint probe: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<EditError> for PipelineError {
    fn from(e: EditError) -> Self {
        PipelineError::Edit(e)
    }
}

impl From<CursorError> for PipelineError {
    fn from(e: CursorError) -> Self {
        PipelineError::Cursor(e)
    }
}

impl From<TrainError> for PipelineError {
    fn from(e: TrainError) -> Self {
        PipelineError::Train(e)
    }
}

impl From<ServeError> for PipelineError {
    fn from(e: ServeError) -> Self {
        PipelineError::Serve(e)
    }
}

impl From<sarn_tensor::IoError> for PipelineError {
    fn from(e: sarn_tensor::IoError) -> Self {
        PipelineError::Artifact(e)
    }
}

impl From<sarn_core::CheckpointError> for PipelineError {
    fn from(e: sarn_core::CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Which stage a [`PipelineFault`] sabotages, and how. One fault fires on
/// the **first attempt** of its stage for its batch, then the stage's
/// bounded retry (or the fallback path) must absorb it — the `FaultSpec`
/// discipline of the training watchdog, extended to the whole loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineFaultKind {
    /// Flip one byte of the batch's wire bytes before decoding (the
    /// pristine bytes are used on retry, as a re-read from a durable log
    /// would).
    CorruptEditRecord,
    /// Simulated process death at the start of the repair stage, before
    /// any state is mutated.
    MidRepairCrash,
    /// Retraining detonates a sticky NaN-gradient fault with a tiny
    /// recovery budget, forcing [`TrainError::Diverged`] and exercising
    /// the last-known-good fallback.
    DivergingRetrain,
    /// The artifact's temp file is truncated after writing, so the
    /// read-back validation must catch the tear before the rename.
    TornExport,
    /// The serve store gets a transient injected load fault that its own
    /// bounded reload retries must outlast.
    ReloadIoFault,
}

/// One scheduled sabotage: `kind` fires while the pipeline processes
/// `batch` (1-based batch ordinal; `0` targets the bootstrap
/// train/export/reload pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineFault {
    /// 1-based ordinal of the target batch (0 = bootstrap).
    pub batch: u64,
    /// What to sabotage.
    pub kind: PipelineFaultKind,
}
