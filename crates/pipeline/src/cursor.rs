//! The crash-resumable stage cursor.
//!
//! One tiny CRC-framed file (`pipeline.cursor`, magic `SARNCRSR`)
//! records how far the pipeline has durably progressed: how many batches
//! completed end-to-end, which stage the in-flight batch last finished,
//! and the last generation the serve store admitted. It is rewritten with
//! [`sarn_durable::atomic_write`] (DESIGN.md §8, "Durable writes") after
//! **every** stage transition, so a killed pipeline resumes exactly where
//! durable state allows:
//!
//! - completed batches are replayed deterministically (apply + repair
//!   only — their retrain artifacts are already on disk);
//! - an in-flight batch that reached [`Stage::Exported`] skips retraining
//!   and reloads its already-exported artifact;
//! - an in-flight batch that died earlier is redone from the start —
//!   nothing it did was durable, so nothing is double-applied.

use std::fs;
use std::io;
use std::path::Path;

use sarn_durable::crc32;

const MAGIC: &[u8; 8] = b"SARNCRSR";
const FORMAT_VERSION: u32 = 1;
/// magic + version + completed + stage + generation + crc.
const FILE_LEN: usize = 8 + 4 + 4 + 1 + 8 + 4;

/// How far the in-flight batch got (only stages with durable side effects
/// matter for resume; `Retrained` is recorded for telemetry but resumes
/// like `Repaired` because a trained model in memory dies with the
/// process).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Batch decoded + validated + applied to the in-memory network.
    Applied = 1,
    /// Incremental `A^t`/`A^s` repair verified.
    Repaired = 2,
    /// Warm-start retrain produced embeddings (in memory only).
    Retrained = 3,
    /// Embeddings atomically exported to `gen-<g>.emb` — durable.
    Exported = 4,
}

impl Stage {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Stage::Applied),
            2 => Some(Stage::Repaired),
            3 => Some(Stage::Retrained),
            4 => Some(Stage::Exported),
            _ => None,
        }
    }

    /// Stable lowercase label for journal events.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Applied => "applying",
            Stage::Repaired => "repairing",
            Stage::Retrained => "retraining",
            Stage::Exported => "exporting",
        }
    }
}

/// Why a cursor failed to load.
#[derive(Debug)]
pub enum CursorError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a cursor file.
    BadMagic,
    /// File shorter than the fixed frame.
    Truncated,
    /// Unknown format version.
    UnsupportedVersion(u32),
    /// File longer than the fixed frame, CRC mismatch, or an invalid
    /// stage byte.
    Corrupt(String),
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::Io(e) => write!(f, "cursor i/o: {e}"),
            CursorError::BadMagic => write!(f, "not a pipeline cursor (bad magic)"),
            CursorError::Truncated => write!(f, "cursor file truncated"),
            CursorError::UnsupportedVersion(v) => {
                write!(f, "unsupported cursor version {v}")
            }
            CursorError::Corrupt(why) => write!(f, "cursor corrupt: {why}"),
        }
    }
}

impl std::error::Error for CursorError {}

impl From<io::Error> for CursorError {
    fn from(e: io::Error) -> Self {
        CursorError::Io(e)
    }
}

/// Durable pipeline progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cursor {
    /// Batches fully processed (applied, retrained, exported, reloaded).
    pub completed: u32,
    /// Last durably *recorded* stage of batch `completed`, `None` when no
    /// batch is in flight.
    pub inflight: Option<Stage>,
    /// Last generation admitted by the serve store (0 = none yet).
    pub generation: u64,
}

impl Cursor {
    /// Serializes to the fixed-size frame.
    fn encode(&self) -> [u8; FILE_LEN] {
        let mut out = [0u8; FILE_LEN];
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.completed.to_le_bytes());
        out[16] = self.inflight.map_or(0, |s| s as u8);
        out[17..25].copy_from_slice(&self.generation.to_le_bytes());
        let crc = crc32(&out[8..25]);
        out[25..29].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Persists the cursor with [`sarn_durable::atomic_write`]. A crash at
    /// any point leaves either the old cursor or the new one — never a
    /// torn frame (and a torn tmp is caught by the CRC anyway).
    pub fn save(&self, path: &Path) -> Result<(), CursorError> {
        Ok(sarn_durable::atomic_write(path, &self.encode())?)
    }

    /// Loads and verifies a cursor file.
    pub fn load(path: &Path) -> Result<Self, CursorError> {
        let bytes = fs::read(path)?;
        if bytes.len() < 8 {
            return Err(CursorError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(CursorError::BadMagic);
        }
        if bytes.len() < FILE_LEN {
            return Err(CursorError::Truncated);
        }
        if bytes.len() > FILE_LEN {
            return Err(CursorError::Corrupt(format!(
                "file is {} bytes, the frame is {FILE_LEN}",
                bytes.len()
            )));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(CursorError::UnsupportedVersion(version));
        }
        let stored = u32::from_le_bytes(bytes[25..29].try_into().expect("4-byte slice"));
        let computed = crc32(&bytes[8..25]);
        if stored != computed {
            return Err(CursorError::Corrupt(format!(
                "checksum mismatch (computed {computed:#010x}, stored {stored:#010x})"
            )));
        }
        let completed = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
        let inflight = match bytes[16] {
            0 => None,
            b => Some(
                Stage::from_u8(b)
                    .ok_or_else(|| CursorError::Corrupt(format!("invalid stage byte {b}")))?,
            ),
        };
        let generation = u64::from_le_bytes(bytes[17..25].try_into().expect("8-byte slice"));
        Ok(Self {
            completed,
            inflight,
            generation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sarn_durable::TempDir;

    #[test]
    fn round_trips_every_stage() {
        let dir = TempDir::new("cursor-roundtrip").expect("temp dir");
        let path = dir.path().join("pipeline.cursor");
        let mut files = Vec::new();
        for inflight in [
            None,
            Some(Stage::Applied),
            Some(Stage::Repaired),
            Some(Stage::Retrained),
            Some(Stage::Exported),
        ] {
            let c = Cursor {
                completed: 7,
                inflight,
                generation: 42,
            };
            c.save(&path).expect("save");
            assert_eq!(Cursor::load(&path).expect("load"), c);
            files.extend(fs::read(&path).expect("read"));
        }
        // Byte pin of the frame: length and CRC-32 of the five files.
        assert_eq!((files.len(), crc32(&files)), (145, 0x732E_882B));
    }

    #[test]
    fn damage_is_typed() {
        let dir = TempDir::new("cursor-damage").expect("temp dir");
        let path = dir.path().join("pipeline.cursor");
        let c = Cursor {
            completed: 3,
            inflight: Some(Stage::Exported),
            generation: 9,
        };
        c.save(&path).expect("save");
        let clean = fs::read(&path).expect("read");

        fs::write(&path, b"garbage, at full frame length").expect("write");
        assert!(matches!(Cursor::load(&path), Err(CursorError::BadMagic)));

        fs::write(&path, &clean[..10]).expect("write");
        assert!(matches!(Cursor::load(&path), Err(CursorError::Truncated)));

        // One byte too many is damage, not a truncation, and says so.
        fs::write(&path, [&clean[..], &[0]].concat()).expect("write");
        assert!(matches!(Cursor::load(&path),
            Err(CursorError::Corrupt(why)) if why == "file is 30 bytes, the frame is 29"));

        let mut flipped = clean.clone();
        flipped[13] ^= 0xFF;
        fs::write(&path, &flipped).expect("write");
        assert!(matches!(Cursor::load(&path), Err(CursorError::Corrupt(_))));

        assert!(matches!(
            Cursor::load(&path.with_extension("missing")),
            Err(CursorError::Io(_))
        ));
    }
}
