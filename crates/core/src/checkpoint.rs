//! Crash-safe training checkpoints.
//!
//! A checkpoint captures the **complete** state of a [`crate::train`] run at
//! an epoch boundary — query and momentum parameter branches, Adam moments
//! and step count, every grid cell's negative-sample queue (contents and
//! eviction cursor), the main RNG stream that seeds the per-epoch two-view
//! augmentation and batch shuffling, the current shuffle order, and the loss
//! history — so a killed process resumes **bitwise identically**: a run
//! interrupted at any epoch and resumed produces the same loss history and
//! final embeddings as one that never stopped, at every thread count.
//!
//! ## File format (version 1)
//!
//! Little-endian throughout. One self-describing artifact:
//!
//! ```text
//! magic   8 B   b"SARNCKPT"
//! version 4 B   u32 (currently 1)
//! then 5 framed sections, in order META, QRYS, MOMS, OPTM, QUEU:
//!   tag   4 B   section tag
//!   len   8 B   u64 payload length
//!   crc   4 B   CRC-32 (IEEE) of the payload
//!   payload
//! ```
//!
//! Section payloads:
//!
//! - **META** — config fingerprint (`u64`), next epoch (`u32`), accumulated
//!   wall-clock seconds (`f64`), RNG state (4 × `u64`), loss history
//!   (`u32` count + `f32`s), shuffle order (`u32` count + `u32`s);
//! - **QRYS** / **MOMS** — query / momentum [`ParamStore`] values in the
//!   `sarn_tensor::io` stream layout (names + shapes + data);
//! - **OPTM** — Adam step count (`u64`) and first/second moment tensors;
//! - **QUEU** — presence flag, then dim/capacity/cell count and every cell's
//!   FIFO entries front-first (`u32` segment id + `f32` embedding).
//!
//! Each section is a [`sarn_durable`] frame behind its tag, and saves go
//! through [`sarn_durable::atomic_write`] (DESIGN.md §8, "Durable
//! writes"), so a crash mid-save never clobbers the previous checkpoint.
//! Loads verify magic, version, section framing, and per-section
//! checksums, returning a typed [`CheckpointError`] naming the corrupt
//! section — never panicking and never silently accepting damaged state.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use sarn_durable::{atomic_write, decode_frame, encode_frame, FrameError, FRAME_HEADER_LEN};

use sarn_tensor::io::{
    read_str_from, read_tensor_from, read_u32_from, read_u64_from, write_str_to, write_tensor_to,
    write_u32_to, write_u64_to,
};
use sarn_tensor::{ParamStore, Tensor};

/// File magic of every checkpoint artifact.
pub const MAGIC: &[u8; 8] = b"SARNCKPT";

/// Current format version. Any change to the layout below must bump this —
/// the committed golden-file test fails otherwise.
pub const FORMAT_VERSION: u32 = 1;

/// Section names in file order, as reported by [`CheckpointError`].
pub const SECTION_NAMES: [&str; 5] = ["META", "QRYS", "MOMS", "OPTM", "QUEU"];

const SECTION_TAGS: [&[u8; 4]; 5] = [b"META", b"QRYS", b"MOMS", b"OPTM", b"QUEU"];

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the named section is complete.
    Truncated {
        /// Section that was being read when the data ran out.
        section: &'static str,
    },
    /// The named section is present but damaged (bad tag, checksum
    /// mismatch, or inconsistent internal structure).
    Corrupt {
        /// Damaged section.
        section: &'static str,
        /// What exactly failed.
        detail: String,
    },
    /// The checkpoint was produced under different hyper-parameters than
    /// the resuming configuration.
    ConfigMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the resuming configuration.
        found: u64,
    },
    /// The checkpoint is internally valid but does not fit the model /
    /// optimizer / queue geometry it is being restored into.
    StateMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a SARN checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            CheckpointError::Truncated { section } => {
                write!(f, "checkpoint truncated in section {section}")
            }
            CheckpointError::Corrupt { section, detail } => {
                write!(f, "checkpoint section {section} corrupt: {detail}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (fingerprint {expected:016x}, resuming config is {found:016x})"
            ),
            CheckpointError::StateMismatch(d) => {
                write!(f, "checkpoint does not fit the training state: {d}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl CheckpointError {
    /// The section a [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`]
    /// error points at, if any.
    pub fn section(&self) -> Option<&'static str> {
        match self {
            CheckpointError::Truncated { section } | CheckpointError::Corrupt { section, .. } => {
                Some(section)
            }
            _ => None,
        }
    }
}

/// Scalar training-loop state (everything outside the tensors and queues).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointMeta {
    /// [`crate::SarnConfig::fingerprint`] of the producing run.
    pub fingerprint: u64,
    /// First epoch the resumed run will execute.
    pub next_epoch: u32,
    /// Wall-clock seconds accumulated before the snapshot (resumes add to
    /// it; not part of the bitwise-equivalence guarantee).
    pub train_seconds: f64,
    /// Main RNG stream (xoshiro256++ state) that seeds per-epoch
    /// augmentation views and shuffles the batch order.
    pub rng_state: [u64; 4],
    /// Mean loss per completed epoch.
    pub loss_history: Vec<f32>,
    /// Segment visit order as shuffled by the last completed epoch.
    pub order: Vec<u32>,
}

/// Adam optimizer state.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimState {
    /// Update steps taken (drives bias correction).
    pub step: u64,
    /// First-moment tensors, one per parameter (empty before step 1).
    pub m: Vec<Tensor>,
    /// Second-moment tensors, one per parameter (empty before step 1).
    pub v: Vec<Tensor>,
}

/// Per-cell negative-sample queue contents.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueState {
    /// Embedding dimensionality of the entries.
    pub dim: u32,
    /// Per-cell capacity `φ`.
    pub capacity: u32,
    /// FIFO entries per cell, front (next to evict) first.
    pub cells: Vec<Vec<(u32, Vec<f32>)>>,
}

/// A complete training snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Scalar loop state.
    pub meta: CheckpointMeta,
    /// Query-branch parameter values.
    pub query: ParamStoreSnapshot,
    /// Momentum-branch parameter values.
    pub momentum: ParamStoreSnapshot,
    /// Optimizer state.
    pub optim: OptimState,
    /// Negative-sample queues (`None` for variants without grid negatives).
    pub queues: Option<QueueState>,
}

/// Named parameter values of one branch, in registration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamStoreSnapshot {
    /// `(name, value)` pairs.
    pub params: Vec<(String, Tensor)>,
}

impl ParamStoreSnapshot {
    /// Snapshots a store's values.
    pub fn of(store: &ParamStore) -> Self {
        Self {
            params: store
                .ids()
                .map(|id| (store.name(id).to_string(), store.value(id).clone()))
                .collect(),
        }
    }

    /// Copies the snapshot into a live store after validating that names
    /// and shapes match exactly; a mismatch leaves the store untouched.
    pub fn apply_to(&self, store: &mut ParamStore) -> Result<(), CheckpointError> {
        let mut as_store = ParamStore::new();
        for (name, value) in &self.params {
            as_store.add(name.clone(), value.clone());
        }
        store
            .copy_values_validated(&as_store)
            .map_err(|e| CheckpointError::StateMismatch(e.to_string()))
    }
}

impl Checkpoint {
    /// Serializes to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame(&mut out, SECTION_TAGS[0], &encode_meta(&self.meta));
        frame(&mut out, SECTION_TAGS[1], &encode_store(&self.query));
        frame(&mut out, SECTION_TAGS[2], &encode_store(&self.momentum));
        frame(&mut out, SECTION_TAGS[3], &encode_optim(&self.optim));
        frame(
            &mut out,
            SECTION_TAGS[4],
            &encode_queues(self.queues.as_ref()),
        );
        out
    }

    /// Parses the on-disk format, verifying magic, version, framing, and
    /// per-section checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() {
            return Err(CheckpointError::Truncated { section: "header" });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 4 {
            return Err(CheckpointError::Truncated { section: "header" });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut frames = Frames {
            buf: bytes,
            pos: 12,
        };
        let meta = decode_meta(frames.section(0)?)?;
        let query = decode_store(frames.section(1)?, SECTION_NAMES[1])?;
        let momentum = decode_store(frames.section(2)?, SECTION_NAMES[2])?;
        let optim = decode_optim(frames.section(3)?)?;
        let queues = decode_queues(frames.section(4)?)?;
        Ok(Checkpoint {
            meta,
            query,
            momentum,
            optim,
            queues,
        })
    }

    /// Writes the checkpoint with [`sarn_durable::atomic_write`]: a crash
    /// at any point leaves either the previous file or the new one — never
    /// a torn mix.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let t0 = sarn_obs::enabled().then(std::time::Instant::now);
        let bytes = self.to_bytes();
        atomic_write(path.as_ref(), &bytes)?;
        if let Some(t0) = t0 {
            record_io(
                t0,
                bytes.len(),
                self.meta.next_epoch as usize,
                "sarn_checkpoint_write",
                false,
            );
        }
        Ok(())
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let t0 = sarn_obs::enabled().then(std::time::Instant::now);
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;
        let ckpt = Checkpoint::from_bytes(&bytes)?;
        if let Some(t0) = t0 {
            record_io(
                t0,
                bytes.len(),
                ckpt.meta.next_epoch as usize,
                "sarn_checkpoint_load",
                true,
            );
        }
        Ok(ckpt)
    }

    /// Reads only the header and META section of a checkpoint file —
    /// magic, version, and the scalar [`CheckpointMeta`] — without
    /// touching the (much larger) tensor sections. Warm-start uses this
    /// compatibility probe to reject an incompatible candidate (foreign
    /// file, newer format, different config fingerprint, damaged META)
    /// with a typed error *before* committing to a full load, so a bad
    /// checkpoint can never fail a retrain mid-restore.
    pub fn probe_header(path: impl AsRef<Path>) -> Result<CheckpointMeta, CheckpointError> {
        let mut f = File::open(path.as_ref())?;
        let mut head = [0u8; 12];
        read_exact_or(&mut f, &mut head, "header")?;
        if &head[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // META's tag and frame header, then its payload, read as `Frames`
        // reads it from a whole file.
        let name = SECTION_NAMES[0];
        let mut meta = vec![0u8; 4 + FRAME_HEADER_LEN];
        read_exact_or(&mut f, &mut meta, name)?;
        check_tag(0, &meta[..4])?;
        let len = u64::from_le_bytes(meta[4..12].try_into().expect("8-byte slice"));
        // META holds scalars plus the loss history and shuffle order — a
        // length beyond this bound cannot be a sane section and must not
        // drive a giant allocation.
        if len > (1 << 28) {
            return Err(corrupt(name, format!("implausible META length {len}")));
        }
        meta.resize(meta.len() + len as usize, 0);
        read_exact_or(&mut f, &mut meta[4 + FRAME_HEADER_LEN..], name)?;
        decode_meta(Frames { buf: &meta, pos: 0 }.section(0)?)
    }
}

/// `read_exact` with `UnexpectedEof` mapped to the typed truncation error
/// (any other I/O failure stays an I/O error).
fn read_exact_or(
    f: &mut File,
    buf: &mut [u8],
    section: &'static str,
) -> Result<(), CheckpointError> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { section }
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// Telemetry for one checkpoint write/load: duration and size histograms
/// plus a journal event. Only called with telemetry enabled.
fn record_io(t0: std::time::Instant, bytes: usize, epoch: usize, stem: &str, is_load: bool) {
    let seconds = t0.elapsed().as_secs_f64();
    let r = sarn_obs::Registry::global();
    r.histogram(&format!("{stem}_seconds")).observe(seconds);
    r.histogram_with(&format!("{stem}_bytes"), sarn_obs::magnitude_boundaries())
        .observe(bytes as f64);
    r.counter(&format!("{stem}s_total")).inc();
    sarn_obs::record(if is_load {
        sarn_obs::Event::CheckpointLoad {
            epoch,
            bytes,
            seconds,
        }
    } else {
        sarn_obs::Event::CheckpointWrite {
            epoch,
            bytes,
            seconds,
        }
    });
}

/// The `.tmp` sibling a [`Checkpoint::save`] stages its bytes in.
pub use sarn_durable::tmp_sibling;

/// Canonical file name of the checkpoint for `fingerprint` at `epoch`.
pub fn checkpoint_file_name(fingerprint: u64, epoch: usize) -> String {
    format!("ckpt-{fingerprint:016x}-ep{epoch:06}.sarnckpt")
}

fn parse_file_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".sarnckpt")?;
    let (fp, ep) = rest.split_once("-ep")?;
    Some((u64::from_str_radix(fp, 16).ok()?, ep.parse().ok()?))
}

/// Checkpoints in `dir` (optionally restricted to one config fingerprint),
/// sorted by epoch ascending. Staged `.tmp` files and foreign files are
/// ignored. A missing directory yields an empty list.
pub fn list_checkpoints(dir: &Path, fingerprint: Option<u64>) -> Vec<(usize, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(usize, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let (fp, epoch) = parse_file_name(path.file_name()?.to_str()?)?;
            if fingerprint.is_some_and(|want| want != fp) {
                return None;
            }
            Some((epoch, path))
        })
        .collect();
    found.sort();
    found
}

/// Newest checkpoint in `dir` for the given fingerprint (or any, if `None`).
pub fn latest_checkpoint(dir: &Path, fingerprint: Option<u64>) -> Option<PathBuf> {
    list_checkpoints(dir, fingerprint).pop().map(|(_, p)| p)
}

/// Rolling retention: deletes all but the newest `keep` checkpoints of this
/// fingerprint (`keep == 0` keeps everything). Other configurations'
/// checkpoints in the same directory are untouched.
pub fn prune_checkpoints(dir: &Path, fingerprint: u64, keep: usize) -> io::Result<()> {
    if keep == 0 {
        return Ok(());
    }
    let found = list_checkpoints(dir, Some(fingerprint));
    for (_, path) in found.iter().take(found.len().saturating_sub(keep)) {
        fs::remove_file(path)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Section framing
// ---------------------------------------------------------------------------

fn frame(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    encode_frame(out, payload);
}

struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    fn section(&mut self, idx: usize) -> Result<&'a [u8], CheckpointError> {
        let name = SECTION_NAMES[idx];
        let body = self.pos + 4;
        if body + FRAME_HEADER_LEN > self.buf.len() {
            return Err(CheckpointError::Truncated { section: name });
        }
        check_tag(idx, &self.buf[self.pos..body])?;
        let (payload, end) = decode_frame(self.buf, body).map_err(|e| match e {
            FrameError::Truncated { .. } => CheckpointError::Truncated { section: name },
            FrameError::CrcMismatch { .. } => corrupt(name, "checksum mismatch"),
        })?;
        self.pos = end;
        Ok(payload)
    }
}

fn check_tag(idx: usize, tag: &[u8]) -> Result<(), CheckpointError> {
    if tag == SECTION_TAGS[idx] {
        return Ok(());
    }
    Err(corrupt(
        SECTION_NAMES[idx],
        format!("unexpected section tag {:?}", String::from_utf8_lossy(tag)),
    ))
}

fn corrupt(section: &'static str, e: impl fmt::Display) -> CheckpointError {
    CheckpointError::Corrupt {
        section,
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

fn encode_meta(meta: &CheckpointMeta) -> Vec<u8> {
    let mut p = Vec::new();
    let w = &mut p;
    write_u64_to(w, meta.fingerprint).expect("Vec writes are infallible");
    write_u32_to(w, meta.next_epoch).expect("Vec writes are infallible");
    write_u64_to(w, meta.train_seconds.to_bits()).expect("Vec writes are infallible");
    for s in meta.rng_state {
        write_u64_to(w, s).expect("Vec writes are infallible");
    }
    write_u32_to(w, meta.loss_history.len() as u32).expect("Vec writes are infallible");
    for &l in &meta.loss_history {
        w.extend_from_slice(&l.to_le_bytes());
    }
    write_u32_to(w, meta.order.len() as u32).expect("Vec writes are infallible");
    for &o in &meta.order {
        write_u32_to(w, o).expect("Vec writes are infallible");
    }
    p
}

fn decode_meta(payload: &[u8]) -> Result<CheckpointMeta, CheckpointError> {
    let name = SECTION_NAMES[0];
    let r = &mut &payload[..];
    let err = |e: sarn_tensor::IoError| corrupt(name, e);
    let fingerprint = read_u64_from(r).map_err(err)?;
    let next_epoch = read_u32_from(r).map_err(err)?;
    let train_seconds = f64::from_bits(read_u64_from(r).map_err(err)?);
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = read_u64_from(r).map_err(err)?;
    }
    let n_loss = read_u32_from(r).map_err(err)? as usize;
    let mut loss_history = Vec::with_capacity(n_loss.min(1 << 20));
    for _ in 0..n_loss {
        loss_history.push(f32::from_bits(read_u32_from(r).map_err(err)?));
    }
    let n_order = read_u32_from(r).map_err(err)? as usize;
    let mut order = Vec::with_capacity(n_order.min(1 << 24));
    for _ in 0..n_order {
        order.push(read_u32_from(r).map_err(err)?);
    }
    Ok(CheckpointMeta {
        fingerprint,
        next_epoch,
        train_seconds,
        rng_state,
        loss_history,
        order,
    })
}

fn encode_store(snap: &ParamStoreSnapshot) -> Vec<u8> {
    let mut p = Vec::new();
    write_u32_to(&mut p, snap.params.len() as u32).expect("Vec writes are infallible");
    for (name, value) in &snap.params {
        write_str_to(&mut p, name).expect("Vec writes are infallible");
        write_tensor_to(&mut p, value).expect("Vec writes are infallible");
    }
    p
}

fn decode_store(payload: &[u8], name: &'static str) -> Result<ParamStoreSnapshot, CheckpointError> {
    let r = &mut &payload[..];
    let count = read_u32_from(r).map_err(|e| corrupt(name, e))? as usize;
    let mut params = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let pname = read_str_from(r).map_err(|e| corrupt(name, e))?;
        let value = read_tensor_from(r).map_err(|e| corrupt(name, e))?;
        params.push((pname, value));
    }
    Ok(ParamStoreSnapshot { params })
}

fn encode_optim(optim: &OptimState) -> Vec<u8> {
    let mut p = Vec::new();
    write_u64_to(&mut p, optim.step).expect("Vec writes are infallible");
    write_u32_to(&mut p, optim.m.len() as u32).expect("Vec writes are infallible");
    for t in optim.m.iter().chain(&optim.v) {
        write_tensor_to(&mut p, t).expect("Vec writes are infallible");
    }
    p
}

fn decode_optim(payload: &[u8]) -> Result<OptimState, CheckpointError> {
    let name = SECTION_NAMES[3];
    let r = &mut &payload[..];
    let step = read_u64_from(r).map_err(|e| corrupt(name, e))?;
    let count = read_u32_from(r).map_err(|e| corrupt(name, e))? as usize;
    let mut read_tensors = |n: usize| -> Result<Vec<Tensor>, CheckpointError> {
        (0..n)
            .map(|_| read_tensor_from(r).map_err(|e| corrupt(name, e)))
            .collect()
    };
    let m = read_tensors(count)?;
    let v = read_tensors(count)?;
    Ok(OptimState { step, m, v })
}

fn encode_queues(queues: Option<&QueueState>) -> Vec<u8> {
    let mut p = Vec::new();
    match queues {
        None => p.push(0),
        Some(q) => {
            p.push(1);
            write_u32_to(&mut p, q.dim).expect("Vec writes are infallible");
            write_u32_to(&mut p, q.capacity).expect("Vec writes are infallible");
            write_u32_to(&mut p, q.cells.len() as u32).expect("Vec writes are infallible");
            for cell in &q.cells {
                write_u32_to(&mut p, cell.len() as u32).expect("Vec writes are infallible");
                for (seg, e) in cell {
                    write_u32_to(&mut p, *seg).expect("Vec writes are infallible");
                    for &x in e {
                        p.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
    }
    p
}

fn decode_queues(payload: &[u8]) -> Result<Option<QueueState>, CheckpointError> {
    let name = SECTION_NAMES[4];
    let r = &mut &payload[..];
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag).map_err(|e| corrupt(name, e))?;
    match flag[0] {
        0 => Ok(None),
        1 => {
            let dim = read_u32_from(r).map_err(|e| corrupt(name, e))?;
            let capacity = read_u32_from(r).map_err(|e| corrupt(name, e))?;
            let n_cells = read_u32_from(r).map_err(|e| corrupt(name, e))? as usize;
            let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
            for _ in 0..n_cells {
                let n_entries = read_u32_from(r).map_err(|e| corrupt(name, e))? as usize;
                let mut cell = Vec::with_capacity(n_entries.min(1 << 16));
                for _ in 0..n_entries {
                    let seg = read_u32_from(r).map_err(|e| corrupt(name, e))?;
                    let mut e = Vec::with_capacity(dim as usize);
                    for _ in 0..dim {
                        e.push(f32::from_bits(
                            read_u32_from(r).map_err(|e| corrupt(name, e))?,
                        ));
                    }
                    cell.push((seg, e));
                }
                cells.push(cell);
            }
            Ok(Some(QueueState {
                dim,
                capacity,
                cells,
            }))
        }
        other => Err(corrupt(
            name,
            format!("invalid queue presence flag {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sarn_durable::TempDir;

    fn sample_checkpoint() -> Checkpoint {
        let mut store = ParamStore::new();
        store.add(
            "enc.w",
            Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]),
        );
        store.add("proj.b", Tensor::row(&[0.5, -0.5]));
        Checkpoint {
            meta: CheckpointMeta {
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                next_epoch: 3,
                train_seconds: 1.25,
                rng_state: [1, 2, 3, 4],
                loss_history: vec![0.5, 0.25, 0.125],
                order: vec![2, 0, 1],
            },
            query: ParamStoreSnapshot::of(&store),
            momentum: ParamStoreSnapshot::of(&store),
            optim: OptimState {
                step: 7,
                m: vec![Tensor::ones(2, 3), Tensor::zeros(1, 2)],
                v: vec![Tensor::full(2, 3, 0.5), Tensor::zeros(1, 2)],
            },
            queues: Some(QueueState {
                dim: 2,
                capacity: 4,
                cells: vec![vec![(0, vec![1.0, 2.0]), (1, vec![3.0, 4.0])], vec![]],
            }),
        }
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ckpt, back);
        // Queue-less variants too.
        let mut no_q = ckpt;
        no_q.queues = None;
        assert_eq!(Checkpoint::from_bytes(&no_q.to_bytes()).unwrap(), no_q);
    }

    #[test]
    fn file_roundtrip_is_atomic_and_leaves_no_tmp() {
        let dir = TempDir::new("ckpt-roundtrip").unwrap();
        let path = dir.path().join(checkpoint_file_name(1, 5));
        let ckpt = sample_checkpoint();
        ckpt.save(&path).unwrap();
        assert!(!tmp_sibling(&path).exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
    }

    #[test]
    fn file_names_parse_back() {
        assert_eq!(
            parse_file_name(&checkpoint_file_name(0xABCD, 12)),
            Some((0xABCD, 12))
        );
        assert_eq!(parse_file_name("ckpt-zz-ep1.sarnckpt"), None);
        assert_eq!(parse_file_name("other.bin"), None);
    }

    #[test]
    fn latest_and_prune_respect_fingerprints() {
        let dir = TempDir::new("ckpt-retention").unwrap();
        let ckpt = sample_checkpoint();
        for epoch in [1, 2, 3, 4] {
            ckpt.save(dir.path().join(checkpoint_file_name(0xA, epoch)))
                .unwrap();
        }
        ckpt.save(dir.path().join(checkpoint_file_name(0xB, 9)))
            .unwrap();
        // A staged tmp file (crash leftover) is ignored.
        fs::write(
            dir.path()
                .join("ckpt-000000000000000a-ep000099.sarnckpt.tmp"),
            b"junk",
        )
        .unwrap();

        assert_eq!(
            latest_checkpoint(dir.path(), Some(0xA)),
            Some(dir.path().join(checkpoint_file_name(0xA, 4)))
        );
        assert_eq!(
            latest_checkpoint(dir.path(), None),
            Some(dir.path().join(checkpoint_file_name(0xB, 9)))
        );
        prune_checkpoints(dir.path(), 0xA, 2).unwrap();
        let left = list_checkpoints(dir.path(), Some(0xA));
        assert_eq!(left.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![3, 4]);
        // The other fingerprint's checkpoint survives.
        assert!(latest_checkpoint(dir.path(), Some(0xB)).is_some());
    }

    #[test]
    fn probe_header_reads_meta_without_the_tensor_sections() {
        let dir = TempDir::new("ckpt-probe").unwrap();
        let path = dir.path().join(checkpoint_file_name(0xC0FFEE, 3));
        let ckpt = sample_checkpoint();
        ckpt.save(&path).unwrap();
        // The probe's meta is the full load's meta.
        assert_eq!(Checkpoint::probe_header(&path).unwrap(), ckpt.meta);
        // It still works when every section *after* META is torn off —
        // proof it never touches the tensor payloads.
        let bytes = ckpt.to_bytes();
        let meta_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let beheaded = dir.path().join("beheaded.sarnckpt");
        fs::write(&beheaded, &bytes[..12 + 16 + meta_len]).unwrap();
        assert_eq!(Checkpoint::probe_header(&beheaded).unwrap(), ckpt.meta);
    }

    #[test]
    fn probe_header_rejects_damage_with_typed_errors() {
        let dir = TempDir::new("ckpt-probe-bad").unwrap();
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();

        let garbage = dir.path().join("garbage.sarnckpt");
        fs::write(&garbage, b"not a checkpoint at all").unwrap();
        assert!(matches!(
            Checkpoint::probe_header(&garbage),
            Err(CheckpointError::BadMagic)
        ));

        let truncated = dir.path().join("truncated.sarnckpt");
        fs::write(&truncated, &bytes[..20]).unwrap();
        assert!(matches!(
            Checkpoint::probe_header(&truncated),
            Err(CheckpointError::Truncated { section: "META" })
        ));

        let mut flipped = bytes.clone();
        flipped[30] ^= 0xFF; // inside the META payload
        let corrupt = dir.path().join("corrupt.sarnckpt");
        fs::write(&corrupt, &flipped).unwrap();
        assert!(matches!(
            Checkpoint::probe_header(&corrupt),
            Err(CheckpointError::Corrupt {
                section: "META",
                ..
            })
        ));

        let mut versioned = bytes;
        versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
        let newer = dir.path().join("newer.sarnckpt");
        fs::write(&newer, &versioned).unwrap();
        assert!(matches!(
            Checkpoint::probe_header(&newer),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn snapshot_apply_is_validated() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let snap = ParamStoreSnapshot::of(&store);
        let mut other = ParamStore::new();
        other.add("w", Tensor::zeros(2, 2));
        assert!(matches!(
            snap.apply_to(&mut other),
            Err(CheckpointError::StateMismatch(_))
        ));
        let mut ok = ParamStore::new();
        let ok_id = ok.add("w", Tensor::zeros(1, 2));
        snap.apply_to(&mut ok).unwrap();
        assert_eq!(ok.value(ok_id).data(), store.value(id).data());
    }
}
