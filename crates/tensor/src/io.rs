//! Persistence for tensors and parameter stores.
//!
//! A deliberately simple little-endian binary format (magic + shape +
//! payload) so trained embeddings and models survive process restarts
//! without any serialization dependency. The streaming primitives
//! ([`write_tensor_to`], [`read_tensor_from`], [`write_str_to`],
//! [`read_str_from`], and the raw-store variants on [`ParamStore`]) are
//! public so higher layers (e.g. the training checkpoint subsystem) can
//! embed tensors and stores inside their own framed formats.
//!
//! [`Tensor::save`] and [`ParamStore::save`] are atomic: they write
//! through [`sarn_durable::atomic_write`] (DESIGN.md §8, "Durable
//! writes"), so a crash leaves the previous file or the complete new one.
//!
//! Every fallible operation returns a typed [`IoError`] — a truncated or
//! corrupt embedding file surfaces as a descriptive error a serving path
//! can handle, never a panic or an unbounded allocation. For callers in
//! `std::io::Result` contexts, [`IoError`] converts losslessly into
//! [`std::io::Error`] (format problems become `InvalidData`).

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use sarn_durable::atomic_write;

use crate::params::ParamStore;
use crate::tensor::Tensor;

const TENSOR_MAGIC: &[u8; 4] = b"SRT1";
const STORE_MAGIC: &[u8; 4] = b"SRS1";

/// Payloads are read in chunks of at most this many bytes, so a corrupt
/// header claiming an enormous shape fails with [`IoError::Truncated`]
/// after a bounded allocation instead of aborting on an out-of-memory.
const MAX_CHUNK: usize = 1 << 22; // 4 MiB

/// Sanity bound on length-prefixed strings (parameter names).
const MAX_STR_LEN: usize = 1 << 20;

/// Typed failure of tensor / parameter-store persistence.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure (open, read, write, flush).
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Magic the reader expected (`SRT1` for tensors, `SRS1` for
        /// stores).
        expected: &'static str,
    },
    /// The stream ended in the middle of `context`.
    Truncated {
        /// What was being read when the stream ran dry.
        context: &'static str,
    },
    /// A header claims a tensor shape whose element count overflows.
    ShapeOverflow {
        /// Claimed row count.
        rows: usize,
        /// Claimed column count.
        cols: usize,
    },
    /// A length-prefixed string exceeds the sanity bound.
    StringTooLong {
        /// Claimed byte length.
        len: usize,
    },
    /// A string payload is not valid UTF-8.
    InvalidUtf8,
    /// Two parameter stores disagree on layout (names or shapes).
    LayoutMismatch(String),
    /// A loaded tensor's shape disagrees with what the caller expected
    /// (see [`TensorExpectation`]).
    ShapeMismatch {
        /// Row count the caller required, if any.
        expected_rows: Option<usize>,
        /// Column count the caller required, if any.
        expected_cols: Option<usize>,
        /// Row count found in the file.
        rows: usize,
        /// Column count found in the file.
        cols: usize,
    },
    /// A loaded tensor contains a NaN or infinite value where the caller
    /// required an all-finite payload (see [`TensorExpectation`]).
    NonFinite {
        /// Row of the first offending value.
        row: usize,
        /// Column of the first offending value.
        col: usize,
        /// The offending value.
        value: f32,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "{e}"),
            IoError::BadMagic { expected } => {
                write!(f, "bad magic: expected a {expected} file")
            }
            IoError::Truncated { context } => {
                write!(f, "truncated stream while reading {context}")
            }
            IoError::ShapeOverflow { rows, cols } => {
                write!(f, "tensor shape {rows}x{cols} overflows")
            }
            IoError::StringTooLong { len } => {
                write!(
                    f,
                    "string length {len} exceeds the {MAX_STR_LEN}-byte bound"
                )
            }
            IoError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            IoError::LayoutMismatch(detail) => write!(f, "{detail}"),
            IoError::ShapeMismatch {
                expected_rows,
                expected_cols,
                rows,
                cols,
            } => {
                let fmt_dim = |d: &Option<usize>| match d {
                    Some(v) => v.to_string(),
                    None => "any".to_string(),
                };
                write!(
                    f,
                    "tensor shape {rows}x{cols} does not match expected {}x{}",
                    fmt_dim(expected_rows),
                    fmt_dim(expected_cols)
                )
            }
            IoError::NonFinite { row, col, value } => {
                write!(f, "non-finite value {value} at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<IoError> for io::Error {
    /// Lossless for [`IoError::Io`]; every format problem maps to
    /// [`io::ErrorKind::InvalidData`] with the typed error's message.
    fn from(e: IoError) -> Self {
        match e {
            IoError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// `read_exact` that reports a clean EOF inside `context` as
/// [`IoError::Truncated`] rather than a bare I/O error.
fn read_exact_ctx(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> Result<(), IoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            IoError::Truncated { context }
        } else {
            IoError::Io(e)
        }
    })
}

/// Writes a `u32` in little-endian order.
pub fn write_u32_to(w: &mut impl Write, v: u32) -> Result<(), IoError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

/// Reads a little-endian `u32`.
pub fn read_u32_from(r: &mut impl Read) -> Result<u32, IoError> {
    let mut buf = [0u8; 4];
    read_exact_ctx(r, &mut buf, "u32")?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes a `u64` in little-endian order.
pub fn write_u64_to(w: &mut impl Write, v: u64) -> Result<(), IoError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

/// Reads a little-endian `u64`.
pub fn read_u64_from(r: &mut impl Read) -> Result<u64, IoError> {
    let mut buf = [0u8; 8];
    read_exact_ctx(r, &mut buf, "u64")?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a tensor's shape and row-major payload (no magic).
pub fn write_tensor_to(w: &mut impl Write, t: &Tensor) -> Result<(), IoError> {
    write_u32_to(w, t.rows() as u32)?;
    write_u32_to(w, t.cols() as u32)?;
    let mut bytes = Vec::with_capacity(t.len() * 4);
    for &v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    Ok(w.write_all(&bytes)?)
}

/// Reads a tensor written by [`write_tensor_to`]. The payload is pulled in
/// bounded chunks, so a damaged header claiming a huge shape fails after at
/// most [`MAX_CHUNK`] bytes of allocation beyond the actual data.
pub fn read_tensor_from(r: &mut impl Read) -> Result<Tensor, IoError> {
    let rows = read_u32_from(r)? as usize;
    let cols = read_u32_from(r)? as usize;
    let total = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .ok_or(IoError::ShapeOverflow { rows, cols })?;
    let mut bytes = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        let chunk = remaining.min(MAX_CHUNK);
        let off = bytes.len();
        bytes.resize(off + chunk, 0);
        read_exact_ctx(r, &mut bytes[off..], "tensor payload")?;
        remaining -= chunk;
    }
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Tensor::from_vec(rows, cols, data))
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str_to(w: &mut impl Write, s: &str) -> Result<(), IoError> {
    write_u32_to(w, s.len() as u32)?;
    Ok(w.write_all(s.as_bytes())?)
}

/// Reads a string written by [`write_str_to`].
pub fn read_str_from(r: &mut impl Read) -> Result<String, IoError> {
    let len = read_u32_from(r)? as usize;
    if len > MAX_STR_LEN {
        return Err(IoError::StringTooLong { len });
    }
    let mut buf = vec![0u8; len];
    read_exact_ctx(r, &mut buf, "string payload")?;
    String::from_utf8(buf).map_err(|_| IoError::InvalidUtf8)
}

/// What a reloaded tensor artifact must look like to be admitted.
///
/// Serving paths reload embedding files that may have been swapped,
/// truncated, or half-written underneath them; this is the admission
/// contract they validate against **before** publishing the data. Every
/// violation is a typed [`IoError`], so a reloader can keep its
/// last-known-good generation instead of panicking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TensorExpectation {
    /// Required row count (`None` accepts any).
    pub rows: Option<usize>,
    /// Required column count (`None` accepts any).
    pub cols: Option<usize>,
    /// Require every value to be finite (no NaN / ±∞).
    pub finite: bool,
}

impl TensorExpectation {
    /// Expectation pinning both dimensions and requiring finiteness — the
    /// admission contract of an embedding-serving store.
    pub fn embedding(rows: usize, cols: usize) -> Self {
        Self {
            rows: Some(rows),
            cols: Some(cols),
            finite: true,
        }
    }

    /// Checks a tensor against this expectation.
    pub fn validate(&self, t: &Tensor) -> Result<(), IoError> {
        let rows_ok = self.rows.is_none_or(|r| r == t.rows());
        let cols_ok = self.cols.is_none_or(|c| c == t.cols());
        if !rows_ok || !cols_ok {
            return Err(IoError::ShapeMismatch {
                expected_rows: self.rows,
                expected_cols: self.cols,
                rows: t.rows(),
                cols: t.cols(),
            });
        }
        if self.finite {
            if let Some(pos) = t.data().iter().position(|v| !v.is_finite()) {
                let cols = t.cols().max(1);
                return Err(IoError::NonFinite {
                    row: pos / cols,
                    col: pos % cols,
                    value: t.data()[pos],
                });
            }
        }
        Ok(())
    }
}

impl Tensor {
    /// The `SRT1` file image [`Tensor::save`] writes: magic, shape, then
    /// the row-major payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TENSOR_MAGIC.len() + 8 + self.len() * 4);
        out.extend_from_slice(TENSOR_MAGIC);
        write_tensor_to(&mut out, self).expect("Vec writes are infallible");
        out
    }

    /// Writes this tensor to a file atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        Ok(atomic_write(path.as_ref(), &self.to_bytes())?)
    }

    /// Reads a tensor written by [`Tensor::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Tensor, IoError> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        read_exact_ctx(&mut r, &mut magic, "file magic")?;
        if &magic != TENSOR_MAGIC {
            return Err(IoError::BadMagic { expected: "SRT1" });
        }
        read_tensor_from(&mut r)
    }

    /// Reads a tensor written by [`Tensor::save`] and validates it against
    /// `expect` before returning it — the reload entry point for serving
    /// paths, which must reject a wrong-shaped or non-finite artifact
    /// *before* it can be published to readers.
    pub fn load_validated(
        path: impl AsRef<Path>,
        expect: &TensorExpectation,
    ) -> Result<Tensor, IoError> {
        let t = Tensor::load(path)?;
        expect.validate(&t)?;
        Ok(t)
    }
}

impl ParamStore {
    /// Writes all parameter names and values (gradients are not persisted)
    /// into a raw stream, without the file magic.
    pub fn write_values_to(&self, w: &mut impl Write) -> Result<(), IoError> {
        write_u32_to(w, self.len() as u32)?;
        for id in self.ids() {
            write_str_to(w, self.name(id))?;
            write_tensor_to(w, self.value(id))?;
        }
        Ok(())
    }

    /// Reads a store written by [`ParamStore::write_values_to`].
    pub fn read_values_from(r: &mut impl Read) -> Result<ParamStore, IoError> {
        let count = read_u32_from(r)? as usize;
        let mut store = ParamStore::new();
        for _ in 0..count {
            let name = read_str_from(r)?;
            let value = read_tensor_from(r)?;
            store.add(name, value);
        }
        Ok(store)
    }

    /// Writes all parameter names and values (gradients are not persisted)
    /// to a file atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        let mut bytes = STORE_MAGIC.to_vec();
        self.write_values_to(&mut bytes)?;
        Ok(atomic_write(path.as_ref(), &bytes)?)
    }

    /// Reads a store written by [`ParamStore::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<ParamStore, IoError> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        read_exact_ctx(&mut r, &mut magic, "file magic")?;
        if &magic != STORE_MAGIC {
            return Err(IoError::BadMagic { expected: "SRS1" });
        }
        ParamStore::read_values_from(&mut r)
    }

    /// Checks that `other` has this store's exact layout (parameter names
    /// and shapes, in order), returning a descriptive error otherwise.
    pub fn validate_layout_of(&self, other: &ParamStore) -> Result<(), IoError> {
        if other.len() != self.len() {
            return Err(IoError::LayoutMismatch(format!(
                "layout mismatch: {} vs {} params",
                other.len(),
                self.len()
            )));
        }
        for (mine, theirs) in self.ids().zip(other.ids()) {
            if self.name(mine) != other.name(theirs) {
                return Err(IoError::LayoutMismatch(format!(
                    "param name mismatch: expected {}, found {}",
                    self.name(mine),
                    other.name(theirs)
                )));
            }
            if self.value(mine).shape() != other.value(theirs).shape() {
                return Err(IoError::LayoutMismatch(format!(
                    "param {} shape mismatch: expected {:?}, found {:?}",
                    self.name(mine),
                    self.value(mine).shape(),
                    other.value(theirs).shape()
                )));
            }
        }
        Ok(())
    }

    /// Copies values from another store after validating the full layout,
    /// so a mismatch anywhere leaves this store untouched.
    pub fn copy_values_validated(&mut self, other: &ParamStore) -> Result<(), IoError> {
        self.validate_layout_of(other)?;
        for (mine, theirs) in self.ids().zip(other.ids()).collect::<Vec<_>>() {
            *self.value_mut(mine) = other.value(theirs).clone();
        }
        Ok(())
    }

    /// Loads values from a file into this store; the layout (names and
    /// shapes, in order) must match. Validation runs against the complete
    /// file before any value is written, so an error never leaves the store
    /// partially loaded.
    pub fn load_values_from(&mut self, path: impl AsRef<Path>) -> Result<(), IoError> {
        let other = ParamStore::load(path)?;
        self.copy_values_validated(&other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sarn_durable::{crc32, TempDir};

    #[test]
    fn tensor_roundtrips() {
        let t = Tensor::from_vec(2, 3, vec![1.0, -2.5, 3.25, 0.0, f32::MIN_POSITIVE, 1e9]);
        let dir = TempDir::new("io-tensor").unwrap();
        let p = dir.path().join("tensor");
        t.save(&p).unwrap();
        let back = Tensor::load(&p).unwrap();
        assert_eq!(t, back);
        // Byte pin of the SRT1 file: length and CRC-32.
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (36, 0x050D_DF6A));
    }

    #[test]
    fn store_roundtrips_names_and_values() {
        let mut s = ParamStore::new();
        let a = s.add("layer.w", Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = s.add("layer.b", Tensor::row(&[0.5, -0.5]));
        let dir = TempDir::new("io-store").unwrap();
        let p = dir.path().join("store");
        s.save(&p).unwrap();
        let loaded = ParamStore::load(&p).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.value(a), s.value(a));
        assert_eq!(loaded.value(b), s.value(b));
        assert_eq!(loaded.name(a), "layer.w");
        // Byte pin of the SRS1 file: length and CRC-32.
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (70, 0x5287_275C));
    }

    #[test]
    fn load_values_from_rejects_layout_mismatch() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(1, 2));
        let dir = TempDir::new("io-mismatch").unwrap();
        let p = dir.path().join("mismatch");
        s.save(&p).unwrap();
        let mut other = ParamStore::new();
        other.add("w", Tensor::zeros(2, 2)); // different shape
        assert!(matches!(
            other.load_values_from(&p),
            Err(IoError::LayoutMismatch(_))
        ));
        let mut ok = ParamStore::new();
        ok.add("w", Tensor::ones(1, 2));
        ok.load_values_from(&p).unwrap();
        assert_eq!(ok.value(ok.ids().next().unwrap()).data(), &[0.0, 0.0]);
    }

    #[test]
    fn load_values_from_is_transactional_on_late_mismatch() {
        // The first param matches, the second does not: after the failed
        // load, *neither* value may have changed.
        let mut on_disk = ParamStore::new();
        on_disk.add("a", Tensor::from_vec(1, 2, vec![9.0, 9.0]));
        on_disk.add("b", Tensor::zeros(3, 3));
        let dir = TempDir::new("io-transactional").unwrap();
        let p = dir.path().join("transactional");
        on_disk.save(&p).unwrap();
        let mut target = ParamStore::new();
        let a = target.add("a", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = target.add("b", Tensor::ones(2, 3)); // shape differs
        assert!(target.load_values_from(&p).is_err());
        assert_eq!(target.value(a).data(), &[1.0, 2.0]);
        assert_eq!(target.value(b).data(), &[1.0; 6]);
    }

    #[test]
    fn raw_store_stream_roundtrips() {
        let mut s = ParamStore::new();
        s.add("x", Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let mut buf = Vec::new();
        s.write_values_to(&mut buf).unwrap();
        let back = ParamStore::read_values_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.value(back.ids().next().unwrap()).data(),
            &[1., 2., 3., 4.]
        );
    }

    #[test]
    fn loading_garbage_fails_with_bad_magic() {
        let dir = TempDir::new("io-garbage").unwrap();
        let p = dir.path().join("garbage");
        std::fs::write(&p, b"not a tensor at all").unwrap();
        assert!(matches!(
            Tensor::load(&p),
            Err(IoError::BadMagic { expected: "SRT1" })
        ));
        assert!(matches!(
            ParamStore::load(&p),
            Err(IoError::BadMagic { expected: "SRS1" })
        ));
    }

    #[test]
    fn truncated_tensor_file_is_a_typed_truncation() {
        // Cut a valid file at several depths: inside the magic, inside the
        // header, and inside the payload. Every cut is an error — never a
        // panic, never a partial tensor.
        let t = Tensor::from_vec(4, 4, (0..16).map(|i| i as f32).collect());
        let dir = TempDir::new("io-trunc").unwrap();
        let p = dir.path().join("trunc");
        t.save(&p).unwrap();
        let full = std::fs::read(&p).unwrap();
        for cut in [0, 2, 4, 6, 9, full.len() - 1] {
            std::fs::write(&p, &full[..cut]).unwrap();
            match Tensor::load(&p) {
                Err(IoError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn huge_claimed_shape_fails_bounded_not_oom() {
        // A header claiming a ~16 GiB tensor with no payload behind it must
        // fail with Truncated after at most one bounded chunk allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1u32 << 16).to_le_bytes()); // rows
        bytes.extend_from_slice(&(1u32 << 16).to_le_bytes()); // cols
        match read_tensor_from(&mut bytes.as_slice()) {
            Err(IoError::Truncated { .. }) => {}
            other => panic!("expected bounded failure, got {other:?}"),
        }
        // Overflowing shapes are rejected before any allocation.
        let mut overflow = Vec::new();
        overflow.extend_from_slice(&u32::MAX.to_le_bytes());
        overflow.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_tensor_from(&mut overflow.as_slice()) {
            Err(IoError::ShapeOverflow { .. }) => {}
            other => panic!("expected ShapeOverflow, got {other:?}"),
        }
    }

    #[test]
    fn oversized_string_and_bad_utf8_are_typed() {
        let mut bytes = Vec::new();
        write_u32_to(&mut bytes, (MAX_STR_LEN + 1) as u32).unwrap();
        assert!(matches!(
            read_str_from(&mut bytes.as_slice()),
            Err(IoError::StringTooLong { .. })
        ));
        let mut bad = Vec::new();
        write_u32_to(&mut bad, 2).unwrap();
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_str_from(&mut bad.as_slice()),
            Err(IoError::InvalidUtf8)
        ));
    }

    #[test]
    fn io_error_converts_to_invalid_data_io_error() {
        // Serving paths holding `std::io::Result` signatures keep working:
        // every format problem maps to InvalidData with the same message.
        let e: io::Error = IoError::LayoutMismatch("names differ".into()).into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("names differ"));
        let inner = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        let e: io::Error = IoError::Io(inner).into();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
    }
}
