//! # sarn-durable
//!
//! One durable-write path and one checksum for every artifact the
//! workspace persists: checkpoints, the pipeline cursor, exported
//! `gen-*.emb` generations, HNSW sidecars, tensor and parameter files, and
//! telemetry exports (DESIGN.md §8, "Durable writes"). Pure `std`, so the
//! dependency-free crates can use it too.

#![warn(missing_docs)]

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The `.tmp` sibling a write to `path` stages its bytes in: same
/// directory, so the publishing rename stays atomic.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The tmp sibling of `path`, or `InvalidInput` when `path` names no file
/// (`/`, `..`), which would otherwise stage into a bare `.tmp`.
fn staging_path(path: &Path) -> io::Result<PathBuf> {
    if path.file_name().is_none() {
        let msg = format!("{} has no file name to write", path.display());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(tmp_sibling(path))
}

/// Writes `bytes` to `path` so that a crash at any point leaves either the
/// previous file or the complete new one: [`stage`], then [`publish`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    stage(path, bytes)?;
    publish(path)
}

/// First half of [`atomic_write`]: writes `bytes` to the [`tmp_sibling`]
/// of `path`, replacing any torn leftover, and fsyncs it. Returns the
/// staged path, which a caller may check before [`publish`]. On failure
/// the tmp is removed.
pub fn stage(path: &Path, bytes: &[u8]) -> io::Result<PathBuf> {
    let tmp = staging_path(path)?;
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if let Err(e) = written {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    Ok(tmp)
}

/// Second half of [`atomic_write`]: renames the staged [`tmp_sibling`] of
/// `path` over `path`, then fsyncs the parent directory, without which a
/// crash can undo the rename (Unix; elsewhere the rename is the last
/// step). On a failed rename the tmp is removed.
pub fn publish(path: &Path) -> io::Result<()> {
    let tmp = staging_path(path)?;
    if let Err(e) = fs::rename(&tmp, path) {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    sync_parent(path)
}

fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    // Only Unix can open a directory to fsync it.
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The slicing-by-8 tables: `[0]` is the bytewise CRC-32 table, and `[t]`
/// advances a byte through `t` more zero bytes, so eight bytes fold into
/// the checksum with one lookup each and no dependency between them.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3, reflected) of `bytes`: the checksum of every
/// on-disk format and of the serving layer's data fingerprint. Eight bytes
/// at a time (slicing-by-8), then the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Bytes of the `len u64 | crc u32` header that opens a frame.
pub const FRAME_HEADER_LEN: usize = 12;

/// Appends one frame holding `payload` to `out`: its length (`u64`) and
/// [`crc32`] (`u32`), both little-endian, then the payload.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why [`decode_frame`] rejected a buffer; callers map it onto their own
/// typed errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame's header or payload does.
    Truncated {
        /// Buffer offset at which the header or payload would end.
        needed: usize,
        /// Length of the buffer.
        have: usize,
    },
    /// The payload does not hash to the checksum in the header.
    CrcMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as read.
        found: u32,
    },
}

/// Decodes the frame that starts at `buf[at..]`, checking that the buffer
/// holds the whole payload and that the payload matches its checksum.
/// Returns the payload and the offset just past it.
pub fn decode_frame(buf: &[u8], at: usize) -> Result<(&[u8], usize), FrameError> {
    let have = buf.len();
    let body = at.saturating_add(FRAME_HEADER_LEN);
    let header = buf
        .get(at..body)
        .ok_or(FrameError::Truncated { needed: body, have })?;
    let (len, crc) = header.split_at(8);
    let len = u64::from_le_bytes(len.try_into().expect("8-byte slice"));
    let end = body.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
    let payload = buf
        .get(body..end)
        .ok_or(FrameError::Truncated { needed: end, have })?;
    let expected = u32::from_le_bytes(crc.try_into().expect("4-byte slice"));
    let found = crc32(payload);
    if found != expected {
        return Err(FrameError::CrcMismatch { expected, found });
    }
    Ok((payload, end))
}

/// A fresh, empty directory under [`std::env::temp_dir`], removed with its
/// contents on drop. Named `sarn-<tag>-<pid>-<n>` with `n` a process-wide
/// counter, so no two calls share one.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates the directory.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sarn-{tag}-{}-{n}", std::process::id()));
        // The pid is ours, so an existing directory of this name is a dead
        // process's leftover: clear it rather than share it.
        fs::remove_dir_all(&path).ok();
        fs::create_dir(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-lookup-per-byte loop the slicing-by-8 tables replace.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_offset() {
        let bytes: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=64 {
            for start in 0..8 {
                let s = &bytes[start..start + len];
                assert_eq!(
                    crc32(s),
                    bytewise_crc32(s),
                    "length {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn atomic_write_replaces_the_file_over_a_torn_tmp_and_leaves_none() {
        let dir = TempDir::new("durable-replace").unwrap();
        let path = dir.path().join("artifact.bin");
        atomic_write(&path, b"old").unwrap();
        // A killed writer's torn tmp is overwritten, not appended to.
        fs::write(tmp_sibling(&path), b"torn bytes of a longer write").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1);
    }

    #[test]
    fn a_failed_rename_removes_the_tmp() {
        let dir = TempDir::new("durable-rename").unwrap();
        // A non-empty directory at the target: the rename must fail.
        let path = dir.path().join("artifact.bin");
        fs::create_dir(&path).unwrap();
        fs::write(path.join("keep"), b"x").unwrap();
        assert!(atomic_write(&path, b"bytes").is_err());
        assert!(!tmp_sibling(&path).exists());
        assert_eq!(fs::read(path.join("keep")).unwrap(), b"x");
    }

    #[test]
    fn a_path_with_no_file_name_is_invalid_input() {
        let dir = TempDir::new("durable-noname").unwrap();
        fs::create_dir(dir.path().join("sub")).unwrap();
        let up = dir.path().join("sub/..");
        for path in [Path::new("/"), Path::new(".."), up.as_path()] {
            let err = atomic_write(path, b"x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{path:?}");
        }
        // Staging `sub/..` blindly would have written `<dir>/.tmp`.
        assert!(!dir.path().join(".tmp").exists());
    }

    #[test]
    fn temp_dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("durable-unique").unwrap();
        let b = TempDir::new("durable-unique").unwrap();
        assert_ne!(a.path(), b.path());
        fs::write(a.path().join("f"), b"x").unwrap();
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }
}
