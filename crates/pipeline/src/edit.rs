//! Typed network edits and their binary wire format.
//!
//! An [`EditBatch`] is the unit the pipeline applies atomically: either
//! every record in a batch decodes, validates, and applies, or none of
//! them touch the live network. The encoding is deliberately in the
//! checkpoint file's mold — magic, version, length-prefixed records, and
//! a CRC32 trailer (the shared [`sarn_durable::crc32`]) — so a
//! truncated or bit-flipped batch fails with a typed [`EditError`]
//! *before* any state changes.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! magic "SARNEDIT" (8B)  version u32  count u32
//!   record*count:
//!     tag u8 = 1 (SegmentAdd):    key u64, class u8,
//!                                 start.lat f64, start.lon f64,
//!                                 end.lat f64, end.lon f64,
//!                                 n_in u32, in_key u64 * n_in,
//!                                 n_out u32, out_key u64 * n_out
//!     tag u8 = 2 (SegmentRemove): key u64
//!     tag u8 = 3 (Reclass):       key u64, class u8
//! crc32 u32 over everything after the magic
//! ```
//!
//! Segments are addressed by **stable `u64` keys**, never by dense index:
//! a removal renumbers every later index, so indices in a multi-record
//! batch would be ambiguous. [`crate::LiveNetwork`] owns the key ↔ index
//! maps.

use sarn_durable::crc32;
use sarn_geo::Point;
use sarn_roadnet::HighwayClass;

/// Cap on records per batch; a count above this is treated as corruption
/// rather than an allocation request.
const MAX_RECORDS: u32 = 1 << 20;
/// Cap on neighbor-list length per add record, same rationale.
const MAX_NEIGHBORS: u32 = 1 << 16;

const MAGIC: &[u8; 8] = b"SARNEDIT";
const FORMAT_VERSION: u32 = 1;

/// One typed edit to the road network.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkEdit {
    /// Append a new segment under a caller-chosen fresh key, wiring
    /// Eq. 1 topological edges to the named neighbor keys.
    SegmentAdd {
        /// Stable key of the new segment; must not collide with a live key.
        key: u64,
        /// Road class of the new segment.
        class: HighwayClass,
        /// Start point.
        start: Point,
        /// End point.
        end: Point,
        /// Keys of segments gaining an edge *into* the new segment.
        in_neighbors: Vec<u64>,
        /// Keys of segments gaining an edge *from* the new segment.
        out_neighbors: Vec<u64>,
    },
    /// Remove a live segment (and its incident `A^t`/`A^s` edges).
    SegmentRemove {
        /// Key of the segment to remove.
        key: u64,
    },
    /// Change a live segment's road class, recomputing incident Eq. 1
    /// weights. `A^s` is untouched: spatial similarity depends only on
    /// geometry.
    ReclassSegment {
        /// Key of the segment to reclassify.
        key: u64,
        /// Its new class.
        class: HighwayClass,
    },
}

impl NetworkEdit {
    /// The stable key this edit targets (the new key for an add).
    pub fn key(&self) -> u64 {
        match self {
            NetworkEdit::SegmentAdd { key, .. }
            | NetworkEdit::SegmentRemove { key }
            | NetworkEdit::ReclassSegment { key, .. } => *key,
        }
    }
}

/// Why an edit batch was rejected — decode-time damage and apply-time
/// semantic violations share one taxonomy so callers match on a single
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The byte stream ended inside the named structure.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The stream does not start with `SARNEDIT`.
    BadMagic,
    /// The stream's format version is not supported.
    UnsupportedVersion(u32),
    /// A record's tag byte is not a known edit kind.
    UnknownTag {
        /// Zero-based record ordinal.
        record: usize,
        /// The offending tag byte.
        tag: u8,
    },
    /// A record's class byte does not name a [`HighwayClass`].
    BadClass {
        /// Zero-based record ordinal.
        record: usize,
        /// The offending class byte.
        class: u8,
    },
    /// A coordinate in an add record is NaN or infinite.
    NonFinite {
        /// Zero-based record ordinal.
        record: usize,
    },
    /// The CRC32 trailer does not match the decoded bytes.
    Corrupt {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC stored in the trailer.
        stored: u32,
    },
    /// An implausible length field (record count or neighbor count).
    ImplausibleLength {
        /// What was being sized.
        context: &'static str,
        /// The offending length.
        len: u64,
    },
    /// An add targets a key that is already live (or duplicated within
    /// the batch).
    DuplicateSegment {
        /// The colliding key.
        key: u64,
    },
    /// A remove/reclass/neighbor reference targets a key that is not live
    /// at that point of the batch.
    UnknownSegment {
        /// The missing key.
        key: u64,
    },
    /// The batch would remove the last remaining segment.
    EmptyNetwork,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::Truncated { context } => {
                write!(f, "edit stream truncated while reading {context}")
            }
            EditError::BadMagic => write!(f, "not an edit stream (bad magic)"),
            EditError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported edit stream version {v} (expected {FORMAT_VERSION})"
                )
            }
            EditError::UnknownTag { record, tag } => {
                write!(f, "record {record}: unknown edit tag {tag}")
            }
            EditError::BadClass { record, class } => {
                write!(f, "record {record}: unknown highway class {class}")
            }
            EditError::NonFinite { record } => {
                write!(f, "record {record}: non-finite coordinate")
            }
            EditError::Corrupt { computed, stored } => write!(
                f,
                "edit stream checksum mismatch (computed {computed:#010x}, stored {stored:#010x})"
            ),
            EditError::ImplausibleLength { context, len } => {
                write!(f, "implausible {context} length {len}")
            }
            EditError::DuplicateSegment { key } => {
                write!(f, "segment key {key} is already live")
            }
            EditError::UnknownSegment { key } => {
                write!(f, "segment key {key} is not live")
            }
            EditError::EmptyNetwork => {
                write!(f, "batch would remove the last remaining segment")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// An ordered list of [`NetworkEdit`]s applied as one atomic unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EditBatch {
    /// The edits, applied in order.
    pub edits: Vec<NetworkEdit>,
}

fn class_to_u8(c: HighwayClass) -> u8 {
    c.index() as u8
}

fn class_from_u8(b: u8, record: usize) -> Result<HighwayClass, EditError> {
    HighwayClass::ALL
        .get(b as usize)
        .copied()
        .ok_or(EditError::BadClass { record, class: b })
}

/// Byte-stream reader with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], EditError> {
        if self.pos + n > self.bytes.len() {
            return Err(EditError::Truncated { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, EditError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, EditError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, EditError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8-byte slice"),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, EditError> {
        Ok(f64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8-byte slice"),
        ))
    }
}

impl EditBatch {
    /// Wraps edits into a batch.
    pub fn new(edits: Vec<NetworkEdit>) -> Self {
        Self { edits }
    }

    /// Serializes the batch to the wire format described in the module
    /// docs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.edits.len() * 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.edits.len() as u32).to_le_bytes());
        for e in &self.edits {
            match e {
                NetworkEdit::SegmentAdd {
                    key,
                    class,
                    start,
                    end,
                    in_neighbors,
                    out_neighbors,
                } => {
                    out.push(1);
                    out.extend_from_slice(&key.to_le_bytes());
                    out.push(class_to_u8(*class));
                    for v in [start.lat, start.lon, end.lat, end.lon] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    out.extend_from_slice(&(in_neighbors.len() as u32).to_le_bytes());
                    for k in in_neighbors {
                        out.extend_from_slice(&k.to_le_bytes());
                    }
                    out.extend_from_slice(&(out_neighbors.len() as u32).to_le_bytes());
                    for k in out_neighbors {
                        out.extend_from_slice(&k.to_le_bytes());
                    }
                }
                NetworkEdit::SegmentRemove { key } => {
                    out.push(2);
                    out.extend_from_slice(&key.to_le_bytes());
                }
                NetworkEdit::ReclassSegment { key, class } => {
                    out.push(3);
                    out.extend_from_slice(&key.to_le_bytes());
                    out.push(class_to_u8(*class));
                }
            }
        }
        let crc = crc32(&out[MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a batch, rejecting truncation, bad magic, unsupported
    /// versions, unknown tags/classes, non-finite coordinates, and CRC
    /// mismatches with the corresponding typed [`EditError`]. Decoding
    /// never allocates more than the stream's own length justifies.
    pub fn decode(bytes: &[u8]) -> Result<Self, EditError> {
        if bytes.len() < MAGIC.len() {
            return Err(EditError::Truncated { context: "magic" });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(EditError::BadMagic);
        }
        // The CRC trailer covers everything between magic and trailer; it
        // is verified FIRST so a bit flip inside a record surfaces as
        // Corrupt, not as a misleading structural error.
        if bytes.len() < MAGIC.len() + 4 {
            return Err(EditError::Truncated {
                context: "crc trailer",
            });
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4-byte slice"));
        let computed = crc32(body);
        if computed != stored {
            return Err(EditError::Corrupt { computed, stored });
        }
        let mut r = Reader {
            bytes: body,
            pos: 0,
        };
        let version = r.u32("version")?;
        if version != FORMAT_VERSION {
            return Err(EditError::UnsupportedVersion(version));
        }
        let count = r.u32("record count")?;
        if count > MAX_RECORDS {
            return Err(EditError::ImplausibleLength {
                context: "record count",
                len: count as u64,
            });
        }
        let mut edits = Vec::with_capacity(count as usize);
        for record in 0..count as usize {
            let tag = r.u8("record tag")?;
            let edit = match tag {
                1 => {
                    let key = r.u64("add key")?;
                    let class = class_from_u8(r.u8("add class")?, record)?;
                    let coords = [
                        r.f64("start.lat")?,
                        r.f64("start.lon")?,
                        r.f64("end.lat")?,
                        r.f64("end.lon")?,
                    ];
                    if coords.iter().any(|v| !v.is_finite()) {
                        return Err(EditError::NonFinite { record });
                    }
                    let read_keys =
                        |r: &mut Reader<'_>, what: &'static str| -> Result<Vec<u64>, EditError> {
                            let n = r.u32(what)?;
                            if n > MAX_NEIGHBORS {
                                return Err(EditError::ImplausibleLength {
                                    context: what,
                                    len: n as u64,
                                });
                            }
                            (0..n).map(|_| r.u64(what)).collect()
                        };
                    let in_neighbors = read_keys(&mut r, "in-neighbors")?;
                    let out_neighbors = read_keys(&mut r, "out-neighbors")?;
                    NetworkEdit::SegmentAdd {
                        key,
                        class,
                        start: Point {
                            lat: coords[0],
                            lon: coords[1],
                        },
                        end: Point {
                            lat: coords[2],
                            lon: coords[3],
                        },
                        in_neighbors,
                        out_neighbors,
                    }
                }
                2 => NetworkEdit::SegmentRemove {
                    key: r.u64("remove key")?,
                },
                3 => {
                    let key = r.u64("reclass key")?;
                    let class = class_from_u8(r.u8("reclass class")?, record)?;
                    NetworkEdit::ReclassSegment { key, class }
                }
                tag => return Err(EditError::UnknownTag { record, tag }),
            };
            edits.push(edit);
        }
        if r.pos != r.bytes.len() {
            // Trailing garbage inside a CRC-valid stream cannot happen by
            // accident; treat it as an implausible encoding.
            return Err(EditError::ImplausibleLength {
                context: "trailing bytes",
                len: (r.bytes.len() - r.pos) as u64,
            });
        }
        Ok(Self { edits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point { lat, lon }
    }

    fn sample_batch() -> EditBatch {
        EditBatch::new(vec![
            NetworkEdit::SegmentAdd {
                key: 100,
                class: HighwayClass::Primary,
                start: p(30.65, 104.06),
                end: p(30.652, 104.061),
                in_neighbors: vec![3, 7],
                out_neighbors: vec![5],
            },
            NetworkEdit::SegmentRemove { key: 7 },
            NetworkEdit::ReclassSegment {
                key: 5,
                class: HighwayClass::Service,
            },
        ])
    }

    #[test]
    fn round_trips_every_edit_kind() {
        let batch = sample_batch();
        let bytes = batch.encode();
        let decoded = EditBatch::decode(&bytes).expect("decode");
        assert_eq!(decoded, batch);
        // Byte pin of the wire format: length and CRC-32 of this fixed batch.
        assert_eq!((bytes.len(), crc32(&bytes)), (113, 0xC14F_E500));
    }

    #[test]
    fn truncation_anywhere_is_typed_not_a_panic() {
        let bytes = sample_batch().encode();
        for cut in 0..bytes.len() {
            let err = EditBatch::decode(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    EditError::Truncated { .. } | EditError::Corrupt { .. } | EditError::BadMagic
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn garbage_and_version_skew_are_rejected() {
        assert_eq!(
            EditBatch::decode(b"not an edit stream at all"),
            Err(EditError::BadMagic)
        );
        // A version bump re-CRCs cleanly but is refused as unsupported.
        let mut bytes = sample_batch().encode();
        bytes[8] = 9;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[8..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            EditBatch::decode(&bytes),
            Err(EditError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn any_single_bit_flip_in_the_body_is_caught_by_the_crc() {
        let clean = sample_batch().encode();
        for byte in 8..clean.len() - 4 {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x40;
            let err = EditBatch::decode(&bytes).expect_err("flip must fail");
            assert!(
                matches!(err, EditError::Corrupt { .. }),
                "flip at {byte}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn unknown_tag_and_bad_class_are_typed_once_past_the_crc() {
        // Re-sign the stream after damaging it so the structural checks
        // (not the CRC) are what fire.
        let resign = |mut bytes: Vec<u8>| -> Vec<u8> {
            let body_end = bytes.len() - 4;
            let crc = crc32(&bytes[8..body_end]);
            bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        let clean = sample_batch().encode();
        // First record tag byte sits right after magic+version+count.
        let mut bad_tag = clean.clone();
        bad_tag[16] = 77;
        assert_eq!(
            EditBatch::decode(&resign(bad_tag)),
            Err(EditError::UnknownTag { record: 0, tag: 77 })
        );
        // Class byte of the first (add) record: tag(1) + key(8) after 16.
        let mut bad_class = clean.clone();
        bad_class[16 + 1 + 8] = 200;
        assert_eq!(
            EditBatch::decode(&resign(bad_class)),
            Err(EditError::BadClass {
                record: 0,
                class: 200
            })
        );
        // NaN latitude in the first add record.
        let mut nan_lat = clean;
        let at = 16 + 1 + 8 + 1;
        nan_lat[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            EditBatch::decode(&resign(nan_lat)),
            Err(EditError::NonFinite { record: 0 })
        );
    }

    #[test]
    fn implausible_counts_do_not_allocate() {
        // count = u32::MAX with an otherwise-valid header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SARNEDIT");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            EditBatch::decode(&bytes),
            Err(EditError::ImplausibleLength {
                context: "record count",
                len: u32::MAX as u64,
            })
        );
    }

    /// One arbitrary well-formed edit, derived from four integer draws.
    fn arbitrary_edit() -> impl proptest::Strategy<Value = NetworkEdit> {
        use proptest::Strategy as _;
        let class = |b: u64| HighwayClass::ALL[b as usize % HighwayClass::ALL.len()];
        (0u64..u64::MAX, 0u64..256, 0u64..256, 0u64..3).prop_map(move |(key, cb, nb, kind)| {
            match kind {
                0 => NetworkEdit::SegmentAdd {
                    key,
                    class: class(cb),
                    start: Point {
                        lat: 30.0 + (key % 997) as f64 * 1e-4,
                        lon: 104.0 + (key % 991) as f64 * 1e-4,
                    },
                    end: Point {
                        lat: 30.0 + (key % 983) as f64 * 1e-4,
                        lon: 104.0 + (key % 977) as f64 * 1e-4,
                    },
                    in_neighbors: (0..nb % 5).map(|i| key ^ i).collect(),
                    out_neighbors: (0..nb % 3).map(|i| !key ^ i).collect(),
                },
                1 => NetworkEdit::SegmentRemove { key },
                _ => NetworkEdit::ReclassSegment {
                    key,
                    class: class(cb),
                },
            }
        })
    }

    proptest::proptest! {
        #[test]
        fn proptest_round_trip_of_well_formed_streams(
            edits in proptest::collection::vec(arbitrary_edit(), 0..12)
        ) {
            let batch = EditBatch::new(edits);
            let decoded = EditBatch::decode(&batch.encode()).expect("round trip");
            proptest::prop_assert_eq!(decoded, batch);
        }
    }
}
