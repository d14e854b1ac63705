//! Deterministic HNSW approximate k-NN over cosine similarity.
//!
//! The index is a layered proximity graph ([HNSW], Malkov & Yashunin).
//! Three choices make every build a *pure function* of
//! `(HnswConfig, insertion order, scoring kernel)`, which is what lets
//! the serving layer promise bitwise-reproducible indexes:
//!
//! 1. **Seeded level assignment.** A node's level is
//!    `floor(-ln(u) / ln(m))` where `u` is derived from
//!    `splitmix64(seed ^ splitmix64(id))` — a pure function of the
//!    configured seed and the node id, with no RNG state threaded
//!    through the build.
//! 2. **Strict total order everywhere.** All beams, neighbor
//!    selections, and prunes compare candidates by the key
//!    `(score descending via total_cmp, id ascending)`. Ties therefore
//!    break exactly like the exact scan's ascending-index order, and no
//!    comparison ever depends on heap iteration or hash order.
//! 3. **Sequential inserts.** Nodes are inserted in id order; the
//!    caller may *compute* scores on many threads, but graph mutation
//!    is single-writer by construction (`insert` takes `&mut self`).
//!
//! Scoring is delegated to caller closures so the index never copies
//! the embedding matrix: the serving layer passes its own cosine
//! kernel, guaranteeing the ANN path scores with the *same* kernel and
//! operand order as the exact path.
//!
//! Serialization follows the checkpoint discipline: magic + version +
//! length + CRC32 frame, written to a temp sibling and atomically
//! renamed. A torn or bit-flipped index file fails with a typed
//! [`AnnError`], never a panic.
//!
//! [HNSW]: https://arxiv.org/abs/1603.09320

#![warn(missing_docs)]

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Magic bytes opening every serialized index file.
pub const MAGIC: &[u8; 8] = b"SARNHNSW";
/// Serialization format version written after the magic.
pub const FORMAT_VERSION: u32 = 1;
/// Hard cap on assigned levels (the geometric tail beyond this is
/// astronomically unlikely and a cap keeps the format's `u8` honest).
const MAX_LEVEL_CAP: u8 = 31;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of index deserialization, I/O, or a deadline-bounded
/// search. Corruption is always reported through these variants — a
/// torn file never panics.
#[derive(Debug)]
pub enum AnnError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The buffer ended before a complete frame or field.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Payload checksum mismatch (bit rot or a torn write).
    CrcMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as read.
        found: u32,
    },
    /// The frame decoded but its contents are internally inconsistent.
    Malformed(String),
    /// A deadline-bounded search ran out of budget mid-walk.
    DeadlineExpired,
    /// Underlying filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for AnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnError::BadMagic => write!(f, "not an HNSW index file (bad magic)"),
            AnnError::BadVersion { found } => {
                write!(f, "unsupported index format version {found} (expected {FORMAT_VERSION})")
            }
            AnnError::Truncated { needed, have } => {
                write!(f, "truncated index file: needed {needed} bytes, have {have}")
            }
            AnnError::CrcMismatch { expected, found } => write!(
                f,
                "index payload checksum mismatch: header says {expected:#010x}, payload hashes to {found:#010x}"
            ),
            AnnError::Malformed(what) => write!(f, "malformed index: {what}"),
            AnnError::DeadlineExpired => write!(f, "ann search deadline expired"),
            AnnError::Io(e) => write!(f, "index i/o: {e}"),
        }
    }
}

impl std::error::Error for AnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AnnError {
    fn from(e: std::io::Error) -> Self {
        AnnError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE) — private copy so the crate stays dependency-free
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3) over `bytes` — same polynomial as the checkpoint
/// framing in `sarn-core`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Build-time parameters of an HNSW index. Two indexes are only
/// interchangeable (e.g. a sidecar file may only be adopted) when their
/// configs compare equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on layers above 0 (layer 0 allows `2*m`).
    pub m: usize,
    /// Beam width used while inserting.
    pub ef_construction: usize,
    /// Seed for the deterministic level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            seed: 42,
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate ordering
// ---------------------------------------------------------------------------

/// A scored candidate with the crate-wide strict total order:
/// `a > b` iff `a.score > b.score`, ties broken by *smaller* id being
/// greater. Sorting descending therefore yields
/// `(score desc, id asc)` — the exact scan's order.
#[derive(Clone, Copy, Debug)]
struct Cand {
    score: f32,
    id: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.score.to_bits() == other.score.to_bits() && self.id == other.id
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

/// A deterministic HNSW graph over externally scored points.
///
/// The index stores only graph structure (levels and adjacency); the
/// caller supplies similarity scores through closures, so the same
/// index can be driven by any kernel that is consistent with the one
/// used at build time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HnswIndex {
    cfg: HnswConfig,
    dim: usize,
    /// CRC32 of the embedding bytes this index was built over — used by
    /// consumers to detect a sidecar that no longer matches its matrix.
    data_crc: u32,
    /// Level of each node (number of layers above 0 it appears in).
    levels: Vec<u8>,
    /// `neighbors[node][layer]` — adjacency per node per layer,
    /// `0..=levels[node]`.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: u8,
}

impl HnswIndex {
    /// An empty index ready for sequential [`HnswIndex::insert`]s.
    pub fn new(cfg: HnswConfig, dim: usize, data_crc: u32) -> Self {
        Self {
            cfg,
            dim,
            data_crc,
            levels: Vec::new(),
            neighbors: Vec::new(),
            entry: 0,
            max_level: 0,
        }
    }

    /// Builds an index over `n` points by inserting ids `0..n` in
    /// order. `score(a, b)` must return the similarity of points `a`
    /// and `b` (higher = closer) and be symmetric and deterministic.
    pub fn build(
        cfg: HnswConfig,
        dim: usize,
        data_crc: u32,
        n: usize,
        score: &mut dyn FnMut(usize, usize) -> f32,
    ) -> Self {
        let mut index = Self::new(cfg, dim, data_crc);
        for _ in 0..n {
            index.insert(score);
        }
        index
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Embedding dimension recorded at build time.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// CRC32 of the embedding bytes recorded at build time.
    pub fn data_crc(&self) -> u32 {
        self.data_crc
    }

    /// Build parameters.
    pub fn config(&self) -> HnswConfig {
        self.cfg
    }

    /// The deterministic level of node `id`: geometric with ratio
    /// `1/m`, derived from `splitmix64(seed ^ splitmix64(id))` alone.
    fn level_for(&self, id: usize) -> u8 {
        let h = splitmix64(self.cfg.seed ^ splitmix64(id as u64));
        // 53 high bits -> u in (0, 1]; u = 1 maps to level 0.
        let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let denom = (self.cfg.m.max(2) as f64).ln();
        let level = (-u.ln() / denom).floor();
        if level >= MAX_LEVEL_CAP as f64 {
            MAX_LEVEL_CAP
        } else {
            level as u8
        }
    }

    /// Inserts the next point (its id is the current [`HnswIndex::len`])
    /// and returns that id. `score(a, b)` is the similarity of points
    /// `a` and `b`; during this call `a` or `b` may be the new id.
    pub fn insert(&mut self, score: &mut dyn FnMut(usize, usize) -> f32) -> usize {
        let id = self.levels.len();
        let id32 = u32::try_from(id).expect("HNSW index holds at most u32::MAX points");
        let level = self.level_for(id);
        self.levels.push(level);
        self.neighbors.push(vec![Vec::new(); level as usize + 1]);
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return id;
        }

        let mut ep = Cand {
            score: score(id, self.entry as usize),
            id: self.entry,
        };
        // Greedy descent through layers above the new node's level.
        for layer in ((level as usize + 1)..=(self.max_level as usize)).rev() {
            ep = self
                .greedy_at(layer, ep, &mut |x| score(id, x), None)
                .unwrap_or(ep); // unbounded: never expires
        }
        // Beam + connect on the shared layers, top down.
        for layer in (0..=(level.min(self.max_level) as usize)).rev() {
            let w = self
                .beam(
                    layer,
                    ep,
                    self.cfg.ef_construction.max(1),
                    &mut |x| score(id, x),
                    None,
                )
                .unwrap_or_default(); // unbounded: never expires
            let cap = if layer == 0 {
                self.cfg.m * 2
            } else {
                self.cfg.m
            };
            let selected = select_diverse(&w, self.cfg.m, score);
            for &nb in &selected {
                let list = &mut self.neighbors[nb as usize][layer];
                list.push(id32);
                if list.len() > cap {
                    // Shrink the overflowing neighbor with the same
                    // diversity heuristic, scored from its own viewpoint
                    // — a naive closest-first prune would evict the
                    // bridge edges that keep clusters reachable.
                    let mut scored: Vec<Cand> = list
                        .iter()
                        .map(|&x| Cand {
                            score: score(nb as usize, x as usize),
                            id: x,
                        })
                        .collect();
                    scored.sort_unstable_by(|a, b| b.cmp(a));
                    *list = select_diverse(&scored, cap, score);
                }
            }
            self.neighbors[id][layer] = selected;
            if let Some(best) = w.first() {
                ep = *best;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id32;
        }
        id
    }

    /// k nearest neighbors of an external query by descending score,
    /// ties by ascending id — the exact scan's order. `score(x)` is the
    /// query's similarity to indexed point `x`. Passing
    /// `Some(expires_at)` bounds the walk: once `Instant::now()`
    /// passes it, the search stops with [`AnnError::DeadlineExpired`]
    /// (callers fall back to their exact path).
    pub fn search_with_deadline(
        &self,
        score: &mut dyn FnMut(usize) -> f32,
        k: usize,
        ef_search: usize,
        expires_at: Option<Instant>,
    ) -> Result<Vec<(usize, f32)>, AnnError> {
        if self.levels.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        let mut ep = Cand {
            score: score(self.entry as usize),
            id: self.entry,
        };
        for layer in (1..=(self.max_level as usize)).rev() {
            ep = self.greedy_at(layer, ep, score, expires_at)?;
        }
        let w = self.beam(0, ep, ef_search.max(k), score, expires_at)?;
        Ok(w.into_iter()
            .take(k)
            .map(|c| (c.id as usize, c.score))
            .collect())
    }

    /// Greedy best-neighbor descent within one layer.
    fn greedy_at(
        &self,
        layer: usize,
        mut best: Cand,
        score: &mut dyn FnMut(usize) -> f32,
        expires_at: Option<Instant>,
    ) -> Result<Cand, AnnError> {
        loop {
            check_deadline(expires_at)?;
            let mut improved = false;
            for &nb in &self.neighbors[best.id as usize][layer] {
                let c = Cand {
                    score: score(nb as usize),
                    id: nb,
                };
                if c > best {
                    best = c;
                    improved = true;
                }
            }
            if !improved {
                return Ok(best);
            }
        }
    }

    /// ef-bounded beam search within one layer, seeded at `ep`.
    /// Returns up to `ef` candidates sorted by the strict order,
    /// descending (best first).
    fn beam(
        &self,
        layer: usize,
        ep: Cand,
        ef: usize,
        score: &mut dyn FnMut(usize) -> f32,
        expires_at: Option<Instant>,
    ) -> Result<Vec<Cand>, AnnError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut visited = vec![false; self.levels.len()];
        visited[ep.id as usize] = true;
        let mut candidates: BinaryHeap<Cand> = BinaryHeap::new();
        // Min-heap: the top is the *worst* kept result (lowest score,
        // largest id among ties), so eviction keeps smaller ids.
        let mut results: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        candidates.push(ep);
        results.push(Reverse(ep));
        while let Some(c) = candidates.pop() {
            check_deadline(expires_at)?;
            if results.len() >= ef {
                if let Some(&Reverse(worst)) = results.peek() {
                    if c < worst {
                        break;
                    }
                }
            }
            for &nb in &self.neighbors[c.id as usize][layer] {
                let nb = nb as usize;
                if visited[nb] {
                    continue;
                }
                visited[nb] = true;
                let cand = Cand {
                    score: score(nb),
                    id: nb as u32,
                };
                let admit = if results.len() < ef {
                    true
                } else {
                    results.peek().is_some_and(|&Reverse(worst)| cand > worst)
                };
                if admit {
                    candidates.push(cand);
                    results.push(Reverse(cand));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Cand> = results.into_iter().map(|Reverse(c)| c).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        Ok(out)
    }

    // ---- serialization ---------------------------------------------------

    /// Serializes the index as a CRC-framed byte buffer:
    /// `MAGIC | version | payload_len | crc32(payload) | payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.cfg.m as u32).to_le_bytes());
        payload.extend_from_slice(&(self.cfg.ef_construction as u32).to_le_bytes());
        payload.extend_from_slice(&self.cfg.seed.to_le_bytes());
        payload.extend_from_slice(&self.data_crc.to_le_bytes());
        payload.extend_from_slice(&(self.levels.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(self.dim as u64).to_le_bytes());
        payload.extend_from_slice(&self.entry.to_le_bytes());
        payload.push(self.max_level);
        payload.extend_from_slice(&self.levels);
        for lists in &self.neighbors {
            for list in lists {
                payload.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for &id in list {
                    payload.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a buffer produced by [`HnswIndex::to_bytes`], validating
    /// the frame, checksum, and internal consistency. Every corruption
    /// mode returns a typed [`AnnError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AnnError> {
        if bytes.len() < 24 {
            return Err(AnnError::Truncated {
                needed: 24,
                have: bytes.len(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(AnnError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(AnnError::BadVersion { found: version });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let expected_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        let total = 24usize.saturating_add(payload_len);
        if bytes.len() < total {
            return Err(AnnError::Truncated {
                needed: total,
                have: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(AnnError::Malformed(format!(
                "{} trailing bytes after the framed payload",
                bytes.len() - total
            )));
        }
        let payload = &bytes[24..total];
        let found_crc = crc32(payload);
        if found_crc != expected_crc {
            return Err(AnnError::CrcMismatch {
                expected: expected_crc,
                found: found_crc,
            });
        }
        let mut cur = Cursor::new(payload);
        let m = cur.read_u32()? as usize;
        let ef_construction = cur.read_u32()? as usize;
        let seed = cur.read_u64()?;
        let data_crc = cur.read_u32()?;
        let n = usize::try_from(cur.read_u64()?)
            .map_err(|_| AnnError::Malformed("point count overflows usize".into()))?;
        let dim = usize::try_from(cur.read_u64()?)
            .map_err(|_| AnnError::Malformed("dimension overflows usize".into()))?;
        let entry = cur.read_u32()?;
        let max_level = cur.read_u8()?;
        if m < 2 {
            return Err(AnnError::Malformed(format!(
                "m = {m} is below the minimum of 2"
            )));
        }
        let levels = cur.read_bytes(n)?.to_vec();
        if n > 0 {
            if entry as usize >= n {
                return Err(AnnError::Malformed(format!(
                    "entry point {entry} out of range for {n} points"
                )));
            }
            let top = levels.iter().copied().max().unwrap_or(0);
            if top != max_level {
                return Err(AnnError::Malformed(format!(
                    "recorded max level {max_level} but levels peak at {top}"
                )));
            }
            if levels[entry as usize] != max_level {
                return Err(AnnError::Malformed(format!(
                    "entry point {entry} sits at level {}, not the max level {max_level}",
                    levels[entry as usize]
                )));
            }
        }
        let mut neighbors = Vec::with_capacity(n);
        for (node, &level) in levels.iter().enumerate() {
            let mut lists = Vec::with_capacity(level as usize + 1);
            for _ in 0..=level {
                let count = cur.read_u32()? as usize;
                if count > n {
                    return Err(AnnError::Malformed(format!(
                        "node {node} claims {count} neighbors in a {n}-point index"
                    )));
                }
                let mut list = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = cur.read_u32()?;
                    if id as usize >= n {
                        return Err(AnnError::Malformed(format!(
                            "node {node} links to out-of-range id {id}"
                        )));
                    }
                    list.push(id);
                }
                lists.push(list);
            }
            neighbors.push(lists);
        }
        if !cur.at_end() {
            return Err(AnnError::Malformed(format!(
                "{} undecoded bytes inside the payload",
                cur.remaining()
            )));
        }
        Ok(Self {
            cfg: HnswConfig {
                m,
                ef_construction,
                seed,
            },
            dim,
            data_crc,
            levels,
            neighbors,
            entry,
            max_level,
        })
    }

    /// Writes the serialized index to `path` atomically: the bytes go
    /// to a temp sibling first and are fsynced, then a rename publishes
    /// them, so a crashed writer leaves either the old file or none —
    /// never a torn frame at the final path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), AnnError> {
        let path = path.as_ref();
        let file_name = path
            .file_name()
            .ok_or_else(|| AnnError::Malformed(format!("{} has no file name", path.display())))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes an index file written by [`HnswIndex::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, AnnError> {
        let bytes = std::fs::read(path.as_ref())?;
        Self::from_bytes(&bytes)
    }
}

/// Neighbor selection with the HNSW diversity heuristic (Algorithm 4
/// of the paper): walking candidates best-first, a candidate is kept
/// only while it is at least as close to the anchor as to every
/// already-kept neighbor — which is what grows bridge edges across
/// clusters instead of intra-cluster cliques. Ties keep (`>=`, not
/// `>`): an exact-duplicate row scores identically against the anchor
/// and against its twin, and rejecting it would shear off the very
/// clique edges duplicate-heavy data needs for top-k correctness.
/// Rejected candidates backfill remaining slots
/// (`keepPrunedConnections`), preserving degree and connectivity.
/// `w` must be sorted best-first with `w[i].score` the candidate's
/// similarity to the anchor; `score` is the pairwise kernel. Fully
/// deterministic: fixed iteration order, pure comparisons.
fn select_diverse(w: &[Cand], m: usize, score: &mut dyn FnMut(usize, usize) -> f32) -> Vec<u32> {
    let mut selected: Vec<Cand> = Vec::with_capacity(m);
    let mut rejected: Vec<u32> = Vec::new();
    for &c in w {
        if selected.len() >= m {
            break;
        }
        let diverse = selected
            .iter()
            .all(|s| c.score >= score(c.id as usize, s.id as usize));
        if diverse {
            selected.push(c);
        } else {
            rejected.push(c.id);
        }
    }
    let mut out: Vec<u32> = selected.iter().map(|c| c.id).collect();
    for id in rejected {
        if out.len() >= m {
            break;
        }
        out.push(id);
    }
    out
}

fn check_deadline(expires_at: Option<Instant>) -> Result<(), AnnError> {
    match expires_at {
        Some(t) if Instant::now() >= t => Err(AnnError::DeadlineExpired),
        _ => Ok(()),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Little-endian field reader with typed truncation errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], AnnError> {
        let end = self.pos.checked_add(n).ok_or(AnnError::Truncated {
            needed: usize::MAX,
            have: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(AnnError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn read_u8(&mut self) -> Result<u8, AnnError> {
        Ok(self.read_bytes(1)?[0])
    }

    fn read_u32(&mut self) -> Result<u32, AnnError> {
        Ok(u32::from_le_bytes(
            self.read_bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64, AnnError> {
        Ok(u64::from_le_bytes(
            self.read_bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random unit-ish vectors.
    fn points(n: usize, dim: usize, salt: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let h = splitmix64(salt ^ (i as u64) << 20 ^ d as u64);
                        ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        dot / (na * nb)
    }

    fn build_over(pts: &[Vec<f32>], cfg: HnswConfig) -> HnswIndex {
        HnswIndex::build(cfg, pts[0].len(), 0, pts.len(), &mut |a, b| {
            cosine(&pts[a], &pts[b])
        })
    }

    fn exact_topk(pts: &[Vec<f32>], q: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut scored: Vec<(usize, f32)> =
            (0..pts.len()).map(|i| (i, cosine(q, &pts[i]))).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    #[test]
    fn empty_index_returns_no_neighbors() {
        let idx = HnswIndex::new(HnswConfig::default(), 4, 0);
        let out = idx
            .search_with_deadline(&mut |_| 0.0, 5, 64, None)
            .expect("empty search");
        assert!(out.is_empty());
    }

    #[test]
    fn search_is_exact_on_a_small_fully_connected_set() {
        let pts = points(40, 8, 7);
        let idx = build_over(&pts, HnswConfig::default());
        for qi in 0..pts.len() {
            let q = pts[qi].clone();
            let got = idx
                .search_with_deadline(&mut |x| cosine(&q, &pts[x]), 5, pts.len(), None)
                .expect("search");
            let want = exact_topk(&pts, &q, 5);
            assert_eq!(got, want, "query {qi}");
        }
    }

    #[test]
    fn ties_break_by_ascending_id_like_the_exact_scan() {
        // All points identical: every score ties, so top-k must be the
        // smallest ids in ascending order.
        let pts: Vec<Vec<f32>> = (0..30).map(|_| vec![0.5f32, -0.25, 0.125]).collect();
        let idx = build_over(&pts, HnswConfig::default());
        let q = pts[0].clone();
        let got = idx
            .search_with_deadline(&mut |x| cosine(&q, &pts[x]), 10, pts.len(), None)
            .expect("search");
        let ids: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn build_is_deterministic_bitwise() {
        let pts = points(120, 12, 99);
        let cfg = HnswConfig {
            m: 8,
            ef_construction: 60,
            seed: 1234,
        };
        let a = build_over(&pts, cfg);
        let b = build_over(&pts, cfg);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        // A different seed reshuffles levels (and so, in general, bytes).
        let c = build_over(&pts, HnswConfig { seed: 4321, ..cfg });
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn serialization_roundtrips_bitwise() {
        let pts = points(80, 6, 3);
        let idx = build_over(&pts, HnswConfig::default());
        let bytes = idx.to_bytes();
        let back = HnswIndex::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(idx, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn torn_and_corrupt_files_fail_typed_never_panic() {
        let pts = points(50, 4, 11);
        let idx = build_over(&pts, HnswConfig::default());
        let bytes = idx.to_bytes();

        assert!(matches!(
            HnswIndex::from_bytes(&bytes[..10]),
            Err(AnnError::Truncated { .. })
        ));
        assert!(matches!(
            HnswIndex::from_bytes(&bytes[..bytes.len() - 3]),
            Err(AnnError::Truncated { .. })
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            HnswIndex::from_bytes(&bad_magic),
            Err(AnnError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            HnswIndex::from_bytes(&bad_version),
            Err(AnnError::BadVersion { .. })
        ));
        let mut flipped = bytes.clone();
        let mid = 24 + (bytes.len() - 24) / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            HnswIndex::from_bytes(&flipped),
            Err(AnnError::CrcMismatch { .. })
        ));
        // Every truncation point fails typed (no slicing panic).
        for cut in 0..bytes.len() {
            assert!(HnswIndex::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn save_load_roundtrips_through_a_file() {
        let pts = points(60, 5, 21);
        let idx = build_over(&pts, HnswConfig::default());
        let dir = std::env::temp_dir().join(format!("sarn_ann_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("index.hnsw");
        idx.save(&path).expect("save");
        let back = HnswIndex::load(&path).expect("load");
        assert_eq!(idx, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_deadline_fails_typed() {
        let pts = points(200, 8, 5);
        let idx = build_over(&pts, HnswConfig::default());
        let q = pts[0].clone();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let out = idx.search_with_deadline(&mut |x| cosine(&q, &pts[x]), 5, 64, Some(past));
        assert!(matches!(out, Err(AnnError::DeadlineExpired)));
    }

    #[test]
    fn levels_are_a_pure_function_of_seed_and_id() {
        let a = HnswIndex::new(HnswConfig::default(), 4, 0);
        let b = HnswIndex::new(HnswConfig::default(), 4, 0);
        for id in 0..1000 {
            assert_eq!(a.level_for(id), b.level_for(id));
        }
        // The geometric tail is thin: levels stay small and level 0
        // dominates.
        let zeros = (0..1000).filter(|&id| a.level_for(id) == 0).count();
        assert!(zeros > 800, "level 0 should dominate, got {zeros}/1000");
    }
}
