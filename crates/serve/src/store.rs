//! The generation-swapping embedding store.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use sarn_core::{embedding_defect, SarnTrained};
use sarn_roadnet::RoadNetwork;
use sarn_tensor::{Tensor, TensorExpectation};

use crate::config::{LoadFault, ServeConfig};
use crate::deadline::Deadline;
use crate::error::ServeError;

/// Rows scanned between deadline probes inside the exact k-NN scans.
const DEADLINE_CHECK_EVERY: usize = 256;

/// One immutable, published embedding snapshot.
///
/// Readers obtain a `Arc<Generation>` and compute entirely against it; a
/// concurrent reload can only swap the pointer to a *new* generation, so
/// a query never observes half of one matrix and half of another.
#[derive(Debug)]
pub struct Generation {
    number: u64,
    embeddings: Tensor,
    /// Per-row L2 norms, precomputed at admission for cosine scoring.
    norms: Vec<f32>,
    /// When this generation was published.
    admitted_at: Instant,
    /// The generation's HNSW index, installed at most once — either
    /// adopted from a validated sidecar at admission, inherited from
    /// the previous generation over identical bytes, or published by
    /// the detached background builder.
    index: OnceLock<Arc<sarn_ann::HnswIndex>>,
    /// [`IndexState`] discriminant (`INDEX_*` constants). Written with
    /// release ordering after `index` is set, so an acquire load seeing
    /// `READY` is guaranteed to find the index installed.
    index_state: AtomicU8,
    /// Wall-clock milliseconds the build took (0 when adopted from a
    /// sidecar file).
    index_build_ms: AtomicU64,
}

const INDEX_NONE: u8 = 0;
const INDEX_BUILDING: u8 = 1;
const INDEX_READY: u8 = 2;
const INDEX_FELL_BACK: u8 = 3;

/// Where a generation's ANN index is in its lifecycle — surfaced per
/// shard in [`HealthReport`] so operators can see which shards still
/// answer k-NN by linear scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexState {
    /// No index: the generation is below [`crate::ServeConfig::ann_threshold`]
    /// rows or the ANN subsystem is disabled. k-NN is the exact scan.
    None,
    /// The background builder is still constructing the index; k-NN
    /// serves by exact scan until it finishes.
    Building,
    /// The index is live: ANN-backed k-NN with exact-rescan fallback.
    Ready {
        /// Wall-clock milliseconds the build took (0 when the index
        /// was adopted from a sidecar file instead of built in-process).
        build_ms: u64,
    },
    /// An index sidecar was corrupt or mismatched at reload: the
    /// generation serves by exact scan and will not retry until the
    /// next successful reload.
    FellBack,
}

impl Generation {
    fn new(number: u64, embeddings: Tensor) -> Self {
        let norms = (0..embeddings.rows())
            .map(|i| {
                sarn_tensor::kernels::squared_norm(embeddings.row_slice(i))
                    .sqrt()
                    .max(1e-12)
            })
            .collect();
        Self {
            number,
            embeddings,
            norms,
            admitted_at: Instant::now(),
            index: OnceLock::new(),
            index_state: AtomicU8::new(INDEX_NONE),
            index_build_ms: AtomicU64::new(0),
        }
    }

    /// Where this generation's ANN index is in its lifecycle.
    pub fn index_state(&self) -> IndexState {
        match self.index_state.load(AtomicOrdering::Acquire) {
            INDEX_BUILDING => IndexState::Building,
            INDEX_READY => IndexState::Ready {
                build_ms: self.index_build_ms.load(AtomicOrdering::Relaxed),
            },
            INDEX_FELL_BACK => IndexState::FellBack,
            _ => IndexState::None,
        }
    }

    /// The live index, only once it is [`IndexState::Ready`].
    pub(crate) fn ann_index(&self) -> Option<Arc<sarn_ann::HnswIndex>> {
        if self.index_state.load(AtomicOrdering::Acquire) == INDEX_READY {
            self.index.get().cloned()
        } else {
            None
        }
    }

    fn mark_building(&self) {
        self.index_state
            .store(INDEX_BUILDING, AtomicOrdering::Release);
    }

    fn mark_fell_back(&self) {
        self.index_state
            .store(INDEX_FELL_BACK, AtomicOrdering::Release);
    }

    /// Publishes an index for this generation. First caller wins; the
    /// `READY` flag is stored *after* the `OnceLock` is set, so readers
    /// that observe `Ready` always find the index.
    fn install_index(&self, index: Arc<sarn_ann::HnswIndex>, build_ms: u64) {
        if self.index.set(index).is_ok() {
            self.index_build_ms.store(build_ms, AtomicOrdering::Relaxed);
            self.index_state.store(INDEX_READY, AtomicOrdering::Release);
        }
    }

    /// Monotonic generation number (1 for the first admitted artifact).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// How long this generation has been the published one.
    pub fn age(&self) -> Duration {
        self.admitted_at.elapsed()
    }

    /// The `n x d` embedding matrix.
    pub fn embeddings(&self) -> &Tensor {
        &self.embeddings
    }

    /// Cosine similarity between two rows, through the shared
    /// [`sarn_tensor::kernels`] dot kernel (the same left-to-right sum
    /// training uses) against the precomputed norms.
    fn similarity(&self, a: usize, b: usize) -> f32 {
        let dot =
            sarn_tensor::kernels::dot(self.embeddings.row_slice(a), self.embeddings.row_slice(b));
        dot / (self.norms[a] * self.norms[b])
    }

    /// Precomputed L2 norm of one row — what [`Generation::similarity`]
    /// divides by. The shard router reads the query row's norm here so
    /// fan-out scoring divides by the *same* f32 the single store would.
    pub fn row_norm(&self, row: usize) -> f32 {
        self.norms[row]
    }

    /// Cosine similarity of an external query vector (with its
    /// precomputed norm) against row `b` — the fan-out analogue of
    /// [`Generation::similarity`] with the query in the `a` position.
    /// Same dot kernel, same operand order, same norm product order, so
    /// when `query`/`query_norm` hold the bytes of some row `a` the
    /// result is bitwise identical to `similarity(a, b)`.
    pub fn similarity_to_vector(&self, query: &[f32], query_norm: f32, b: usize) -> f32 {
        let dot = sarn_tensor::kernels::dot(query, self.embeddings.row_slice(b));
        dot / (query_norm * self.norms[b])
    }
}

/// Where the store is in its lifecycle, derived for a [`HealthReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeState {
    /// No generation admitted yet; every query is [`ServeError::NotReady`].
    Loading,
    /// Serving the named generation; the last reload (if any) succeeded.
    Serving {
        /// Generation currently answering queries.
        generation: u64,
    },
    /// Still serving the named (stale) generation, but the most recent
    /// reload attempt(s) failed.
    Degraded {
        /// Stale generation still answering queries.
        generation: u64,
        /// Reload failures since the last successful admission.
        consecutive_failures: u32,
    },
    /// At the in-flight ceiling: new requests are being shed.
    Shedding {
        /// Generation currently answering the admitted requests.
        generation: u64,
    },
    /// Still serving, but the live generation's age has crossed the
    /// staleness SLO ([`ServeConfig::max_staleness`]). Queries keep
    /// succeeding — stale answers beat no answers — and a fresh admission
    /// clears the state.
    Stale {
        /// Over-age generation still answering queries.
        generation: u64,
        /// Its age when the report was taken.
        age: Duration,
    },
}

/// Point-in-time health of an [`EmbeddingStore`] — the serving analogue
/// of the training watchdog's divergence report, emitted instead of a
/// panic whenever the store degrades.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Derived lifecycle state (see DESIGN.md §10).
    pub state: ServeState,
    /// Currently served generation, if any.
    pub generation: Option<u64>,
    /// Reload failures since the last successful admission.
    pub consecutive_reload_failures: u32,
    /// Successful reloads over the store's lifetime.
    pub reloads_ok: u64,
    /// Failed reloads (after exhausting retries) over the lifetime.
    pub reloads_failed: u64,
    /// Message of the most recent reload failure, if any.
    pub last_reload_error: Option<String>,
    /// Requests currently holding admission tickets.
    pub inflight: usize,
    /// Requests shed with [`ServeError::Overloaded`] over the lifetime.
    pub shed_total: u64,
    /// Successfully answered requests.
    pub served_total: u64,
    /// Time since the store was built.
    pub uptime: Duration,
    /// How long the currently served generation has been live (`None`
    /// while loading) — the staleness signal: a store whose reloads keep
    /// failing shows a growing age next to its climbing failure counters.
    pub generation_age: Option<Duration>,
    /// ANN index lifecycle of the served generation. For a sharded
    /// report this aggregates pessimistically: `FellBack` if any shard
    /// fell back, else `Building` if any is still building, else
    /// `Ready` (slowest build) when every shard has an index, else
    /// `None`.
    pub index: IndexState,
    /// Point-in-time copy of the process-wide telemetry registry
    /// (`None` while telemetry is disabled).
    pub metrics: Option<sarn_obs::Snapshot>,
    /// Per-shard health when this report comes from a sharded router
    /// (empty for a single store). The aggregate `state` is then the
    /// *worst* shard's state, and each entry carries that shard's own
    /// generation, age, and breaker position — the staleness SLO fires
    /// per shard, so one stuck shard degrades the whole report even while
    /// its siblings stay fresh.
    pub shards: Vec<ShardHealth>,
}

/// One shard's slice of a sharded [`HealthReport`].
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// Shard index within the router.
    pub shard: usize,
    /// The shard store's own lifecycle state (staleness SLO included).
    pub state: ServeState,
    /// Generation this shard currently serves, if any.
    pub generation: Option<u64>,
    /// Age of that generation.
    pub generation_age: Option<Duration>,
    /// Where the shard's circuit breaker is in its closed → open →
    /// half-open cycle.
    pub breaker: crate::breaker::BreakerState,
    /// Consecutive typed failures the breaker has counted.
    pub consecutive_failures: u32,
    /// Number of segments (global ids) this shard owns.
    pub segments: usize,
    /// ANN index lifecycle of this shard's served generation — which
    /// shards are still answering k-NN by linear scan.
    pub index: IndexState,
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.shards.is_empty() {
            write!(f, "[{} shards] ", self.shards.len())?;
        }
        write!(
            f,
            "{:?}: served {}, shed {}, reloads {}/{} ok, inflight {}, \
             up {:.1}s, generation age {}",
            self.state,
            self.served_total,
            self.shed_total,
            self.reloads_ok,
            self.reloads_ok + self.reloads_failed,
            self.inflight,
            self.uptime.as_secs_f64(),
            match self.generation_age {
                Some(age) => format!("{:.1}s", age.as_secs_f64()),
                None => "n/a".to_string(),
            },
        )
    }
}

/// A k-nearest-neighbor answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Knn {
    /// `(segment id, cosine similarity)`, most similar first; ties break
    /// on ascending id so answers are deterministic.
    pub neighbors: Vec<(usize, f32)>,
    /// Generation the answer was computed against.
    pub generation: u64,
    /// `true` when the answer came from the HNSW index rather than an
    /// exact scan.
    pub ann: bool,
}

/// RAII admission ticket: holds one slot of an in-flight budget (a
/// store's, or the router's) until dropped. Exposed so tests and benches
/// can saturate the store deterministically; query methods acquire one
/// internally.
pub struct Ticket<'a> {
    inflight: &'a AtomicUsize,
}

impl<'a> Ticket<'a> {
    /// Claims one slot of `inflight` while it is below `max_inflight`;
    /// at the ceiling, returns the in-flight count it saw. The caller
    /// counts and journals its own shed.
    pub(crate) fn claim(inflight: &'a AtomicUsize, max_inflight: usize) -> Result<Self, usize> {
        let mut cur = inflight.load(AtomicOrdering::Acquire);
        loop {
            if cur >= max_inflight {
                return Err(cur);
            }
            match inflight.compare_exchange_weak(
                cur,
                cur + 1,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
            ) {
                Ok(_) => return Ok(Ticket { inflight }),
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, AtomicOrdering::AcqRel);
    }
}

#[derive(Debug, Default)]
struct ReloadLog {
    consecutive_failures: u32,
    reloads_ok: u64,
    reloads_failed: u64,
    last_error: Option<String>,
}

/// Recovers a poisoned mutex: the store's and the router's invariants are
/// all on atomics or behind complete replacement (generation swap, fault
/// slot), so the data behind a poisoned lock is still coherent and
/// serving must continue.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Concurrency-safe embedding store: validated admission, generation
/// publishing behind an `Arc` swap, hot reload with last-known-good
/// fallback, and deadline/overload-guarded query paths.
pub struct EmbeddingStore {
    cfg: ServeConfig,
    num_segments: usize,
    dim: usize,
    current: RwLock<Option<Arc<Generation>>>,
    reload_log: Mutex<ReloadLog>,
    fault: Mutex<Option<LoadFault>>,
    /// Latched on the first health check that observes an SLO breach for
    /// the current generation, so the breach is journaled and counted
    /// once per generation rather than once per probe; a fresh admission
    /// re-arms it.
    stale_flagged: std::sync::atomic::AtomicBool,
    inflight: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    started: Instant,
}

impl EmbeddingStore {
    /// Builds a store serving `num_segments` embeddings (segment ids
    /// `0..num_segments`) of dimension `dim`.
    pub fn new(num_segments: usize, dim: usize, cfg: ServeConfig) -> Result<Self, ServeError> {
        if num_segments == 0 {
            return Err(ServeError::Load(sarn_tensor::IoError::LayoutMismatch(
                "a store needs at least one segment".into(),
            )));
        }
        Ok(Self {
            cfg,
            num_segments,
            dim,
            current: RwLock::new(None),
            reload_log: Mutex::new(ReloadLog::default()),
            fault: Mutex::new(None),
            stale_flagged: std::sync::atomic::AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// [`EmbeddingStore::new`] over a road network's segments.
    pub fn for_network(
        net: &RoadNetwork,
        dim: usize,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::new(net.num_segments(), dim, cfg)
    }

    /// The knobs this store was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Number of segments served (expected artifact row count).
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Embedding dimension served (expected artifact column count).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// A fresh deadline carrying the configured default budget.
    pub fn deadline(&self) -> Deadline {
        Deadline::from_budget(self.cfg.default_deadline)
    }

    // ---- generation publishing -----------------------------------------

    /// The currently served generation, if any. Clones an `Arc` under a
    /// briefly-held read lock; all loading and validation happens outside
    /// any lock, so this never waits on a reload's I/O.
    pub fn snapshot(&self) -> Option<Arc<Generation>> {
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Number of the currently served generation, if any.
    pub fn generation(&self) -> Option<u64> {
        self.snapshot().map(|g| g.number())
    }

    /// Validates an in-memory embedding matrix and, if admissible,
    /// publishes it as the next generation, atomically flipping every
    /// subsequent query to it. On rejection the previous generation keeps
    /// serving untouched.
    ///
    /// Admission = shape pinned to `num_segments x dim` plus the shared
    /// per-row screen ([`sarn_core::embedding_defect`]) that also guards
    /// the training watchdog's negative queues.
    pub fn admit(&self, embeddings: Tensor) -> Result<u64, ServeError> {
        self.admit_with_index(embeddings, None)
    }

    /// [`EmbeddingStore::admit`] with an optional index seed from a
    /// reload's sidecar validation. Decides the new generation's
    /// [`IndexState`]:
    ///
    /// - a validated sidecar is adopted (`Ready`, `build_ms = 0`);
    /// - a corrupt/mismatched sidecar marks the generation `FellBack`
    ///   (exact scan, no rebuild until the next successful reload) —
    ///   index corruption never fails the embedding reload itself;
    /// - otherwise, when the row count is at or above
    ///   [`ServeConfig::ann_threshold`], the previous generation's
    ///   index is inherited if it is `Ready` and the bytes are
    ///   bitwise identical, else a detached background build starts
    ///   (`Building`; k-NN serves by exact scan until it finishes).
    fn admit_with_index(
        &self,
        embeddings: Tensor,
        seed: Option<IndexSeed>,
    ) -> Result<u64, ServeError> {
        let shape = TensorExpectation {
            rows: Some(self.num_segments()),
            cols: Some(self.dim),
            finite: false, // finiteness runs through the shared row screen below
        };
        shape.validate(&embeddings)?;
        for row in 0..embeddings.rows() {
            if let Some(defect) = embedding_defect(embeddings.row_slice(row), self.dim) {
                return Err(ServeError::CorruptRow { row, defect });
            }
        }
        let eligible = self.ann_eligible(embeddings.rows());
        // Inheritance probe outside the write lock: if the previous
        // generation has a ready index over the very same bytes, reuse
        // it instead of rebuilding (the incremental-edit fast path).
        let inherit = if eligible && seed.is_none() {
            self.snapshot().and_then(|prev| {
                let same = prev.embeddings().data().len() == embeddings.data().len()
                    && prev
                        .embeddings()
                        .data()
                        .iter()
                        .zip(embeddings.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    prev.ann_index().map(|idx| {
                        let build_ms = match prev.index_state() {
                            IndexState::Ready { build_ms } => build_ms,
                            _ => 0,
                        };
                        (idx, build_ms)
                    })
                } else {
                    None
                }
            })
        } else {
            None
        };
        let mut current = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let number = current.as_ref().map_or(0, |g| g.number()) + 1;
        let gen = Arc::new(Generation::new(number, embeddings));
        let mut build = false;
        match seed {
            Some(IndexSeed::Loaded(idx)) => gen.install_index(Arc::new(idx), 0),
            Some(IndexSeed::FellBack(reason)) => {
                gen.mark_fell_back();
                sarn_obs::counter!("sarn_serve_ann_fallback_total").inc();
                sarn_obs::record(sarn_obs::Event::AnnFallback {
                    generation: number,
                    reason,
                });
            }
            None if eligible => match inherit {
                Some((idx, build_ms)) => gen.install_index(idx, build_ms),
                None => {
                    gen.mark_building();
                    build = true;
                }
            },
            None => {}
        }
        *current = Some(Arc::clone(&gen));
        drop(current);
        let mut log = lock_recovering(&self.reload_log);
        log.consecutive_failures = 0;
        drop(log);
        // A fresh generation re-arms the one-shot staleness latch.
        self.stale_flagged.store(false, AtomicOrdering::Release);
        sarn_obs::gauge("sarn_serve_generation").set(number as f64);
        if build {
            spawn_index_build(gen, self.hnsw_config());
        }
        Ok(number)
    }

    /// Whether a generation of `rows` rows gets an ANN index.
    fn ann_eligible(&self, rows: usize) -> bool {
        self.cfg.ann_threshold != usize::MAX && rows >= self.cfg.ann_threshold
    }

    /// The HNSW parameters every index of this store is built with.
    fn hnsw_config(&self) -> sarn_ann::HnswConfig {
        sarn_ann::HnswConfig {
            m: self.cfg.ann_m,
            ef_construction: self.cfg.ann_ef_construction,
            seed: self.cfg.ann_seed,
        }
    }

    /// Admits a trained model's embedding matrix directly (no file
    /// round-trip) — the in-process publish path after retraining.
    pub fn admit_trained(&self, trained: &SarnTrained) -> Result<u64, ServeError> {
        self.admit(trained.embeddings.clone())
    }

    // ---- hot reload -----------------------------------------------------

    /// Installs (or clears) an injected load fault for the next reload
    /// attempts.
    pub fn inject_fault(&self, fault: Option<LoadFault>) {
        *lock_recovering(&self.fault) = fault;
    }

    /// Reloads an embedding artifact with bounded retry and exponential
    /// backoff ([`ServeConfig::reload_retries`] /
    /// [`ServeConfig::reload_backoff`]).
    ///
    /// On success the new generation is published atomically and its
    /// number returned. On failure of every attempt — truncated or garbage
    /// file, shape mismatch, corrupt rows, injected faults — the
    /// last-known-good generation keeps serving, the health report turns
    /// degraded, and the final attempt's typed error is returned.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<u64, ServeError> {
        let t0 = Instant::now();
        let path = path.as_ref();
        let mut delay = self.cfg.reload_backoff;
        let mut attempt = 0usize;
        loop {
            match self.load_attempt(path) {
                Ok(number) => {
                    let mut log = lock_recovering(&self.reload_log);
                    log.reloads_ok += 1;
                    log.consecutive_failures = 0;
                    log.last_error = None;
                    drop(log);
                    if sarn_obs::enabled() {
                        let seconds = t0.elapsed().as_secs_f64();
                        sarn_obs::counter!("sarn_serve_reloads_ok_total").inc();
                        sarn_obs::histogram("sarn_serve_reload_seconds").observe(seconds);
                        sarn_obs::record(sarn_obs::Event::ReloadOk {
                            generation: number,
                            seconds,
                        });
                    }
                    return Ok(number);
                }
                Err(e) => {
                    if attempt >= self.cfg.reload_retries {
                        let mut log = lock_recovering(&self.reload_log);
                        log.reloads_failed += 1;
                        log.consecutive_failures += 1;
                        log.last_error = Some(e.to_string());
                        drop(log);
                        sarn_obs::counter!("sarn_serve_reloads_failed_total").inc();
                        sarn_obs::record(sarn_obs::Event::ReloadFailed {
                            attempts: attempt + 1,
                            error: e.to_string(),
                        });
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
            }
        }
    }

    /// One load attempt: injected fault hook, then the validated read,
    /// then admission.
    fn load_attempt(&self, path: &Path) -> Result<u64, ServeError> {
        let (delay_ms, fail) = {
            let mut guard = lock_recovering(&self.fault);
            match guard.as_mut() {
                None => (0, false),
                Some(f) => {
                    let fail = f.fail_loads > 0;
                    if fail {
                        f.fail_loads -= 1;
                    }
                    (f.delay_ms, fail)
                }
            }
        };
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if fail {
            return Err(ServeError::Load(sarn_tensor::IoError::Io(
                std::io::Error::other("injected load fault"),
            )));
        }
        // Shape is validated at the io layer before the bytes ever reach
        // admission; finiteness runs through admit's shared row screen.
        let expect = TensorExpectation {
            rows: Some(self.num_segments()),
            cols: Some(self.dim),
            finite: false,
        };
        let t = Tensor::load_validated(path, &expect)?;
        let seed = self.sidecar_seed(path, &t);
        self.admit_with_index(t, seed)
    }

    /// Probes the `<artifact>.hnsw` sidecar next to a reloading
    /// artifact. Returns `None` when the generation is ANN-ineligible
    /// or no sidecar exists (a background build decides then);
    /// `Loaded` when the sidecar decodes and matches this store's
    /// rows, dimension, HNSW parameters, and data checksum; and
    /// `FellBack` otherwise — index corruption is a guardrail event,
    /// never a reload failure.
    fn sidecar_seed(&self, path: &Path, t: &Tensor) -> Option<IndexSeed> {
        if !self.ann_eligible(t.rows()) {
            return None;
        }
        let sidecar = index_sidecar_path(path);
        if !sidecar.exists() {
            return None;
        }
        match sarn_ann::HnswIndex::load(&sidecar) {
            Ok(idx) => {
                if idx.len() != t.rows() {
                    Some(IndexSeed::FellBack(format!(
                        "index sidecar holds {} points for a {}-row artifact",
                        idx.len(),
                        t.rows()
                    )))
                } else if idx.dim() != self.dim {
                    Some(IndexSeed::FellBack(format!(
                        "index sidecar dimension {} != served dimension {}",
                        idx.dim(),
                        self.dim
                    )))
                } else if idx.config() != self.hnsw_config() {
                    Some(IndexSeed::FellBack(
                        "index sidecar was built with different HNSW parameters".into(),
                    ))
                } else if idx.data_crc() != tensor_data_crc(t) {
                    Some(IndexSeed::FellBack(
                        "index sidecar was built over different embedding bytes".into(),
                    ))
                } else {
                    Some(IndexSeed::Loaded(idx))
                }
            }
            Err(e) => Some(IndexSeed::FellBack(format!("corrupt index sidecar: {e}"))),
        }
    }

    // ---- admission control ----------------------------------------------

    /// Claims one slot of the in-flight budget, shedding with a typed
    /// [`ServeError::Overloaded`] when the ceiling is reached. Query
    /// methods call this internally; it is public so tests and benches can
    /// hold tickets to create deterministic pressure.
    pub fn try_ticket(&self) -> Result<Ticket<'_>, ServeError> {
        let max_inflight = self.cfg.max_inflight;
        Ticket::claim(&self.inflight, max_inflight).map_err(|inflight| {
            self.shed.fetch_add(1, AtomicOrdering::Relaxed);
            sarn_obs::counter!("sarn_serve_shed_total").inc();
            sarn_obs::record(sarn_obs::Event::Shed { inflight });
            ServeError::Overloaded {
                inflight,
                max_inflight,
            }
        })
    }

    fn check_segment(&self, segment: usize) -> Result<(), ServeError> {
        if segment >= self.num_segments() {
            return Err(ServeError::UnknownSegment {
                segment,
                num_segments: self.num_segments(),
            });
        }
        Ok(())
    }

    // ---- queries ---------------------------------------------------------

    /// The embedding of one segment under the current generation.
    pub fn embedding(&self, segment: usize, deadline: Deadline) -> Result<Vec<f32>, ServeError> {
        let _latency = sarn_obs::span!("sarn_serve_lookup_seconds");
        let _ticket = self.try_ticket()?;
        deadline.check()?;
        self.check_segment(segment)?;
        let gen = self.snapshot().ok_or(ServeError::NotReady)?;
        self.served.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(gen.embeddings().row_slice(segment).to_vec())
    }

    /// k-nearest neighbors of a segment by cosine similarity against the
    /// current generation (see [`EmbeddingStore::knn_vector`] for how a
    /// leg is answered).
    pub fn knn(&self, segment: usize, k: usize, deadline: Deadline) -> Result<Knn, ServeError> {
        let _latency = sarn_obs::span!("sarn_serve_knn_exact_seconds");
        let _ticket = self.try_ticket()?;
        deadline.check()?;
        self.check_segment(segment)?;
        let gen = self.snapshot().ok_or(ServeError::NotReady)?;
        let query = gen.embeddings().row_slice(segment);
        self.knn_on(
            &gen,
            query,
            gen.row_norm(segment),
            Some(segment),
            k,
            deadline,
        )
    }

    /// k-nearest neighbors of an external query vector among this store's
    /// rows — the per-shard leg of a router fan-out. Row ids in the
    /// answer are *this store's* local ids; the router maps them back to
    /// global segment ids. `exclude` drops one local row (the query
    /// segment on its owner shard).
    ///
    /// A leg is answered from the generation's HNSW index when it is
    /// ready, else by the exact scan. The exact scores are bitwise
    /// identical to what [`EmbeddingStore::knn`] computes on a combined
    /// store holding the same row bytes: same dot kernel, same operand
    /// order, same precomputed norms ([`Generation::similarity_to_vector`]).
    pub fn knn_vector(
        &self,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        deadline: Deadline,
    ) -> Result<Knn, ServeError> {
        let _latency = sarn_obs::span!("sarn_serve_knn_shard_seconds");
        let _ticket = self.try_ticket()?;
        deadline.check()?;
        let gen = self.snapshot().ok_or(ServeError::NotReady)?;
        self.knn_on(&gen, query, query_norm, exclude, k, deadline)
    }

    /// The one k-NN path of a store: an HNSW search when the index is
    /// ready (asking for one extra hit so `exclude` can be dropped), else
    /// — and on any index failure, a deadline expiry included — the exact
    /// scan, whose own deadline probe then reports the typed
    /// [`ServeError::DeadlineExceeded`]. `IndexState::None` (below
    /// threshold / disabled) takes the scan silently, so serving with the
    /// index off is bitwise and event identical to a store without it.
    fn knn_on(
        &self,
        gen: &Generation,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        deadline: Deadline,
    ) -> Result<Knn, ServeError> {
        match gen.index_state() {
            IndexState::Ready { .. } => {
                if let Some(idx) = gen.ann_index() {
                    let want = k + usize::from(exclude.is_some());
                    let ef = self.cfg.ann_ef_search.max(want);
                    match idx.search_with_deadline(
                        &mut |x| gen.similarity_to_vector(query, query_norm, x),
                        want,
                        ef,
                        deadline.expires_at(),
                    ) {
                        Ok(mut hits) => {
                            if let Some(x) = exclude {
                                hits.retain(|&(i, _)| i != x);
                            }
                            hits.truncate(k);
                            self.served.fetch_add(1, AtomicOrdering::Relaxed);
                            sarn_obs::counter!("sarn_serve_knn_ann_total").inc();
                            return Ok(Knn {
                                neighbors: hits,
                                generation: gen.number(),
                                ann: true,
                            });
                        }
                        Err(e) => self.note_ann_fallback(gen, &e.to_string()),
                    }
                }
            }
            IndexState::Building => self.note_ann_fallback(gen, "index building"),
            IndexState::FellBack => self.note_ann_fallback(gen, "index fell back at reload"),
            IndexState::None => {}
        }
        let n = gen.embeddings().rows();
        // One expiry derivation for the whole scan; each probe below is a
        // single clock read (Deadline::check_against).
        let expires_at = deadline.expires_at();
        let mut scored = Vec::with_capacity(n);
        for i in 0..n {
            if i % DEADLINE_CHECK_EVERY == 0 {
                deadline.check_against(expires_at)?;
            }
            if Some(i) != exclude {
                scored.push((i, gen.similarity_to_vector(query, query_norm, i)));
            }
        }
        self.served.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(Knn {
            neighbors: top_k(scored, k),
            generation: gen.number(),
            ann: false,
        })
    }

    /// Counts and journals one ANN-to-exact fallback.
    fn note_ann_fallback(&self, gen: &Generation, reason: &str) {
        sarn_obs::counter!("sarn_serve_ann_fallback_total").inc();
        sarn_obs::record(sarn_obs::Event::AnnFallback {
            generation: gen.number(),
            reason: reason.to_string(),
        });
    }

    /// Writes the current generation's ready index to `path` (the
    /// `<artifact>.hnsw` sidecar convention), atomically. Fails typed
    /// when no generation is live or its index is not `Ready`.
    pub fn save_index(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let gen = self.snapshot().ok_or(ServeError::NotReady)?;
        let idx = gen.ann_index().ok_or(ServeError::IndexUnavailable {
            state: gen.index_state(),
        })?;
        idx.save(path).map_err(ServeError::Index)
    }

    /// The current generation's ANN index lifecycle
    /// ([`IndexState::None`] while no generation is live).
    pub fn index_state(&self) -> IndexState {
        self.snapshot()
            .map_or(IndexState::None, |g| g.index_state())
    }

    // ---- health ----------------------------------------------------------

    /// Point-in-time health: lifecycle state plus lifetime counters,
    /// uptime and generation age (the staleness signals), and — when
    /// telemetry is enabled — a full metrics snapshot.
    pub fn health(&self) -> HealthReport {
        let snapshot = self.snapshot();
        let generation = snapshot.as_ref().map(|g| g.number());
        let generation_age = snapshot.as_ref().map(|g| g.age());
        let inflight = self.inflight.load(AtomicOrdering::Acquire);
        let log = lock_recovering(&self.reload_log);
        // Staleness: age of the live generation against the SLO. Checked
        // after overload and reload failures in the precedence below —
        // those states describe *why* the store may be growing stale.
        let over_age = match (self.cfg.max_staleness, generation_age) {
            (Some(slo), Some(age)) if age > slo => Some(age),
            _ => None,
        };
        let state = match generation {
            None => ServeState::Loading,
            Some(g) if inflight >= self.cfg.max_inflight => ServeState::Shedding { generation: g },
            Some(g) if log.consecutive_failures > 0 => ServeState::Degraded {
                generation: g,
                consecutive_failures: log.consecutive_failures,
            },
            Some(g) => match over_age {
                Some(age) => ServeState::Stale { generation: g, age },
                None => ServeState::Serving { generation: g },
            },
        };
        if let (Some(age), Some(g)) = (over_age, generation) {
            // Journal and count the breach once per generation.
            if !self.stale_flagged.swap(true, AtomicOrdering::AcqRel) {
                sarn_obs::counter!("sarn_serve_stale_total").inc();
                sarn_obs::record(sarn_obs::Event::ServeStale {
                    generation: g,
                    age_seconds: age.as_secs_f64(),
                });
            }
        }
        HealthReport {
            state,
            generation,
            consecutive_reload_failures: log.consecutive_failures,
            reloads_ok: log.reloads_ok,
            reloads_failed: log.reloads_failed,
            last_reload_error: log.last_error.clone(),
            inflight,
            shed_total: self.shed.load(AtomicOrdering::Relaxed),
            served_total: self.served.load(AtomicOrdering::Relaxed),
            uptime: self.started.elapsed(),
            generation_age,
            index: snapshot
                .as_ref()
                .map_or(IndexState::None, |g| g.index_state()),
            metrics: sarn_obs::enabled().then(|| sarn_obs::Registry::global().snapshot()),
            shards: Vec::new(),
        }
    }
}

/// How a reload seeds the new generation's index (from
/// [`EmbeddingStore::sidecar_seed`]).
enum IndexSeed {
    /// A validated sidecar index, adopted as-is.
    Loaded(sarn_ann::HnswIndex),
    /// The sidecar was corrupt or mismatched: serve by exact scan,
    /// recording why.
    FellBack(String),
}

/// The conventional index sidecar path of an embedding artifact:
/// `<artifact>.hnsw` in the same directory.
pub(crate) fn index_sidecar_path(artifact: &Path) -> PathBuf {
    let mut os = artifact.as_os_str().to_os_string();
    os.push(".hnsw");
    PathBuf::from(os)
}

/// CRC32 of the embedding matrix's little-endian f32 bytes — the
/// checksum an index sidecar must match to be adopted. Shares the
/// checkpoint CRC so the two framing disciplines agree.
fn tensor_data_crc(t: &Tensor) -> u32 {
    let mut bytes = Vec::with_capacity(t.data().len() * 4);
    for v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    sarn_core::checkpoint::crc32(&bytes)
}

/// Builds the generation's HNSW index on a detached thread and
/// installs it when done. The generation serves by exact scan in the
/// meantime; if a newer generation displaces this one mid-build, the
/// finished index lands on an unreferenced snapshot and is dropped
/// with it — publishing is per-generation, so a swap can never adopt a
/// stale index.
fn spawn_index_build(gen: Arc<Generation>, cfg: sarn_ann::HnswConfig) {
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let rows = gen.embeddings().rows();
        let crc = tensor_data_crc(gen.embeddings());
        let mut index = sarn_ann::HnswIndex::new(cfg, gen.embeddings().cols(), crc);
        for _ in 0..rows {
            index.insert(&mut |a, b| gen.similarity(a, b));
        }
        let build_ms = t0.elapsed().as_millis() as u64;
        gen.install_index(Arc::new(index), build_ms);
        sarn_obs::counter!("sarn_serve_index_built_total").inc();
        sarn_obs::record(sarn_obs::Event::IndexBuilt {
            generation: gen.number(),
            rows: rows as u64,
            build_ms: build_ms as f64,
        });
    });
}

/// Sorts `(id, similarity)` pairs most-similar-first (ties on ascending
/// id, `total_cmp` so even a pathological non-finite score cannot panic)
/// and keeps the best `k`. The comparator is a strict total order over
/// unique ids, so merging per-shard top-k lists through the same function
/// yields the single-store answer regardless of concatenation order —
/// the keystone of the router's bitwise-identity guarantee.
pub(crate) fn top_k(mut scored: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    scored.sort_unstable_by(|a, b| match b.1.total_cmp(&a.1) {
        Ordering::Equal => a.0.cmp(&b.0),
        other => other,
    });
    scored.truncate(k);
    scored
}
