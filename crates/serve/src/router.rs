//! The fault-isolating shard router: breakers, budgets, retries, and
//! typed partial-coverage answers over a [`ShardedStore`].
//!
//! Every fan-out query visits the shards in order, inline on the calling
//! thread, and runs the same per-shard pipeline:
//!
//! 1. **Breaker gate** — the shard's [`CircuitBreaker`] admits, rejects
//!    (quarantine: the router routes around the shard and says so in the
//!    [`Coverage`] report), or grants the half-open probe slot.
//! 2. **Budgeted attempt** — the request [`Deadline`] is carved with
//!    [`Deadline::split`] so one slow shard can burn only its slice of
//!    the budget, with bounded doubling-backoff retries on typed
//!    failures.
//! 3. **Degrade** — a shard whose exact leg exhausts retries walks the
//!    degrade ladder: first the *ANN* leg (the shard's HNSW index, when
//!    one is ready — approximate neighbors at full candidate coverage),
//!    then the *grid-approximate* leg (grid candidates only, a few rows
//!    instead of a scan), each reported as degraded coverage.
//!
//! The router fires no hedged duplicates: its shards are in-process
//! scans on the caller's own cores, so a duplicate attempt would repeat
//! the same work rather than escape a slow replica.
//!
//! Shards that still fail are dropped from the answer rather than
//! failing it: the response carries a typed [`Coverage`] report
//! (answered / degraded / quarantined / failed per shard) and only falls
//! to a typed [`ServeError::PartialCoverage`] when fewer than
//! `min_shards` contributed. Every breaker transition, quarantine
//! boundary, and partial answer is journaled and counted through
//! `sarn-obs`.
//!
//! With all shards healthy the merged answer is **bitwise identical** to
//! a single combined [`crate::EmbeddingStore`]: shard rows hold the same
//! bytes, scoring runs the same kernel in the same operand order, and
//! the shared `top_k` comparator is a strict total order over unique
//! ids, so per-shard top-k union merges to exactly the single-store
//! neighbor list (see `tests/sys/tests/router_sharded.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::breaker::{Admission, BreakerState, CircuitBreaker, Transition};
use crate::config::{LoadFault, RouterConfig};
use crate::deadline::Deadline;
use crate::error::ServeError;
use crate::shard::ShardedStore;
use crate::store::{
    lock_recovering, top_k, EmbeddingStore, HealthReport, IndexState, ServeState, ShardHealth,
    Ticket,
};

/// One fan-out leg: the shard runtime plus, on the approximate path,
/// the local rows it scores (`None` = full scan).
type Leg<'a> = (&'a ShardRuntime, Option<Vec<usize>>);

/// Deterministic, test-only sabotage of one shard's *query* path — the
/// serving analogue of [`LoadFault`], driving the chaos tests: transient
/// or sticky typed errors, forced staleness. Installed with
/// [`Router::inject_shard_fault`]; reload corruption is injected
/// separately through the shard store's own [`LoadFault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFault {
    /// The next this many query attempts fail with an injected typed
    /// error (each attempt decrements, so a retry consumes the fault and
    /// can land on a healthy slot).
    pub fail_queries: u32,
    /// When set, `fail_queries` never decrements: the shard fails every
    /// attempt until the fault is cleared — the breaker-exhaustion case.
    pub sticky: bool,
    /// Health reports this shard as [`ServeState::Stale`] regardless of
    /// its generation's real age.
    pub force_stale: bool,
}

/// How one shard contributed to a fan-out answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Contributed its exact leg.
    Answered,
    /// Its exact leg failed; contributed its ready HNSW index's
    /// approximate neighbors instead (first rung of the degrade ladder).
    DegradedAnn,
    /// Its exact leg failed; contributed grid-approximate scores instead.
    DegradedApprox,
    /// Breaker open: routed around, not consulted.
    Quarantined,
    /// Consulted but every attempt failed; its rows are missing.
    Failed,
}

/// One shard's line in a [`Coverage`] report.
#[derive(Clone, Debug)]
pub struct ShardCoverage {
    /// The shard.
    pub shard: usize,
    /// What it contributed.
    pub outcome: ShardOutcome,
    /// Generation it answered with (its last known one when skipped).
    pub generation: Option<u64>,
    /// The typed error that cost this shard its exact leg, rendered
    /// (`None` unless the outcome is degraded or failed).
    pub error: Option<String>,
}

/// The typed partial-result report carried by every routed answer
/// instead of an error: which shards answered, which degraded to the
/// approximate leg, which were quarantined or failed outright.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// Shards in the fan-out (full coverage = this many answered).
    pub total: usize,
    /// Shards that contributed rows (exact or degraded).
    pub answered: usize,
    /// Of the answered, how many degraded to the approximate leg.
    pub degraded: usize,
    /// Per-shard outcomes, shard-id ascending.
    pub shards: Vec<ShardCoverage>,
}

impl Coverage {
    /// `true` when every shard answered its exact leg.
    pub fn complete(&self) -> bool {
        self.answered == self.total && self.degraded == 0
    }
}

/// A routed k-NN answer: globally-merged neighbors plus the coverage
/// report describing which shards stand behind them.
#[derive(Clone, Debug)]
pub struct RoutedKnn {
    /// `(global segment id, cosine similarity)`, most similar first,
    /// ties on ascending id — the single store's exact ordering.
    pub neighbors: Vec<(usize, f32)>,
    /// Which shards contributed.
    pub coverage: Coverage,
}

/// Everything the router keeps per shard.
struct ShardRuntime {
    index: usize,
    store: Arc<EmbeddingStore>,
    globals: Arc<Vec<usize>>,
    breaker: CircuitBreaker,
    fault: Mutex<Option<ShardFault>>,
}

impl ShardRuntime {
    /// Consumes one attempt's worth of injected fault: the typed error to
    /// fail this attempt with, if any.
    fn apply_fault(&self) -> Result<(), ServeError> {
        let mut guard = lock_recovering(&self.fault);
        let Some(f) = guard.as_mut().filter(|f| f.fail_queries > 0) else {
            return Ok(());
        };
        if !f.sticky {
            f.fail_queries -= 1;
        }
        Err(ServeError::Load(sarn_tensor::IoError::Io(
            std::io::Error::other("injected shard fault"),
        )))
    }

    fn forced_stale(&self) -> bool {
        lock_recovering(&self.fault).is_some_and(|f| f.force_stale)
    }

    /// One attempt at this shard's query leg: consume one fault-injection
    /// step, run the leg (full scan, or the explicit `rows`), map local
    /// ids back to global.
    fn attempt(
        &self,
        rows: Option<&[usize]>,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        slice: Deadline,
    ) -> Result<ShardPartial, ServeError> {
        self.apply_fault()?;
        match rows {
            None => {
                let knn = self
                    .store
                    .knn_vector(query, query_norm, exclude, k, slice)?;
                Ok(self.partial(&knn.neighbors, knn.generation))
            }
            Some(locals) => {
                let (scored, generation) = self
                    .store
                    .score_vector(query, query_norm, locals, exclude, slice)?;
                Ok(self.partial(&scored, generation))
            }
        }
    }

    /// Maps a shard-local `(row, score)` answer onto global segment ids.
    fn partial(&self, local: &[(usize, f32)], generation: u64) -> ShardPartial {
        ShardPartial {
            pairs: local.iter().map(|&(l, s)| (self.globals[l], s)).collect(),
            generation,
        }
    }
}

/// What one shard's query leg produced: `(global id, score)` pairs plus
/// the generation they came from.
struct ShardPartial {
    pairs: Vec<(usize, f32)>,
    generation: u64,
}

enum ShardResult {
    Answered(ShardPartial),
    Quarantined,
    Failed(ServeError),
}

/// The shard router: fronts a [`ShardedStore`] with per-shard circuit
/// breakers, deadline-budget fan-out, bounded retries, and typed
/// partial-coverage degradation. See the module docs for the pipeline.
pub struct Router {
    sharded: ShardedStore,
    rcfg: RouterConfig,
    runtimes: Vec<ShardRuntime>,
    inflight: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    partial: AtomicU64,
    started: Instant,
}

impl Router {
    /// Fronts an already-partitioned store. `cfg.num_shards` is not
    /// consulted here — the partition count was fixed when `sharded` was
    /// built; `min_shards` larger than the actual shard count is clamped
    /// to it (otherwise no answer could ever satisfy it).
    pub fn new(sharded: ShardedStore, cfg: RouterConfig) -> Self {
        let runtimes = sharded
            .shards()
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardRuntime {
                index,
                store: shard.store.clone(),
                globals: shard.globals.clone(),
                breaker: CircuitBreaker::new(cfg.breaker),
                fault: Mutex::new(None),
            })
            .collect();
        Self {
            sharded,
            rcfg: cfg,
            runtimes,
            inflight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            partial: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The partitioned store behind this router.
    pub fn sharded(&self) -> &ShardedStore {
        &self.sharded
    }

    /// The router's knobs.
    pub fn config(&self) -> &RouterConfig {
        &self.rcfg
    }

    /// A fresh deadline carrying the store's configured default budget.
    pub fn deadline(&self) -> Deadline {
        Deadline::from_budget(self.sharded.config().default_deadline)
    }

    /// One shard's breaker state (test/operator introspection).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.runtimes[shard].breaker.state()
    }

    /// Hedged duplicates fired over the router's lifetime: always 0,
    /// because every shard attempt runs inline and none is duplicated.
    /// Kept so callers that report a hedge rate (the benchmark's
    /// `serve.router.hedges_per_kq`) still build and read zero.
    pub fn hedges_fired(&self) -> u64 {
        0
    }

    /// Answers that shipped with incomplete coverage.
    pub fn partial_total(&self) -> u64 {
        self.partial.load(AtomicOrdering::Relaxed)
    }

    /// Installs (or clears) a query-path fault on one shard.
    pub fn inject_shard_fault(&self, shard: usize, fault: Option<ShardFault>) {
        *lock_recovering(&self.runtimes[shard].fault) = fault;
    }

    /// Installs (or clears) a reload-path fault on one shard's store.
    pub fn inject_shard_load_fault(&self, shard: usize, fault: Option<LoadFault>) {
        self.runtimes[shard].store.inject_fault(fault);
    }

    fn try_ticket(&self) -> Result<Ticket<'_>, ServeError> {
        let max_inflight = self.rcfg.router_max_inflight;
        Ticket::claim(&self.inflight, max_inflight).map_err(|inflight| {
            self.shed.fetch_add(1, AtomicOrdering::Relaxed);
            sarn_obs::counter("sarn_serve_router_shed_total").inc();
            ServeError::Overloaded {
                inflight,
                max_inflight,
            }
        })
    }

    // ---- per-shard machinery --------------------------------------------

    fn journal_transition(&self, rt: &ShardRuntime, (from, to): Transition) {
        let consecutive_failures = rt.breaker.consecutive_failures();
        sarn_obs::counter("sarn_serve_breaker_transitions_total").inc();
        sarn_obs::record(sarn_obs::Event::BreakerTransition {
            shard: rt.index,
            from: from.name().to_string(),
            to: to.name().to_string(),
            consecutive_failures,
        });
        match (from, to) {
            (BreakerState::Closed, BreakerState::Open) => {
                sarn_obs::counter("sarn_serve_quarantine_total").inc();
                sarn_obs::record(sarn_obs::Event::QuarantineEnter {
                    shard: rt.index,
                    consecutive_failures,
                });
            }
            (BreakerState::HalfOpen, BreakerState::Closed) => {
                sarn_obs::record(sarn_obs::Event::QuarantineExit { shard: rt.index });
            }
            // Open → half-open (probe granted) and half-open → open
            // (probe failed) stay inside quarantine: no boundary event.
            _ => {}
        }
    }

    /// Bounded retry with doubling backoff around one shard `attempt`.
    /// Deadline and unknown-segment failures are terminal (the budget is
    /// gone / the request can never succeed); everything else retries up
    /// to `shard_retries` times.
    fn call_shard(
        &self,
        attempt: impl Fn() -> Result<ShardPartial, ServeError>,
        deadline: &Deadline,
    ) -> Result<ShardPartial, ServeError> {
        let mut backoff = self.rcfg.shard_backoff;
        let mut tries = 0usize;
        loop {
            match attempt() {
                Ok(p) => return Ok(p),
                Err(e) => {
                    let terminal = matches!(
                        e,
                        ServeError::DeadlineExceeded { .. } | ServeError::UnknownSegment { .. }
                    );
                    if terminal || tries >= self.rcfg.shard_retries {
                        return Err(e);
                    }
                    tries += 1;
                    // Never sleep past the shard's remaining slice.
                    let nap = match deadline.remaining() {
                        Some(rem) => backoff.min(rem),
                        None => backoff,
                    };
                    if !nap.is_zero() {
                        std::thread::sleep(nap);
                    }
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }

    /// The full per-shard pipeline: breaker gate, budgeted attempts,
    /// outcome recording. Exactly one journal entry per breaker state
    /// change (the CAS winner inside the breaker reports it here).
    fn query_shard(
        &self,
        rt: &ShardRuntime,
        attempt: impl Fn() -> Result<ShardPartial, ServeError>,
        deadline: &Deadline,
    ) -> ShardResult {
        let (admission, transition) = rt.breaker.try_admit();
        if let Some(t) = transition {
            self.journal_transition(rt, t);
        }
        if admission == Admission::Reject {
            return ShardResult::Quarantined;
        }
        let probe = admission == Admission::Probe;
        match self.call_shard(attempt, deadline) {
            Ok(partial) => {
                if probe {
                    if let Some(t) = rt.breaker.record_probe(true) {
                        self.journal_transition(rt, t);
                    }
                } else {
                    rt.breaker.record_success();
                }
                ShardResult::Answered(partial)
            }
            Err(e) => {
                if probe {
                    if let Some(t) = rt.breaker.record_probe(false) {
                        self.journal_transition(rt, t);
                    }
                } else if let Some(t) = rt.breaker.record_failure() {
                    self.journal_transition(rt, t);
                }
                ShardResult::Failed(e)
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Exact k-NN fan-out across every shard: bitwise identical to
    /// [`EmbeddingStore::knn`] on a combined store when all shards are
    /// healthy, partial (with typed [`Coverage`]) when they are not.
    pub fn knn(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
    ) -> Result<RoutedKnn, ServeError> {
        let _ticket = self.try_ticket()?;
        self.knn_fanout(segment, k, deadline, false)
    }

    /// Approximate k-NN fan-out: candidates come from the router's global
    /// grid (the exact expansion the single store runs), each shard
    /// scores only its own candidate rows. Bitwise identical to
    /// [`EmbeddingStore::knn_approx`] on a combined store when healthy.
    pub fn knn_approx(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
    ) -> Result<RoutedKnn, ServeError> {
        let _ticket = self.try_ticket()?;
        self.knn_fanout(segment, k, deadline, true)
    }

    /// Batched fan-out, amortizing the per-request admission work: one
    /// router ticket covers the whole batch, and request `i` of `m` gets
    /// a [`Deadline::split`] slice of whatever budget the earlier
    /// requests left (early finishers donate their surplus). Per-request
    /// failures stay per-request — one bad segment id does not fail its
    /// batch-mates.
    pub fn knn_batch(
        &self,
        segments: &[usize],
        k: usize,
        deadline: Deadline,
    ) -> Result<Vec<Result<RoutedKnn, ServeError>>, ServeError> {
        let _ticket = self.try_ticket()?;
        let m = segments.len();
        let mut answers = Vec::with_capacity(m);
        for (i, &segment) in segments.iter().enumerate() {
            let slice = deadline.split(m - i);
            answers.push(self.knn_fanout(segment, k, slice, false));
        }
        Ok(answers)
    }

    fn knn_fanout(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
        approx: bool,
    ) -> Result<RoutedKnn, ServeError> {
        let _latency = sarn_obs::span!("sarn_serve_router_knn_seconds");
        deadline.check()?;
        let (owner, local) = self.sharded.locate(segment)?;
        // The query row's bytes and norm come from the owner shard's
        // generation — the same bytes (and therefore the same norm f32)
        // the combined store would use. Read via a raw snapshot, not the
        // query path: fault injection sabotages *serving* legs, but a
        // router that cannot even read the query row has nothing to fan
        // out, so that is the one genuinely fatal dependency.
        let owner_gen = self.runtimes[owner]
            .store
            .snapshot()
            .ok_or(ServeError::NotReady)?;
        let query = owner_gen.embeddings().row_slice(local).to_vec();
        let query_norm = owner_gen.row_norm(local);
        drop(owner_gen);

        // Which shards this query consults, with the rows each scores.
        // Exact: every shard, full scan. Approx: only shards owning
        // global-grid candidates, scoring exactly those rows.
        let mut legs: Vec<Leg> = Vec::new();
        if approx {
            let candidates = self.sharded.approx_candidates(segment, k, deadline)?;
            let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.runtimes.len()];
            for g in candidates {
                let (si, li) = self.sharded.locate(g)?;
                per_shard[si].push(li);
            }
            for (si, locals) in per_shard.into_iter().enumerate() {
                if !locals.is_empty() {
                    legs.push((&self.runtimes[si], Some(locals)));
                }
            }
        } else {
            legs.extend(self.runtimes.iter().map(|rt| (rt, None)));
        }

        let total = legs.len();
        let mut merged: Vec<(usize, f32)> = Vec::new();
        let mut shards_cov: Vec<ShardCoverage> = Vec::with_capacity(total);
        let (mut answered, mut degraded) = (0usize, 0usize);
        for (i, (rt, rows)) in legs.into_iter().enumerate() {
            // Divide what is left of the budget among the shards still
            // waiting: early fast shards donate surplus to later ones.
            let slice = deadline.split(total - i);
            let exclude = (rt.index == owner).then_some(local);
            let attempt = || rt.attempt(rows.as_deref(), &query, query_norm, exclude, k, slice);
            match self.query_shard(rt, attempt, &slice) {
                ShardResult::Answered(p) => {
                    merged.extend(p.pairs);
                    answered += 1;
                    shards_cov.push(ShardCoverage {
                        shard: rt.index,
                        outcome: ShardOutcome::Answered,
                        generation: Some(p.generation),
                        error: None,
                    });
                }
                ShardResult::Quarantined => shards_cov.push(ShardCoverage {
                    shard: rt.index,
                    outcome: ShardOutcome::Quarantined,
                    generation: rt.store.generation(),
                    error: None,
                }),
                ShardResult::Failed(e) if !approx => {
                    // Degrade ladder: rescue this shard's contribution
                    // with its ready ANN index first (full candidate
                    // coverage, approximate ranking), then the cheap
                    // grid-approximate leg, before giving up on it.
                    sarn_obs::counter("sarn_serve_shard_failed_total").inc();
                    let rescue = self
                        .ann_leg(rt, &query, query_norm, exclude, k, &deadline)
                        .map(|p| (p, ShardOutcome::DegradedAnn))
                        .or_else(|| {
                            self.degraded_leg(
                                rt, segment, &query, query_norm, exclude, k, &deadline,
                            )
                            .map(|p| (p, ShardOutcome::DegradedApprox))
                        });
                    match rescue {
                        Some((p, outcome)) => {
                            merged.extend(p.pairs);
                            answered += 1;
                            degraded += 1;
                            let rung = if outcome == ShardOutcome::DegradedAnn {
                                "sarn_serve_router_ann_rescue_total"
                            } else {
                                "sarn_serve_router_degraded_total"
                            };
                            sarn_obs::counter(rung).inc();
                            shards_cov.push(ShardCoverage {
                                shard: rt.index,
                                outcome,
                                generation: Some(p.generation),
                                error: Some(e.to_string()),
                            });
                        }
                        None => shards_cov.push(ShardCoverage {
                            shard: rt.index,
                            outcome: ShardOutcome::Failed,
                            generation: rt.store.generation(),
                            error: Some(e.to_string()),
                        }),
                    }
                }
                ShardResult::Failed(e) => {
                    sarn_obs::counter("sarn_serve_shard_failed_total").inc();
                    shards_cov.push(ShardCoverage {
                        shard: rt.index,
                        outcome: ShardOutcome::Failed,
                        generation: rt.store.generation(),
                        error: Some(e.to_string()),
                    })
                }
            }
        }

        let min_shards = self.rcfg.min_shards.min(total.max(1));
        if answered < min_shards {
            sarn_obs::counter("sarn_serve_router_refused_total").inc();
            return Err(ServeError::PartialCoverage {
                answered,
                total,
                min_shards,
            });
        }
        let coverage = Coverage {
            total,
            answered,
            degraded,
            shards: shards_cov,
        };
        if !coverage.complete() {
            self.partial.fetch_add(1, AtomicOrdering::Relaxed);
            sarn_obs::counter("sarn_serve_partial_total").inc();
            sarn_obs::record(sarn_obs::Event::PartialCoverage { answered, total });
        }
        self.served.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(RoutedKnn {
            neighbors: top_k(merged, k),
            coverage,
        })
    }

    /// The ANN rescue leg: answer from this shard's HNSW index when one
    /// is ready (`None` otherwise — absent, building, or fell back),
    /// outside the breaker (it already recorded the exact leg's failure)
    /// and with one slice of whatever budget remains.
    fn ann_leg(
        &self,
        rt: &ShardRuntime,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        deadline: &Deadline,
    ) -> Option<ShardPartial> {
        let slice = deadline.split(1);
        rt.apply_fault().ok()?;
        let knn = rt
            .store
            .knn_vector_ann(query, query_norm, exclude, k, slice)
            .ok()?;
        Some(rt.partial(&knn.neighbors, knn.generation))
    }

    /// The degraded rescue leg: score only this shard's global-grid
    /// candidate rows (a handful instead of a scan), outside the breaker
    /// (it already recorded the exact leg's failure) and with one slice
    /// of whatever budget remains.
    #[allow(clippy::too_many_arguments)]
    fn degraded_leg(
        &self,
        rt: &ShardRuntime,
        segment: usize,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        deadline: &Deadline,
    ) -> Option<ShardPartial> {
        let slice = deadline.split(1);
        let candidates = self.sharded.approx_candidates(segment, k, slice).ok()?;
        let locals: Vec<usize> = candidates
            .into_iter()
            .filter_map(|g| {
                let (si, li) = self.sharded.locate(g).ok()?;
                (si == rt.index).then_some(li)
            })
            .collect();
        if locals.is_empty() {
            return None;
        }
        rt.attempt(Some(&locals), query, query_norm, exclude, k, slice)
            .ok()
    }

    // ---- health ----------------------------------------------------------

    /// Shard-aware health: the aggregate `state` is the *worst* shard's
    /// (an open breaker counts as degraded even while the shard's own
    /// store is nominally serving), and `shards` lists every shard's
    /// generation, age, and breaker position — the staleness SLO fires
    /// per shard.
    pub fn health(&self) -> HealthReport {
        fn severity(state: &ServeState) -> u8 {
            match state {
                ServeState::Serving { .. } => 0,
                ServeState::Stale { .. } => 1,
                ServeState::Degraded { .. } => 2,
                ServeState::Shedding { .. } => 3,
                ServeState::Loading => 4,
            }
        }
        let mut shards = Vec::with_capacity(self.runtimes.len());
        let mut worst: Option<ServeState> = None;
        let (mut reloads_ok, mut reloads_failed) = (0u64, 0u64);
        let (mut shed_total, mut degraded_total, mut served_total) = (0u64, 0u64, 0u64);
        let mut consecutive_reload_failures = 0u32;
        let mut last_reload_error = None;
        let mut inflight = 0usize;
        let mut generations = Vec::with_capacity(self.runtimes.len());
        let mut oldest_age: Option<Duration> = None;
        let mut index_states = Vec::with_capacity(self.runtimes.len());
        for rt in &self.runtimes {
            let h = rt.store.health();
            let breaker = rt.breaker.state();
            let index = rt.store.index_state();
            index_states.push(index);
            // Effective shard state: forced staleness and an open breaker
            // both degrade a nominally-serving shard.
            let state = if rt.forced_stale() {
                ServeState::Stale {
                    generation: h.generation.unwrap_or(0),
                    age: h.generation_age.unwrap_or_default(),
                }
            } else if breaker != BreakerState::Closed
                && severity(&h.state)
                    < severity(&ServeState::Degraded {
                        generation: 0,
                        consecutive_failures: 0,
                    })
            {
                ServeState::Degraded {
                    generation: h.generation.unwrap_or(0),
                    consecutive_failures: rt.breaker.consecutive_failures().max(1),
                }
            } else {
                h.state
            };
            if worst
                .as_ref()
                .is_none_or(|w| severity(&state) > severity(w))
            {
                worst = Some(state);
            }
            reloads_ok += h.reloads_ok;
            reloads_failed += h.reloads_failed;
            shed_total += h.shed_total;
            degraded_total += h.degraded_total;
            served_total += h.served_total;
            inflight += h.inflight;
            consecutive_reload_failures =
                consecutive_reload_failures.max(h.consecutive_reload_failures);
            if last_reload_error.is_none() {
                last_reload_error = h.last_reload_error.clone();
            }
            generations.push(h.generation);
            if let Some(age) = h.generation_age {
                oldest_age = Some(oldest_age.map_or(age, |o| o.max(age)));
            }
            shards.push(ShardHealth {
                shard: rt.index,
                state,
                generation: h.generation,
                generation_age: h.generation_age,
                breaker,
                consecutive_failures: rt.breaker.consecutive_failures(),
                segments: rt.globals.len(),
                index,
            });
        }
        // Pessimistic aggregate: any shard serving without its index
        // (FellBack) dominates, then any still building; Ready only when
        // every shard is, reporting the slowest build.
        let index = if index_states
            .iter()
            .any(|s| matches!(s, IndexState::FellBack))
        {
            IndexState::FellBack
        } else if index_states
            .iter()
            .any(|s| matches!(s, IndexState::Building))
        {
            IndexState::Building
        } else {
            let builds: Vec<u64> = index_states
                .iter()
                .filter_map(|s| match s {
                    IndexState::Ready { build_ms } => Some(*build_ms),
                    _ => None,
                })
                .collect();
            if !index_states.is_empty() && builds.len() == index_states.len() {
                IndexState::Ready {
                    build_ms: builds.into_iter().max().unwrap_or(0),
                }
            } else {
                IndexState::None
            }
        };
        // The aggregate generation is only meaningful when every shard
        // serves the same one (per-shard swaps legitimately diverge).
        let generation = match generations.first().copied().flatten() {
            Some(g) if generations.iter().all(|&x| x == Some(g)) => Some(g),
            _ => None,
        };
        HealthReport {
            state: worst.unwrap_or(ServeState::Loading),
            generation,
            consecutive_reload_failures,
            reloads_ok,
            reloads_failed,
            last_reload_error,
            inflight: inflight + self.inflight.load(AtomicOrdering::Acquire),
            shed_total: shed_total + self.shed.load(AtomicOrdering::Relaxed),
            degraded_total: degraded_total + self.partial.load(AtomicOrdering::Relaxed),
            served_total: served_total.max(self.served.load(AtomicOrdering::Relaxed)),
            uptime: self.started.elapsed(),
            generation_age: oldest_age,
            metrics: sarn_obs::enabled().then(|| sarn_obs::Registry::global().snapshot()),
            index,
            shards,
        }
    }
}
