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
//!    failures. Each attempt is the shard's one k-NN leg
//!    ([`EmbeddingStore::knn_vector`]): its HNSW index when one is
//!    ready, else — or when the index search fails — the exact scan.
//!
//! The router fires no hedged duplicates and tries no second, cheaper
//! leg: its shards are in-process scans on the caller's own cores, so
//! another attempt would repeat the same work rather than escape a slow
//! replica, and would meet the same snapshot and admission limit that
//! failed the first. A shard that still fails after its retries is
//! dropped from the answer rather than failing it: the response carries
//! a typed [`Coverage`] report (answered / quarantined / failed per
//! shard) and only falls to a typed [`ServeError::PartialCoverage`] when
//! fewer than `min_shards` contributed. Every breaker transition,
//! quarantine boundary, and partial answer is journaled and counted
//! through `sarn-obs`.
//!
//! ## Contract
//!
//! What the suites prove, per regime:
//!
//! - **Exact-scan shards** (below [`crate::ServeConfig::ann_threshold`]
//!   rows, or no ready index): with all shards healthy the merged answer
//!   is **bitwise identical** to a single combined
//!   [`crate::EmbeddingStore`]. Shard rows hold the same bytes, scoring
//!   runs the same kernel in the same operand order, and the shared
//!   `top_k` comparator is a strict total order over unique ids, so the
//!   union of per-shard top-k lists merges to exactly the single-store
//!   neighbor list (`crates/serve/tests/router.rs`,
//!   `tests/sys/tests/router_sharded.rs`).
//! - **HNSW shards**: a routed answer is the union of per-shard
//!   approximate answers. Its contract is recall@10 against the exact
//!   scan, which the benchmark's `knn_read` workload checks at >= 0.95.

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
    /// Contributed its k-NN leg.
    Answered,
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
    /// The typed error of the shard's last failed attempt, rendered
    /// (`None` unless the outcome is failed).
    pub error: Option<String>,
}

/// The typed partial-result report carried by every routed answer
/// instead of an error: which shards answered, which were quarantined
/// or failed outright.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// Shards in the fan-out (full coverage = this many answered).
    pub total: usize,
    /// Shards that contributed rows.
    pub answered: usize,
    /// Per-shard outcomes, shard-id ascending.
    pub shards: Vec<ShardCoverage>,
}

impl Coverage {
    /// `true` when every shard answered.
    pub fn complete(&self) -> bool {
        self.answered == self.total
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

    /// One attempt at this shard's k-NN leg: consume one fault-injection
    /// step, run the leg, map local ids back to global.
    fn attempt(
        &self,
        query: &[f32],
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        slice: Deadline,
    ) -> Result<ShardPartial, ServeError> {
        self.apply_fault()?;
        let knn = self
            .store
            .knn_vector(query, query_norm, exclude, k, slice)?;
        Ok(ShardPartial {
            pairs: knn
                .neighbors
                .iter()
                .map(|&(l, s)| (self.globals[l], s))
                .collect(),
            generation: knn.generation,
        })
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
/// partial coverage. See the module docs for the pipeline.
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
            sarn_obs::counter!("sarn_serve_router_shed_total").inc();
            ServeError::Overloaded {
                inflight,
                max_inflight,
            }
        })
    }

    // ---- per-shard machinery --------------------------------------------

    fn journal_transition(&self, rt: &ShardRuntime, (from, to): Transition) {
        let consecutive_failures = rt.breaker.consecutive_failures();
        sarn_obs::counter!("sarn_serve_breaker_transitions_total").inc();
        sarn_obs::record(sarn_obs::Event::BreakerTransition {
            shard: rt.index,
            from: from.name().to_string(),
            to: to.name().to_string(),
            consecutive_failures,
        });
        match (from, to) {
            (BreakerState::Closed, BreakerState::Open) => {
                sarn_obs::counter!("sarn_serve_quarantine_total").inc();
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
                } else if !matches!(e, ServeError::Overloaded { .. }) {
                    // A shed is load, not a shard fault: it fails this leg
                    // but neither counts toward quarantine nor resets the
                    // streak of real failures.
                    if let Some(t) = rt.breaker.record_failure() {
                        self.journal_transition(rt, t);
                    }
                }
                ShardResult::Failed(e)
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    /// k-NN fan-out across every shard: bitwise identical to
    /// [`EmbeddingStore::knn`] on a combined store when all shards are
    /// healthy and below the ANN threshold, partial (with typed
    /// [`Coverage`]) when shards fail. See the module docs for the
    /// contract with HNSW shards.
    pub fn knn(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
    ) -> Result<RoutedKnn, ServeError> {
        let _ticket = self.try_ticket()?;
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

        let total = self.runtimes.len();
        let mut merged: Vec<(usize, f32)> = Vec::new();
        let mut shards_cov: Vec<ShardCoverage> = Vec::with_capacity(total);
        let mut answered = 0usize;
        for (i, rt) in self.runtimes.iter().enumerate() {
            // Divide what is left of the budget among the shards still
            // waiting: early fast shards donate surplus to later ones.
            let slice = deadline.split(total - i);
            let exclude = (rt.index == owner).then_some(local);
            let attempt = || rt.attempt(&query, query_norm, exclude, k, slice);
            let (outcome, generation, error) = match self.query_shard(rt, attempt, &slice) {
                ShardResult::Answered(p) => {
                    merged.extend(p.pairs);
                    answered += 1;
                    (ShardOutcome::Answered, Some(p.generation), None)
                }
                ShardResult::Quarantined => {
                    (ShardOutcome::Quarantined, rt.store.generation(), None)
                }
                ShardResult::Failed(e) => {
                    sarn_obs::counter!("sarn_serve_shard_failed_total").inc();
                    (
                        ShardOutcome::Failed,
                        rt.store.generation(),
                        Some(e.to_string()),
                    )
                }
            };
            shards_cov.push(ShardCoverage {
                shard: rt.index,
                outcome,
                generation,
                error,
            });
        }

        let min_shards = self.rcfg.min_shards.min(total.max(1));
        if answered < min_shards {
            sarn_obs::counter!("sarn_serve_router_refused_total").inc();
            return Err(ServeError::PartialCoverage {
                answered,
                total,
                min_shards,
            });
        }
        let coverage = Coverage {
            total,
            answered,
            shards: shards_cov,
        };
        if !coverage.complete() {
            self.partial.fetch_add(1, AtomicOrdering::Relaxed);
            sarn_obs::counter!("sarn_serve_partial_total").inc();
            sarn_obs::record(sarn_obs::Event::PartialCoverage { answered, total });
        }
        self.served.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(RoutedKnn {
            neighbors: top_k(merged, k),
            coverage,
        })
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
        let (mut shed_total, mut served_total) = (0u64, 0u64);
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
            served_total: served_total.max(self.served.load(AtomicOrdering::Relaxed)),
            uptime: self.started.elapsed(),
            generation_age: oldest_age,
            metrics: sarn_obs::enabled().then(|| sarn_obs::Registry::global().snapshot()),
            index,
            shards,
        }
    }
}
