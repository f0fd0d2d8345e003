//! The resident engine: one graph, its sample pools and a result cache,
//! serving many queries at once — shared-pool parallel queries, request
//! coalescing and admission control.
//!
//! Every [`SharedEngine`] method takes a shared reference, so one instance
//! can be driven from any number of connection threads simultaneously
//! (driven from one thread it is simply the serial engine). It splits its
//! responsibilities by mutability:
//!
//! * **State transitions** (`LOAD` / `POOL` / `RESTORE`) are exclusive.
//!   They take the write side of an `RwLock` around the resident
//!   `(graph, pool)` pair — these verbs are rare and expensive,
//!   serialising them is the right shape.
//! * **Queries** are read-side. A query clones `Arc` handles to the
//!   immutable graph and pool under a brief read lock and then computes
//!   *without holding any lock at all*: a built [`SamplePool`] never
//!   changes, and pooled answers are bit-identical at any thread count, so
//!   N connections re-rooting the same realisations concurrently is safe
//!   and byte-stable by construction.
//! * The **LRU result cache** lives behind its own fine-grained mutex —
//!   a cache probe costs a hash lookup, never a pool traversal, so the
//!   lock is held for nanoseconds and is invisible under load.
//! * **Single-flight coalescing**: when N connections ask the identical
//!   (canonicalised) question while it is still being computed, one
//!   *leader* computes and N−1 *followers* block on a condvar and receive
//!   a clone of the leader's answer — the pool is consulted exactly once.
//! * **Admission control**: at most `max_inflight` *leaders* compute at
//!   once. Beyond that, new distinct queries are rejected immediately with
//!   the typed [`EngineError::Busy`] (`ERR busy retry_after_ms=…` on the
//!   wire) instead of queueing unboundedly — followers and cache hits are
//!   never rejected, they add no compute load.
//!
//! ## Consistency
//!
//! Each backend — the forward pool and the sketch pool — has its own
//! *epoch*. A pool swap (rebuild, extension) bumps its backend's epoch and
//! evicts only that backend's cached answers; `LOAD` and `RESTORE` replace
//! the graph and bump both. Queries remember the epoch of the backend they
//! computed against and only insert into the cache if that epoch still
//! matches, so an answer computed against a superseded pool can never
//! poison the cache of its successor, while answers of the other backend
//! survive. In-flight queries against the old pool finish normally (they
//! hold their own `Arc`); `POOL` extensions and rebuilds wait for those
//! references to drain before mutating or releasing the arenas, keeping
//! peak memory at one pool.
//!
//! ## Poison-freedom
//!
//! No lock in this module propagates poisoning: a thread that panicked
//! while holding one leaves the state as it was (mutating ops stage their
//! new state fully before installing it), and every acquisition recovers
//! the guard via [`std::sync::PoisonError::into_inner`]. One panicking
//! handler therefore cannot take the whole server down — the connection
//! answers `ERR internal …` and every other connection keeps working.

use crate::cache::LruCache;
use crate::engine::{
    run_resident, Disposition, PoolAction, PoolBackend, PoolInfo, PoolProvenance, Query, QueryKey,
    QueryResult, RestoreMode, SketchPoolInfo,
};
use crate::metrics::{self, EngineMetrics, Verb};
use crate::{EngineError, Result};
use imin_core::snapshot::{self, SnapshotSummary};
use imin_core::{SamplePool, SketchPool};
use imin_graph::DiGraph;
use imin_obs::{span, Phase, PhaseBreakdown, POOL_PHASES, QUERY_PHASES, SNAPSHOT_PHASES};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Acquires a mutex, recovering the guard if a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-acquires an `RwLock`, recovering from poisoning.
fn read_unpoisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-acquires an `RwLock`, recovering from poisoning.
fn write_unpoisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The resident `(graph, pool)` pair plus its bookkeeping. Guarded by the
/// state `RwLock`; queries only ever clone the two `Arc`s out of it.
#[derive(Debug, Default)]
struct ResidentState {
    graph: Option<Arc<DiGraph>>,
    graph_label: String,
    pool: Option<Arc<SamplePool>>,
    pool_info: Option<PoolInfo>,
    sketch: Option<Arc<SketchPool>>,
    sketch_info: Option<SketchPoolInfo>,
    /// Per backend, bumped on every replacement of its pool (and of the
    /// graph); cache inserts are fenced on it so answers from a superseded
    /// pool never land in the new cache.
    epochs: Epochs,
}

/// One epoch per [`PoolBackend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Epochs {
    forward: u64,
    sketch: u64,
}

impl Epochs {
    fn get(&self, backend: PoolBackend) -> u64 {
        match backend {
            PoolBackend::Forward => self.forward,
            PoolBackend::Sketch => self.sketch,
        }
    }

    fn bump(&mut self, backend: PoolBackend) {
        match backend {
            PoolBackend::Forward => self.forward += 1,
            PoolBackend::Sketch => self.sketch += 1,
        }
    }
}

/// The LRU cache plus the epochs its entries belong to.
#[derive(Debug)]
struct CacheState {
    epochs: Epochs,
    lru: LruCache<QueryKey, QueryResult>,
}

/// What a coalesced follower receives: the leader's answer, or its error
/// demoted to a message (the typed error stays with the leader).
type CoalescedOutcome = std::result::Result<QueryResult, String>;

/// One in-flight computation that identical queries rendezvous on.
#[derive(Debug, Default)]
struct InflightSlot {
    outcome: Mutex<Option<CoalescedOutcome>>,
    ready: Condvar,
}

impl InflightSlot {
    /// Blocks until the leader publishes, then returns a clone.
    fn wait(&self) -> CoalescedOutcome {
        let mut outcome = lock_unpoisoned(&self.outcome);
        loop {
            if let Some(published) = outcome.as_ref() {
                return published.clone();
            }
            outcome = self
                .ready
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes the leader's outcome and wakes every follower.
    fn publish(&self, published: CoalescedOutcome) {
        *lock_unpoisoned(&self.outcome) = Some(published);
        self.ready.notify_all();
    }
}

/// Monotonic atomic counters (plus the `inflight` gauge) behind `STATS`.
/// Latency lives in [`EngineMetrics`] histograms, not here — the `lat_*`
/// sums reported by `STATS` are read back from the per-verb histograms.
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    computed: AtomicU64,
    recomputed: AtomicU64,
    replayed: AtomicU64,
    inflight: AtomicU64,
    pool_builds: AtomicU64,
    pool_extends: AtomicU64,
    pool_compressions: AtomicU64,
    pool_reuses: AtomicU64,
    sketch_builds: AtomicU64,
    sketch_reuses: AtomicU64,
    graph_loads: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_restores: AtomicU64,
}

/// What the engine observed while answering the calling thread's most
/// recent request — the access log's source of truth. Stored in a
/// thread-local by the query/restore paths and drained by the server after
/// the reply is written, so the plumbing never widens a public signature.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Observation {
    /// Engine-assigned request id (0 when the verb assigns none).
    pub(crate) trace_id: u64,
    /// How the answer was produced (`computed`, `cache_hit`, `coalesced`,
    /// `rejected`, `error`, `restore`; `built`, `extended` or `reused` for
    /// a forward `POOL`).
    pub(crate) disposition: &'static str,
    /// Per-phase breakdown, when spans were active for this request.
    pub(crate) phases: Option<PhaseBreakdown>,
}

thread_local! {
    static LAST_OBSERVATION: Cell<Option<Observation>> = const { Cell::new(None) };
}

/// Takes (and clears) the calling thread's last [`Observation`].
pub(crate) fn take_last_observation() -> Option<Observation> {
    LAST_OBSERVATION.with(|cell| cell.take())
}

fn set_observation(observation: Observation) {
    LAST_OBSERVATION.with(|cell| cell.set(Some(observation)));
}

/// A point-in-time copy of every serving counter, as reported by `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries received (cache hits, coalesced, rejected all included).
    pub queries: u64,
    /// Queries answered straight from the LRU cache.
    pub cache_hits: u64,
    /// Queries answered by waiting on an identical in-flight computation
    /// (the pool was *not* consulted again).
    pub coalesced: u64,
    /// Queries rejected with `ERR busy …` by admission control.
    pub rejected: u64,
    /// Queries that actually computed against the pool (leaders).
    pub computed: u64,
    /// Realisations the leaders' estimator passes rebuilt.
    pub recomputed: u64,
    /// Of those, the realisations rebuilt from a recorded cascade.
    pub replayed: u64,
    /// Leaders computing right now (a gauge, not a counter).
    pub inflight: u64,
    /// Pools built from scratch.
    pub pool_builds: u64,
    /// Pools grown in place via `extend_to`.
    pub pool_extends: u64,
    /// Pools re-encoded into a compressed arena via `COMPRESS`.
    pub pool_compressions: u64,
    /// `POOL` requests satisfied by the already-resident pool.
    pub pool_reuses: u64,
    /// Sketch pools built from scratch (`POOL … backend=sketch`).
    pub sketch_builds: u64,
    /// Sketch `POOL` requests satisfied by the resident sketch pool.
    pub sketch_reuses: u64,
    /// Graphs installed (`LOAD` and `RESTORE`).
    pub graph_loads: u64,
    /// Snapshots written via `SAVE`.
    pub snapshot_saves: u64,
    /// Snapshots restored via `RESTORE`.
    pub snapshot_restores: u64,
    /// Total µs spent inside `LOAD` handling (engine side; the sum of the
    /// `verb="load"` latency histogram).
    pub lat_load_us: u64,
    /// Total µs spent inside `POOL` handling.
    pub lat_pool_us: u64,
    /// Total µs spent inside `QUERY` handling (hits, waits and computes).
    pub lat_query_us: u64,
    /// Total µs spent inside `SAVE` handling.
    pub lat_save_us: u64,
    /// Total µs spent inside `RESTORE` handling.
    pub lat_restore_us: u64,
}

/// `Arc` handles to the resident state — what a moment-in-time reader
/// (`STATS`, benchmarks, parity checks) sees without blocking writers for
/// longer than one field copy.
#[derive(Clone, Debug)]
pub struct ResidentView {
    /// The loaded graph, if any.
    pub graph: Option<Arc<DiGraph>>,
    /// Label given to the loaded graph.
    pub graph_label: String,
    /// The resident pool, if any.
    pub pool: Option<Arc<SamplePool>>,
    /// The resident pool's build facts, if a pool exists.
    pub pool_info: Option<PoolInfo>,
    /// The resident reverse-sketch pool, if any.
    pub sketch: Option<Arc<SketchPool>>,
    /// The resident sketch pool's build facts, if a sketch pool exists.
    pub sketch_info: Option<SketchPoolInfo>,
}

/// A containment query engine that many threads drive concurrently.
///
/// See the [module docs](self) for the concurrency model. The single
/// ordering contract worth repeating: **pooled answers are byte-identical
/// no matter how many connections race** — the pool is immutable, per-query
/// credits accumulate in integers, and coalesced followers receive clones
/// of the one computed answer.
#[derive(Debug)]
pub struct SharedEngine {
    state: RwLock<ResidentState>,
    cache: Mutex<CacheState>,
    inflight: Mutex<HashMap<QueryKey, Arc<InflightSlot>>>,
    counters: Counters,
    metrics: EngineMetrics,
    threads: usize,
    query_threads: usize,
    max_inflight: usize,
    observability: AtomicBool,
}

impl Default for SharedEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Default cap on concurrently *computing* queries. Deliberately generous:
/// it exists to bound memory and latency under pathological fan-in, not to
/// pace a healthy workload.
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

impl SharedEngine {
    /// Creates an empty shared engine: default worker threads for pool
    /// builds and the same number inside each query (split them with
    /// [`SharedEngine::with_query_threads`]), a 256-entry result cache and
    /// the default admission budget ([`DEFAULT_MAX_INFLIGHT`]).
    pub fn new() -> Self {
        let threads = imin_diffusion::montecarlo::default_threads();
        SharedEngine {
            state: RwLock::new(ResidentState::default()),
            cache: Mutex::new(CacheState {
                epochs: Epochs::default(),
                lru: LruCache::new(256),
            }),
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            metrics: EngineMetrics::default(),
            threads,
            query_threads: threads,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            observability: AtomicBool::new(true),
        }
    }

    /// Sets the worker-thread count for pool builds **and** resets the
    /// per-query thread count to the same value (call
    /// [`SharedEngine::with_query_threads`] *after* this to split them).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.query_threads = self.threads;
        self
    }

    /// Sets the intra-query thread count independently of the build
    /// threads. Under concurrent load the right value is usually `1`:
    /// parallelism across connections beats parallelism inside one query,
    /// and answers are bit-identical either way.
    pub fn with_query_threads(mut self, query_threads: usize) -> Self {
        self.query_threads = query_threads.max(1);
        self
    }

    /// Sets the LRU result-cache capacity (entries are dropped). Capacity
    /// `0` disables result caching: every query recomputes.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        let epochs = lock_unpoisoned(&self.cache).epochs;
        self.cache = Mutex::new(CacheState {
            epochs,
            lru: LruCache::new(capacity),
        });
        self
    }

    /// Sets the admission budget: the number of queries allowed to compute
    /// concurrently before new distinct queries get [`EngineError::Busy`].
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Enables or disables phase observability (default: enabled). When
    /// disabled, per-phase spans are never armed and replies carry no
    /// trace breakdown; verb/algorithm/compute latency histograms keep
    /// recording either way (they back `STATS` and the busy hint).
    pub fn with_observability(self, enabled: bool) -> Self {
        self.observability.store(enabled, Relaxed);
        self
    }

    /// Flips phase observability on a live engine — no rebuild, no pool
    /// swap. In-flight queries keep the setting they started with (the
    /// flag is read once at query entry); the next request sees the new
    /// one. The read is a relaxed load of one byte, so leaving tracing on
    /// or off costs the serving path nothing either way.
    pub fn set_observability(&self, enabled: bool) {
        self.observability.store(enabled, Relaxed);
    }

    /// Whether phase spans and traces are enabled.
    pub fn observability(&self) -> bool {
        self.observability.load(Relaxed)
    }

    /// The metric registry (verb/algorithm/phase/compute histograms).
    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Renders the complete Prometheus text-format exposition — the body
    /// of the `METRICS` protocol verb.
    pub fn metrics_text(&self) -> String {
        metrics::render(self)
    }

    /// Pool-build worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Intra-query worker threads.
    pub fn query_threads(&self) -> usize {
        self.query_threads
    }

    /// The admission budget.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Number of entries currently cached.
    pub fn cache_entries(&self) -> usize {
        lock_unpoisoned(&self.cache).lru.len()
    }

    /// A point-in-time copy of every counter.
    pub fn stats(&self) -> ServingStats {
        let c = &self.counters;
        ServingStats {
            queries: c.queries.load(Relaxed),
            cache_hits: c.cache_hits.load(Relaxed),
            coalesced: c.coalesced.load(Relaxed),
            rejected: c.rejected.load(Relaxed),
            computed: c.computed.load(Relaxed),
            recomputed: c.recomputed.load(Relaxed),
            replayed: c.replayed.load(Relaxed),
            inflight: c.inflight.load(Relaxed),
            pool_builds: c.pool_builds.load(Relaxed),
            pool_extends: c.pool_extends.load(Relaxed),
            pool_compressions: c.pool_compressions.load(Relaxed),
            pool_reuses: c.pool_reuses.load(Relaxed),
            sketch_builds: c.sketch_builds.load(Relaxed),
            sketch_reuses: c.sketch_reuses.load(Relaxed),
            graph_loads: c.graph_loads.load(Relaxed),
            snapshot_saves: c.snapshot_saves.load(Relaxed),
            snapshot_restores: c.snapshot_restores.load(Relaxed),
            lat_load_us: self.metrics.verb(Verb::Load).sum_us(),
            lat_pool_us: self.metrics.verb(Verb::Pool).sum_us(),
            lat_query_us: self.metrics.verb(Verb::Query).sum_us(),
            lat_save_us: self.metrics.verb(Verb::Save).sum_us(),
            lat_restore_us: self.metrics.verb(Verb::Restore).sum_us(),
        }
    }

    /// `Arc` handles to the resident graph/pool plus their facts.
    pub fn view(&self) -> ResidentView {
        let state = read_unpoisoned(&self.state);
        ResidentView {
            graph: state.graph.clone(),
            graph_label: state.graph_label.clone(),
            pool: state.pool.clone(),
            pool_info: state.pool_info.clone(),
            sketch: state.sketch.clone(),
            sketch_info: state.sketch_info.clone(),
        }
    }

    /// The suggested client backoff for a [`EngineError::Busy`] rejection:
    /// the p95 of compute latency (robust against outliers, unlike the
    /// running mean it replaced), clamped to `[1 ms, 10 s]` (50 ms before
    /// anything has computed). Recomputed at most once per new computed
    /// query — see [`EngineMetrics::retry_after_ms`].
    fn retry_after_ms(&self) -> u64 {
        self.metrics.retry_after_ms()
    }

    /// Bumps the epoch of `backend` — of both backends for `None`, when
    /// the graph changes — and evicts the cached answers it invalidates.
    /// Callers hold the state write lock, which is the intended nesting
    /// order (state → cache); the query path never holds both at once.
    fn invalidate(&self, state: &mut ResidentState, backend: Option<PoolBackend>) {
        let mut cache = lock_unpoisoned(&self.cache);
        match backend {
            Some(backend) => {
                state.epochs.bump(backend);
                cache.lru.retain(|key| key.backend() != backend);
            }
            None => {
                state.epochs.bump(PoolBackend::Forward);
                state.epochs.bump(PoolBackend::Sketch);
                cache.lru.clear();
            }
        }
        cache.epochs = state.epochs;
    }

    /// Installs a graph, dropping any previous pool and cached results.
    /// Exclusive: concurrent queries either finish against the old state
    /// or start against the new one.
    pub fn load_graph(&self, graph: DiGraph, label: String) {
        let start = Instant::now();
        {
            let mut state = write_unpoisoned(&self.state);
            state.graph = Some(Arc::new(graph));
            state.graph_label = label;
            state.pool = None;
            state.pool_info = None;
            state.sketch = None;
            state.sketch_info = None;
            self.invalidate(&mut state, None);
        }
        self.counters.graph_loads.fetch_add(1, Relaxed);
        self.metrics
            .verb(Verb::Load)
            .record_us(start.elapsed().as_micros() as u64);
    }

    /// Makes a pool with exactly `(θ, seed)` resident, doing the least work
    /// that gets there, exclusively:
    ///
    /// * the resident pool already matches → **no-op** (the result cache
    ///   survives untouched),
    /// * the resident pool has the same seed, a smaller θ and an
    ///   extendable (compressed, heap) arena — built, COMPRESSed or
    ///   copy-restored from a compressed file → grown in place with
    ///   [`SamplePool::extend_to`] (bit-identical to a fresh θ build; the
    ///   forward answers are evicted because they may change),
    /// * anything else — including a growing request against a raw or
    ///   mapped pool → sampled from scratch (forward answers evicted).
    ///
    /// Cached `ris-greedy` answers survive either way: their sketch pool
    /// did not change.
    ///
    /// While observability is on, a build or an extension records its
    /// `sample` phase into `imin_pool_phase_seconds`, and every successful
    /// call leaves the access log its disposition (`built`, `extended` or
    /// `reused`; the first two with the `sample` phase).
    ///
    /// Queries in flight keep their own `Arc` to the old pool; the extend
    /// and rebuild paths wait for those references to drain before
    /// mutating or releasing the arenas, so peak memory stays at one pool.
    ///
    /// # Errors
    /// [`EngineError::NoGraph`] before a graph is loaded, or the underlying
    /// build error (e.g. θ = 0, rejected before anything is dropped).
    pub fn ensure_pool(&self, theta: usize, seed: u64) -> Result<(PoolInfo, PoolAction)> {
        let start = Instant::now();
        let observability = self.observability();
        if observability {
            span::begin();
        }
        let result = self.ensure_pool_locked(theta, seed);
        let breakdown = span::take();
        if let (true, Ok((_, action))) = (observability, &result) {
            let (disposition, phases) = match action {
                PoolAction::Built => ("built", Some(breakdown)),
                PoolAction::Extended => ("extended", Some(breakdown)),
                PoolAction::Reused => ("reused", None),
            };
            if phases.is_some() {
                for phase in POOL_PHASES {
                    self.metrics.phase(phase).record_us(breakdown.get(phase));
                }
            }
            set_observation(Observation {
                trace_id: 0,
                disposition,
                phases,
            });
        }
        self.metrics
            .verb(Verb::Pool)
            .record_us(start.elapsed().as_micros() as u64);
        result
    }

    fn ensure_pool_locked(&self, theta: usize, seed: u64) -> Result<(PoolInfo, PoolAction)> {
        let mut state = write_unpoisoned(&self.state);
        let graph = state.graph.clone().ok_or(EngineError::NoGraph)?;
        if theta == 0 {
            return Err(imin_core::IminError::ZeroSamples.into());
        }
        if let Some(pool) = state.pool.as_ref() {
            if pool.pool_seed() == seed && pool.theta() == theta {
                self.counters.pool_reuses.fetch_add(1, Relaxed);
                let info = state.pool_info.clone().expect("resident pool has info");
                return Ok((info, PoolAction::Reused));
            }
        }
        // Raw and mapped arenas cannot grow in place — a growing request
        // against one falls through to the rebuild path below.
        let grows = state
            .pool
            .as_ref()
            .is_some_and(|p| p.pool_seed() == seed && p.theta() < theta && p.is_extendable());
        if grows {
            let pool_arc = state.pool.as_mut().expect("grows implies a pool");
            // New queries are blocked by the write lock; in-flight ones
            // still hold clones. Wait for them so the arena is exclusively
            // ours — extension mutates it in place.
            drain_to_exclusive(pool_arc);
            let from_theta = pool_arc.theta();
            let build = Instant::now();
            Arc::get_mut(pool_arc)
                .expect("drained to exclusive")
                .extend_to(&graph, theta, self.threads)?;
            let pool = state.pool.as_ref().expect("pool still resident");
            let info = PoolInfo::for_pool(
                pool,
                self.threads,
                build.elapsed(),
                PoolProvenance::Extended { from_theta },
            );
            state.pool_info = Some(info.clone());
            self.invalidate(&mut state, Some(PoolBackend::Forward));
            self.counters.pool_extends.fetch_add(1, Relaxed);
            return Ok((info, PoolAction::Extended));
        }
        // Rebuild: release the superseded pool (after its readers drain)
        // *before* sampling the new one, and evict its answers at the same
        // moment — they belonged to the old pool, which is about to stop
        // existing.
        if let Some(old) = state.pool.take() {
            state.pool_info = None;
            self.invalidate(&mut state, Some(PoolBackend::Forward));
            drain_to_exclusive(&old);
            drop(old);
        }
        let build = Instant::now();
        let pool = SamplePool::build_with_threads(&graph, theta, seed, self.threads)?;
        let info = PoolInfo::for_pool(&pool, self.threads, build.elapsed(), PoolProvenance::Built);
        state.pool = Some(Arc::new(pool));
        state.pool_info = Some(info.clone());
        self.invalidate(&mut state, Some(PoolBackend::Forward));
        self.counters.pool_builds.fetch_add(1, Relaxed);
        Ok((info, PoolAction::Built))
    }

    /// Makes a reverse-sketch pool with exactly `(θ_r, seed)` resident —
    /// the `POOL … backend=sketch` counterpart of
    /// [`SharedEngine::ensure_pool`], executed exclusively. A matching
    /// resident sketch pool is a no-op that keeps the cache; anything else
    /// rebuilds from scratch (sketch pools never extend in place) and
    /// evicts the cached `ris-greedy` answers. The forward pool, if any,
    /// stays resident untouched, and so do its cached answers. In-flight
    /// `ris-greedy` queries keep their own `Arc` to the old sketch pool;
    /// the rebuild waits for those references to drain before releasing the
    /// arenas, so peak memory stays at one sketch pool.
    ///
    /// # Errors
    /// [`EngineError::NoGraph`] before a graph is loaded, or the underlying
    /// build error (θ_r = 0, rejected before anything is dropped).
    pub fn ensure_sketch_pool(
        &self,
        theta_r: usize,
        seed: u64,
    ) -> Result<(SketchPoolInfo, PoolAction)> {
        let start = Instant::now();
        let result = self.ensure_sketch_pool_locked(theta_r, seed);
        self.metrics
            .verb(Verb::Pool)
            .record_us(start.elapsed().as_micros() as u64);
        result
    }

    fn ensure_sketch_pool_locked(
        &self,
        theta_r: usize,
        seed: u64,
    ) -> Result<(SketchPoolInfo, PoolAction)> {
        let mut state = write_unpoisoned(&self.state);
        let graph = state.graph.clone().ok_or(EngineError::NoGraph)?;
        if theta_r == 0 {
            return Err(imin_core::IminError::ZeroSamples.into());
        }
        if let Some(sketch) = state.sketch.as_ref() {
            if sketch.pool_seed() == seed && sketch.theta_r() == theta_r {
                self.counters.sketch_reuses.fetch_add(1, Relaxed);
                let info = state
                    .sketch_info
                    .clone()
                    .expect("resident sketch pool has info");
                return Ok((info, PoolAction::Reused));
            }
        }
        // Release the superseded sketch pool (after its readers drain)
        // before building the new one, and evict the cached `ris-greedy`
        // answers — they belonged to the old sketches.
        if let Some(old) = state.sketch.take() {
            state.sketch_info = None;
            self.invalidate(&mut state, Some(PoolBackend::Sketch));
            drain_to_exclusive(&old);
            drop(old);
        }
        let build = Instant::now();
        let sketch = SketchPool::build_with_threads(&graph, theta_r, seed, self.threads)?;
        let info = SketchPoolInfo::for_pool(
            &sketch,
            self.threads,
            build.elapsed(),
            PoolProvenance::Built,
        );
        state.sketch = Some(Arc::new(sketch));
        state.sketch_info = Some(info.clone());
        self.invalidate(&mut state, Some(PoolBackend::Sketch));
        self.counters.sketch_builds.fetch_add(1, Relaxed);
        Ok((info, PoolAction::Built))
    }

    /// Writes the resident `(graph, pool)` to a snapshot file. Runs
    /// **concurrently with queries**: it serialises from `Arc` clones
    /// taken under a brief read lock, so a multi-gigabyte write never
    /// stalls the query path (a simultaneous `POOL` rebuild waits for the
    /// save's pool reference to drain, like any other reader).
    ///
    /// # Errors
    /// [`EngineError::NoGraph`] / [`EngineError::NoPool`] before the engine
    /// is primed, or the snapshot writer's error.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotSummary> {
        let start = Instant::now();
        let result = self.save_snapshot_inner(path.as_ref());
        self.metrics
            .verb(Verb::Save)
            .record_us(start.elapsed().as_micros() as u64);
        result
    }

    fn save_snapshot_inner(&self, path: &Path) -> Result<SnapshotSummary> {
        let (graph, pool, label) = {
            let state = read_unpoisoned(&self.state);
            let graph = state.graph.clone().ok_or(EngineError::NoGraph)?;
            // Snapshot format v2 describes forward sample arenas only: a
            // sketch-only engine answers with a typed backend error rather
            // than the misleading "no pool built".
            let pool = match state.pool.clone() {
                Some(pool) => pool,
                None if state.sketch.is_some() => {
                    return Err(EngineError::BackendUnsupported {
                        operation: "SAVE",
                        backend: PoolBackend::Sketch.label(),
                    })
                }
                None => return Err(EngineError::NoPool),
            };
            (graph, pool, state.graph_label.clone())
        };
        let summary = snapshot::save_snapshot(path, &graph, &pool, &label)?;
        self.counters.snapshot_saves.fetch_add(1, Relaxed);
        Ok(summary)
    }

    /// Warm-starts from a snapshot file. The file is read and validated
    /// *before* the write lock is taken, so the engine keeps serving from
    /// its old state during the bulk load and swaps atomically at the end.
    /// A failed restore leaves the resident state untouched.
    ///
    /// # Errors
    /// Every snapshot defect surfaces as the typed
    /// [`imin_core::SnapshotError`] inside [`EngineError::Core`].
    pub fn restore_snapshot(&self, path: impl AsRef<Path>) -> Result<PoolInfo> {
        self.restore_snapshot_with(path, RestoreMode::Copy)
    }

    /// [`SharedEngine::restore_snapshot`] with an explicit [`RestoreMode`].
    /// `Map` skips the bulk copy entirely: the snapshot is memory-mapped
    /// after eager header/directory validation and arena slices are served
    /// straight from the page cache — first-query-ready in milliseconds
    /// regardless of pool size, with per-sample validation deferred to
    /// first touch (a corrupt sample answers `ERR internal …`, the engine
    /// stays healthy).
    ///
    /// # Errors
    /// Same as [`SharedEngine::restore_snapshot`]; `Map` additionally
    /// rejects v1 snapshots and big-endian hosts.
    pub fn restore_snapshot_with(
        &self,
        path: impl AsRef<Path>,
        mode: RestoreMode,
    ) -> Result<PoolInfo> {
        let start = Instant::now();
        let observability = self.observability();
        if observability {
            span::begin();
        }
        let result = self.restore_snapshot_inner(path.as_ref(), mode);
        let breakdown = span::take();
        if observability && result.is_ok() {
            for phase in SNAPSHOT_PHASES {
                self.metrics.phase(phase).record_us(breakdown.get(phase));
            }
            set_observation(Observation {
                trace_id: 0,
                disposition: "restore",
                phases: Some(breakdown),
            });
        }
        self.metrics
            .verb(Verb::Restore)
            .record_us(start.elapsed().as_micros() as u64);
        result
    }

    fn restore_snapshot_inner(&self, path: &Path, mode: RestoreMode) -> Result<PoolInfo> {
        let start = Instant::now();
        let (restored, provenance) = match mode {
            RestoreMode::Copy => (
                snapshot::load_snapshot(path)?,
                PoolProvenance::Restored {
                    path: path.display().to_string(),
                },
            ),
            RestoreMode::Map => (
                snapshot::map_snapshot(path)?,
                PoolProvenance::Mapped {
                    path: path.display().to_string(),
                },
            ),
        };
        let info = PoolInfo::for_pool(&restored.pool, self.threads, start.elapsed(), provenance);
        {
            let mut state = write_unpoisoned(&self.state);
            state.graph = Some(Arc::new(restored.graph));
            state.graph_label = if restored.label.is_empty() {
                format!("snapshot({})", path.display())
            } else {
                restored.label
            };
            state.pool = Some(Arc::new(restored.pool));
            state.pool_info = Some(info.clone());
            state.sketch = None;
            state.sketch_info = None;
            self.invalidate(&mut state, None);
        }
        self.counters.graph_loads.fetch_add(1, Relaxed);
        self.counters.snapshot_restores.fetch_add(1, Relaxed);
        Ok(info)
    }

    /// Re-encodes the resident pool into a compressed arena (delta-varint
    /// or per-sample bitset per realisation, whichever is smaller).
    /// Compressed pools answer queries **byte-identically** to the pool
    /// they came from, so the result cache and epoch survive — in-flight
    /// queries finish against their own `Arc` of the old pool and their
    /// answers stay valid. A heap-resident compressed pool whose
    /// realisations already sit in their smaller encodings
    /// ([`SamplePool::is_compact`], as a built weighted-cascade pool's
    /// bitsets do) is a no-op that keeps the resident pool.
    ///
    /// # Errors
    /// [`EngineError::NoGraph`] / [`EngineError::NoPool`] before the engine
    /// is primed, or the encoder's error.
    pub fn compress_pool(&self) -> Result<PoolInfo> {
        let verb_start = Instant::now();
        let result = self.compress_pool_inner();
        self.metrics
            .verb(Verb::Compress)
            .record_us(verb_start.elapsed().as_micros() as u64);
        result
    }

    fn compress_pool_inner(&self) -> Result<PoolInfo> {
        let mut state = write_unpoisoned(&self.state);
        let graph = state.graph.clone().ok_or(EngineError::NoGraph)?;
        let pool = state.pool.clone().ok_or(EngineError::NoPool)?;
        let start = Instant::now();
        if pool.arena_kind() == imin_core::ArenaKind::Compressed && pool.is_compact() {
            // The pool and its record are kept; the reply times this
            // check, not the build that produced the pool.
            let mut info = state.pool_info.clone().expect("resident pool has info");
            info.build_time = start.elapsed();
            return Ok(info);
        }
        let compressed = pool.compress(&graph, self.threads)?;
        let provenance = state
            .pool_info
            .as_ref()
            .map(|info| info.provenance.clone())
            .unwrap_or(PoolProvenance::Built);
        let info = PoolInfo::for_pool(&compressed, self.threads, start.elapsed(), provenance);
        state.pool = Some(Arc::new(compressed));
        state.pool_info = Some(info.clone());
        // No epoch bump and no cache reset: compressed answers are
        // byte-identical, every cached and in-flight answer stays correct.
        self.counters.pool_compressions.fetch_add(1, Relaxed);
        Ok(info)
    }

    /// Answers one query. Cache hit → immediate clone. Identical question
    /// already computing → wait for it (coalesced). Otherwise compute as a
    /// leader against an `Arc` snapshot of the pool, subject to the
    /// admission budget.
    ///
    /// # Errors
    /// [`EngineError::NoGraph`] / [`EngineError::NoPool`] before the engine
    /// is primed, [`EngineError::Busy`] when the admission budget is
    /// exhausted, the algorithm's validation error, or
    /// [`EngineError::Internal`] if the computation panicked (the engine
    /// itself stays healthy).
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        let start = Instant::now();
        let trace_id = self.metrics.next_trace_id();
        let result = self.query_inner(query, start, trace_id);
        self.metrics
            .verb(Verb::Query)
            .record_us(start.elapsed().as_micros() as u64);
        set_observation(match &result {
            Ok(answer) => Observation {
                trace_id,
                disposition: answer.disposition.as_str(),
                phases: answer.phases,
            },
            Err(EngineError::Busy { .. }) => Observation {
                trace_id,
                disposition: "rejected",
                phases: None,
            },
            Err(_) => Observation {
                trace_id,
                disposition: "error",
                phases: None,
            },
        });
        result
    }

    fn query_inner(&self, query: &Query, start: Instant, trace_id: u64) -> Result<QueryResult> {
        self.counters.queries.fetch_add(1, Relaxed);
        let key = query.key();
        let probe_start = Instant::now();
        let cached = self.cached(&key);
        let probe_us = probe_start.elapsed().as_micros() as u64;
        if let Some(hit) = cached {
            return Ok(served_from_cache(hit, start, trace_id));
        }
        // Snapshot the resident pair (and its backend's epoch) before
        // registering in the single-flight map, so rejected queries never
        // leave a slot behind. Only the backend the algorithm runs on is
        // cloned — `ris-greedy` takes the sketch pool, everything else the
        // forward pool — so the other backend can be swapped mid-compute
        // freely.
        let clone_start = Instant::now();
        let backend = key.backend();
        let (graph, pool, sketch, epoch) = {
            let state = read_unpoisoned(&self.state);
            let graph = state.graph.clone().ok_or(EngineError::NoGraph)?;
            let epoch = state.epochs.get(backend);
            match backend {
                PoolBackend::Sketch => {
                    let sketch = state.sketch.clone().ok_or(EngineError::NoSketchPool)?;
                    (graph, None, Some(sketch), epoch)
                }
                PoolBackend::Forward => {
                    let pool = state.pool.clone().ok_or(EngineError::NoPool)?;
                    (graph, Some(pool), None, epoch)
                }
            }
        };
        let clone_us = clone_start.elapsed().as_micros() as u64;
        match self.claim(&key)? {
            Role::Hit(hit) => Ok(served_from_cache(*hit, start, trace_id)),
            Role::Follower(slot) => {
                let outcome = slot.wait();
                self.counters.coalesced.fetch_add(1, Relaxed);
                match outcome {
                    Ok(mut result) => {
                        // Computed on our behalf, not fetched from the
                        // cache: report it as a fresh answer with our own
                        // wall-clock wait. The leader's phase breakdown
                        // rides along — it describes the one computation
                        // this answer came from.
                        result.from_cache = false;
                        result.elapsed = start.elapsed();
                        result.disposition = Disposition::Coalesced;
                        result.trace_id = trace_id;
                        Ok(result)
                    }
                    Err(reason) => Err(EngineError::Protocol(reason)),
                }
            }
            Role::Leader(slot) => {
                let compute = Instant::now();
                let observability = self.observability();
                if observability {
                    // Arm the thread-local span: the pooled solver laps its
                    // decode/bfs/domtree/credit/select work into it.
                    span::begin();
                }
                let mut outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_resident(
                        pool.as_deref(),
                        sketch.as_deref(),
                        &graph,
                        query,
                        self.query_threads,
                        start,
                    )
                }))
                .unwrap_or_else(|panic| Err(EngineError::Internal(panic_message(&panic))));
                // Always drain the span, even on error or panic — a stale
                // active span would pollute the next query on this thread.
                let mut breakdown = span::take();
                let compute_us = compute.elapsed().as_micros() as u64;
                if let Ok(result) = &mut outcome {
                    result.trace_id = trace_id;
                    if observability {
                        breakdown.add_us(Phase::Probe, probe_us);
                        breakdown.add_us(Phase::Clone, clone_us);
                        result.phases = Some(breakdown);
                        for phase in QUERY_PHASES {
                            self.metrics.phase(phase).record_us(breakdown.get(phase));
                        }
                    }
                }
                self.metrics.compute().record_us(compute_us);
                self.metrics
                    .algorithm(query.algorithm)
                    .record_us(compute_us);
                if let Ok(result) = &outcome {
                    self.counters
                        .recomputed
                        .fetch_add(result.recomputed as u64, Relaxed);
                    self.counters
                        .replayed
                        .fetch_add(result.replayed as u64, Relaxed);
                    let mut cache = lock_unpoisoned(&self.cache);
                    // Only cache answers for the pool that is *still*
                    // resident: a swap mid-compute bumped its epoch.
                    if cache.epochs.get(backend) == epoch {
                        cache.lru.insert(key.clone(), result.clone());
                    }
                }
                slot.publish(match &outcome {
                    Ok(result) => Ok(result.clone()),
                    Err(err) => Err(err.to_string()),
                });
                lock_unpoisoned(&self.inflight).remove(&key);
                self.counters.inflight.fetch_sub(1, Relaxed);
                self.counters.computed.fetch_add(1, Relaxed);
                outcome
            }
        }
    }

    /// The cached answer to `key`, counted as a cache hit.
    fn cached(&self, key: &QueryKey) -> Option<QueryResult> {
        let hit = lock_unpoisoned(&self.cache).lru.get(key).cloned()?;
        self.counters.cache_hits.fetch_add(1, Relaxed);
        Some(hit)
    }

    /// Decides how a question that missed the cache is answered: by
    /// joining the leader already computing it, from the cache after all,
    /// or by computing it as a new leader within the admission budget.
    ///
    /// The cache is probed again under the single-flight lock. A leader
    /// inserts its answer into the cache before it removes its slot, so a
    /// question that finished after this thread's first probe is found
    /// here rather than computed twice. The lock order is the map, then
    /// the cache; nothing takes them the other way round.
    fn claim(&self, key: &QueryKey) -> Result<Role> {
        let mut inflight = lock_unpoisoned(&self.inflight);
        if let Some(slot) = inflight.get(key) {
            return Ok(Role::Follower(Arc::clone(slot)));
        }
        if let Some(hit) = self.cached(key) {
            return Ok(Role::Hit(Box::new(hit)));
        }
        // The check and the gauge increment share the map mutex, so the
        // budget is exact: never more than `max_inflight` leaders compute
        // at once.
        if self.counters.inflight.load(Relaxed) >= self.max_inflight as u64 {
            drop(inflight);
            self.counters.rejected.fetch_add(1, Relaxed);
            return Err(EngineError::Busy {
                retry_after_ms: self.retry_after_ms(),
            });
        }
        self.counters.inflight.fetch_add(1, Relaxed);
        let slot = Arc::new(InflightSlot::default());
        inflight.insert(key.clone(), Arc::clone(&slot));
        Ok(Role::Leader(slot))
    }
}

/// How [`SharedEngine::claim`] answers a question that missed the cache.
enum Role {
    Hit(Box<QueryResult>),
    Leader(Arc<InflightSlot>),
    Follower(Arc<InflightSlot>),
}

/// A cached answer as this request's reply. The stored phase breakdown
/// (the original leader's) rides along — a trace of a cache hit shows what
/// the answer cost when it was computed.
fn served_from_cache(mut hit: QueryResult, start: Instant, trace_id: u64) -> QueryResult {
    hit.from_cache = true;
    hit.elapsed = start.elapsed();
    hit.disposition = Disposition::CacheHit;
    hit.trace_id = trace_id;
    hit
}

/// Busy-waits (1 ms naps) until `arc` is the only strong reference. Callers
/// hold the state write lock, so no new references can appear — existing
/// readers (queries, saves) finish and drop theirs.
fn drain_to_exclusive<T>(arc: &Arc<T>) {
    while Arc::strong_count(arc) > 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "query handler panicked".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use imin_core::{AlgorithmKind, ArenaKind};
    use imin_graph::{generators, VertexId};
    use std::sync::Barrier;

    pub(crate) fn wc_graph(n: usize, seed: u64) -> DiGraph {
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
            .unwrap()
    }

    pub(crate) fn primed(theta: usize) -> SharedEngine {
        let engine = SharedEngine::new().with_threads(1);
        engine.load_graph(wc_graph(300, 11), "pa-300/WC".into());
        engine.ensure_pool(theta, 5).unwrap();
        engine
    }

    pub(crate) fn query(seed: usize, budget: usize) -> Query {
        Query {
            seeds: vec![VertexId::new(seed)],
            budget,
            algorithm: AlgorithmKind::AdvancedGreedy,
            intervention: imin_core::Intervention::BlockVertices,
        }
    }

    #[test]
    fn lifecycle_errors_match_the_single_threaded_engine() {
        let engine = SharedEngine::new();
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoGraph)
        ));
        assert!(matches!(
            engine.ensure_pool(10, 1),
            Err(EngineError::NoGraph)
        ));
        assert!(matches!(
            engine.save_snapshot("/tmp/never.iminsnap"),
            Err(EngineError::NoGraph)
        ));
        engine.load_graph(wc_graph(60, 1), "g".into());
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoPool)
        ));
        assert!(engine.ensure_pool(0, 1).is_err(), "zero theta rejected");
    }

    #[test]
    fn answers_match_the_single_threaded_engine_bit_for_bit() {
        // Distinct questions computed at once on a multi-threaded engine
        // equal what a 1-thread engine answers when asked in turn.
        let oracle = primed(200);
        let engine = SharedEngine::new().with_threads(3);
        engine.load_graph(wc_graph(300, 11), "pa-300/WC".into());
        engine.ensure_pool(200, 5).unwrap();
        let questions = [query(0, 3), query(7, 2), query(12, 4)];
        let barrier = Barrier::new(questions.len());
        let answers: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = questions
                .iter()
                .map(|q| {
                    let (engine, barrier) = (&engine, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        engine.query(q).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (q, answer) in questions.iter().zip(&answers) {
            let expected = oracle.query(q).unwrap();
            assert_eq!(answer.blockers, expected.blockers);
            assert_eq!(answer.estimated_spread, expected.estimated_spread);
        }
    }

    #[test]
    fn permuted_or_duplicated_seeds_hit_the_same_cache_entry() {
        let engine = primed(200);
        let ask = |seeds: &[usize]| Query {
            seeds: seeds.iter().map(|&s| VertexId::new(s)).collect(),
            ..query(0, 3)
        };
        let first = engine.query(&ask(&[3, 0])).unwrap();
        assert!(!first.from_cache);
        for seeds in [&[3, 0][..], &[0, 3], &[0, 0, 3, 3]] {
            let again = engine.query(&ask(seeds)).unwrap();
            assert!(again.from_cache, "{seeds:?}");
            assert_eq!(again.blockers, first.blockers);
            assert_eq!(again.estimated_spread, first.estimated_spread);
        }
        assert_eq!(engine.stats().cache_hits, 3);
        assert_eq!(engine.cache_entries(), 1);
    }

    #[test]
    fn identical_concurrent_queries_compute_once() {
        let engine = Arc::new(primed(400));
        let clients = 8usize;
        let barrier = Arc::new(Barrier::new(clients));
        let mut handles = Vec::new();
        for _ in 0..clients {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                engine.query(&query(1, 4)).unwrap()
            }));
        }
        let answers: Vec<QueryResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for answer in &answers[1..] {
            assert_eq!(answer.blockers, answers[0].blockers);
            assert_eq!(answer.estimated_spread, answers[0].estimated_spread);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, clients as u64);
        assert_eq!(stats.computed, 1, "exactly one pool consultation");
        assert_eq!(
            stats.cache_hits + stats.coalesced,
            clients as u64 - 1,
            "everyone else coalesced or hit the cache: {stats:?}"
        );
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.inflight, 0, "gauge returns to zero");
    }

    /// The race behind a question computed twice, without the timing: a
    /// thread missed the cache, and before it reached the single-flight
    /// map the leader cached its answer and removed its slot. With no slot
    /// to join, the thread must take the cached answer, not lead again.
    #[test]
    fn a_question_finished_after_the_first_probe_is_served_from_the_cache() {
        let engine = primed(200);
        let q = query(1, 3);
        let answer = engine.query(&q).unwrap();
        let before = engine.stats();
        assert_eq!((before.computed, before.cache_hits), (1, 0));
        assert!(lock_unpoisoned(&engine.inflight).is_empty());
        let Role::Hit(hit) = engine.claim(&q.key()).unwrap() else {
            panic!("an empty map and a cached answer must give a cache hit");
        };
        assert_eq!(hit.blockers, answer.blockers);
        assert_eq!(hit.estimated_spread, answer.estimated_spread);
        let after = engine.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.computed, before.computed);
        assert_eq!(after.inflight, 0, "no leader slot was taken");
        assert!(lock_unpoisoned(&engine.inflight).is_empty());
    }

    #[test]
    fn admission_control_rejects_distinct_queries_over_budget() {
        // Budget 1 and a deliberately heavy query: the leader computes
        // while we try to slip a distinct query past it.
        let engine = Arc::new(SharedEngine::new().with_threads(1).with_max_inflight(1));
        engine.load_graph(wc_graph(2_000, 3), "pa-2000/WC".into());
        engine.ensure_pool(2_000, 9).unwrap();
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.query(&query(0, 6)).unwrap())
        };
        // Wait until the leader is definitely computing.
        let deadline = Instant::now() + Duration::from_secs(60);
        while engine.stats().inflight == 0 {
            assert!(Instant::now() < deadline, "leader never started computing");
            std::thread::yield_now();
        }
        let err = engine.query(&query(1, 2)).unwrap_err();
        match err {
            EngineError::Busy { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(engine.stats().rejected, 1);
        leader.join().unwrap();
        // The budget frees up and the same query now succeeds.
        assert!(engine.query(&query(1, 2)).is_ok());
    }

    #[test]
    fn pool_swaps_invalidate_and_fence_the_cache() {
        let engine = primed(200);
        let q = query(2, 3);
        engine.query(&q).unwrap();
        assert_eq!(engine.cache_entries(), 1);
        // Matching POOL keeps the cache; a reseeded POOL clears it.
        let (_, action) = engine.ensure_pool(200, 5).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert!(engine.query(&q).unwrap().from_cache);
        let (_, action) = engine.ensure_pool(200, 6).unwrap();
        assert_eq!(action, PoolAction::Built);
        assert_eq!(engine.cache_entries(), 0);
        assert!(!engine.query(&q).unwrap().from_cache);
        // Growing extends in place, bit-identical to a fresh build.
        let (info, action) = engine.ensure_pool(350, 6).unwrap();
        assert_eq!(action, PoolAction::Extended);
        assert_eq!(info.theta, 350);
    }

    #[test]
    fn each_backend_evicts_only_its_own_cached_answers() {
        let engine = primed(200);
        engine.ensure_sketch_pool(300, 7).unwrap();
        let forward = query(2, 3);
        let sketch = Query {
            algorithm: AlgorithmKind::RisGreedy,
            ..query(2, 3)
        };
        engine.query(&forward).unwrap();
        engine.query(&sketch).unwrap();
        assert_eq!(engine.cache_entries(), 2);
        // A forward rebuild, then an extension: the sketch answer stays.
        for theta in [200, 260] {
            engine.ensure_pool(theta, 6).unwrap();
            assert!(engine.query(&sketch).unwrap().from_cache, "θ={theta}");
            assert!(!engine.query(&forward).unwrap().from_cache, "θ={theta}");
        }
        // A sketch rebuild keeps the forward answer and drops its own.
        engine.ensure_sketch_pool(300, 8).unwrap();
        assert!(engine.query(&forward).unwrap().from_cache);
        assert!(!engine.query(&sketch).unwrap().from_cache);
        // A new graph drops both.
        engine.load_graph(wc_graph(300, 11), "again".into());
        assert_eq!(engine.cache_entries(), 0);
    }

    #[test]
    fn save_and_restore_round_trip_concurrently_safe() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-shared-roundtrip-{}.iminsnap",
            std::process::id()
        ));
        let engine = primed(150);
        let q = query(4, 2);
        let before = engine.query(&q).unwrap();
        engine.save_snapshot(&path).unwrap();
        let warm = SharedEngine::new().with_threads(1);
        let info = warm.restore_snapshot(&path).unwrap();
        assert_eq!(info.theta, 150);
        let after = warm.query(&q).unwrap();
        assert!(!after.from_cache);
        assert_eq!(before.blockers, after.blockers);
        assert_eq!(before.estimated_spread, after.estimated_spread);
        assert_eq!(warm.stats().snapshot_restores, 1);
        let _ = std::fs::remove_file(&path);
    }

    /// An engine serving `primed(theta)`'s realisations from a raw arena,
    /// as a copy restore of a version-1 snapshot file leaves them.
    fn primed_raw(theta: usize) -> SharedEngine {
        let source = primed(theta);
        let path = std::env::temp_dir().join(format!(
            "imin-shared-raw-{}-{theta}.iminsnap",
            std::process::id()
        ));
        {
            let state = read_unpoisoned(&source.state);
            let (graph, pool) = (state.graph.as_ref(), state.pool.as_ref());
            snapshot::save_snapshot_v1(&path, graph.unwrap(), pool.unwrap(), "pa-300/WC").unwrap();
        }
        let engine = SharedEngine::new().with_threads(1);
        let info = engine.restore_snapshot(&path).unwrap();
        assert_eq!(info.arena, ArenaKind::Raw);
        let _ = std::fs::remove_file(&path);
        engine
    }

    #[test]
    fn compress_pool_swaps_arenas_without_disturbing_answers() {
        let engine = primed_raw(200);
        let q = query(2, 3);
        engine.query(&q).unwrap();
        assert_eq!(engine.cache_entries(), 1);
        let info = engine.compress_pool().unwrap();
        assert_eq!(info.arena, ArenaKind::Compressed);
        assert_eq!(
            engine.cache_entries(),
            1,
            "byte-identical answers: the cache survives the swap"
        );
        assert!(engine.query(&q).unwrap().from_cache);
        let fresh = engine.query(&query(7, 2)).unwrap();
        let reference = primed(200).query(&query(7, 2)).unwrap();
        assert_eq!(fresh.blockers, reference.blockers);
        assert_eq!(fresh.estimated_spread, reference.estimated_spread);
        assert_eq!(engine.stats().pool_compressions, 1);
        // Idempotent; a growing POOL afterwards extends the compressed pool.
        engine.compress_pool().unwrap();
        assert_eq!(engine.stats().pool_compressions, 1);
        let (_, action) = engine.ensure_pool(300, 5).unwrap();
        assert_eq!(action, PoolAction::Extended);
        assert_eq!(engine.stats().pool_extends, 1);
    }

    /// COMPRESS keeps a built pool whose bitsets are already the smaller
    /// encoding (the same `Arc`, nothing re-encoded), and re-encodes one
    /// on a sparse-coin graph, where some realisations shrink as varint —
    /// with the same answers either way.
    #[test]
    fn compress_pool_reencodes_only_pools_that_shrink() {
        let engine = primed(200);
        let resident = |engine: &SharedEngine| {
            Arc::clone(read_unpoisoned(&engine.state).pool.as_ref().unwrap())
        };
        let build_time = |engine: &SharedEngine| {
            let state = read_unpoisoned(&engine.state);
            state.pool_info.as_ref().unwrap().build_time
        };
        let before = resident(&engine);
        let built = build_time(&engine);
        assert!(before.is_compact());
        let info = engine.compress_pool().unwrap();
        assert_eq!(info.arena, ArenaKind::Compressed);
        assert!(Arc::ptr_eq(&before, &resident(&engine)), "the pool is kept");
        assert_eq!(build_time(&engine), built, "the resident record is kept");
        assert_eq!(engine.stats().pool_compressions, 0);

        let sparse = || {
            let engine = SharedEngine::new().with_threads(1);
            let graph = generators::erdos_renyi(300, 0.1, 0.02, 4).unwrap();
            engine.load_graph(graph, "er-300/p=0.02".into());
            engine.ensure_pool(60, 5).unwrap();
            engine
        };
        let engine = sparse();
        let built = resident(&engine);
        assert!(!built.is_compact());
        engine.compress_pool().unwrap();
        assert_eq!(engine.stats().pool_compressions, 1);
        let compressed = resident(&engine);
        assert!(compressed.is_compact());
        assert!(compressed.memory_bytes() < built.memory_bytes());
        let reference = sparse().query(&query(1, 3)).unwrap();
        let answer = engine.query(&query(1, 3)).unwrap();
        assert_eq!(answer.blockers, reference.blockers);
        assert_eq!(answer.estimated_spread, reference.estimated_spread);
        engine.compress_pool().unwrap();
        assert_eq!(engine.stats().pool_compressions, 1, "idempotent");
    }

    #[test]
    fn mapped_restore_serves_queries_from_the_snapshot_file() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-shared-maprestore-{}.iminsnap",
            std::process::id()
        ));
        let engine = primed(150);
        let q = query(4, 2);
        let before = engine.query(&q).unwrap();
        engine.save_snapshot(&path).unwrap();
        let warm = SharedEngine::new().with_threads(1);
        let info = warm.restore_snapshot_with(&path, RestoreMode::Map).unwrap();
        assert_eq!(info.theta, 150);
        assert_eq!(info.arena, ArenaKind::MappedCompressed);
        assert_eq!(
            info.provenance.label(),
            format!("mapped:{}", path.display())
        );
        let after = warm.query(&q).unwrap();
        assert_eq!(before.blockers, after.blockers);
        assert_eq!(before.estimated_spread, after.estimated_spread);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sketch_queries_serve_concurrently_and_deterministically() {
        let engine = Arc::new(primed(150));
        engine.ensure_sketch_pool(400, 7).unwrap();
        let sketch_query = Query {
            algorithm: AlgorithmKind::RisGreedy,
            ..query(1, 4)
        };
        let clients = 6usize;
        let barrier = Arc::new(Barrier::new(clients));
        let mut handles = Vec::new();
        for _ in 0..clients {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let q = sketch_query.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                engine.query(&q).unwrap()
            }));
        }
        let answers: Vec<QueryResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for answer in &answers[1..] {
            assert_eq!(answer.blockers, answers[0].blockers);
            assert_eq!(answer.estimated_spread, answers[0].estimated_spread);
        }
        // The shared answer matches a fresh 1-thread engine bit for bit.
        let oracle = SharedEngine::new().with_threads(1);
        oracle.load_graph(wc_graph(300, 11), "pa-300/WC".into());
        oracle.ensure_sketch_pool(400, 7).unwrap();
        let reference = oracle.query(&sketch_query).unwrap();
        assert_eq!(answers[0].blockers, reference.blockers);
        assert_eq!(answers[0].estimated_spread, reference.estimated_spread);
        // Forward queries still work next to the sketch pool.
        assert!(engine.query(&query(0, 2)).is_ok());
        assert_eq!(engine.stats().sketch_builds, 1);
        // Matching sketch POOL is a reuse.
        let (_, action) = engine.ensure_sketch_pool(400, 7).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert_eq!(engine.stats().sketch_reuses, 1);
    }

    #[test]
    fn ris_greedy_without_a_sketch_pool_is_a_typed_error() {
        let engine = primed(100);
        let ris = Query {
            algorithm: AlgorithmKind::RisGreedy,
            ..query(0, 2)
        };
        let err = engine.query(&ris).unwrap_err();
        assert!(matches!(err, EngineError::NoSketchPool), "got {err:?}");
    }

    #[test]
    fn save_on_a_sketch_only_shared_engine_is_a_typed_backend_error() {
        let engine = SharedEngine::new().with_threads(1);
        engine.load_graph(wc_graph(100, 3), "pa-100/WC".into());
        engine.ensure_sketch_pool(100, 1).unwrap();
        let err = engine
            .save_snapshot("/tmp/never-written-shared-sketch.iminsnap")
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::BackendUnsupported {
                    operation: "SAVE",
                    backend: "sketch"
                }
            ),
            "got {err:?}"
        );
        assert_eq!(engine.stats().snapshot_saves, 0);
        // With a forward pool also resident, SAVE works again.
        engine.ensure_pool(50, 2).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-shared-sketchsave-{}.iminsnap",
            std::process::id()
        ));
        engine.save_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_internal_locks_recover() {
        let engine = Arc::new(primed(100));
        let q = query(3, 2);
        engine.query(&q).unwrap();
        // Poison the cache mutex: panic while holding its guard.
        {
            let engine = Arc::clone(&engine);
            let _ = std::thread::spawn(move || {
                let _guard = engine.cache.lock().unwrap();
                panic!("poison the cache lock");
            })
            .join();
        }
        assert!(engine.cache.is_poisoned());
        // Queries keep working: hits, misses, and new inserts.
        assert!(engine.query(&q).unwrap().from_cache);
        assert!(!engine.query(&query(9, 2)).unwrap().from_cache);
        // State transitions recover the RwLock the same way.
        {
            let engine = Arc::clone(&engine);
            let _ = std::thread::spawn(move || {
                let _guard = engine.state.write().unwrap();
                panic!("poison the state lock");
            })
            .join();
        }
        engine.load_graph(wc_graph(80, 9), "recovered".into());
        assert_eq!(engine.view().graph_label, "recovered");
    }
}
