//! What the engine is asked and what it answers: queries, results and the
//! facts of the resident pools, plus `run_resident`, which answers one
//! query against those pools.

use crate::{EngineError, Result};
use imin_core::{
    AlgorithmKind, ArenaKind, ContainmentRequest, Intervention, SamplePool, SketchPool,
};
use imin_graph::{DiGraph, VertexId};
use std::time::{Duration, Instant};

/// One containment question: how should a budget of `budget` interventions
/// be spent to minimise the spread from `seeds`? The default
/// [`Intervention::BlockVertices`] asks the paper's question — which
/// vertices to block; `intervene=edge`/`intervene=prebunk:<alpha>` requests
/// ask for edge removals or prebunk targets instead.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Misinformation seed vertices (order and duplicates are irrelevant —
    /// the engine canonicalises).
    pub seeds: Vec<VertexId>,
    /// Maximum number of blocked vertices, removed edges or prebunked
    /// vertices, depending on `intervention`.
    pub budget: usize,
    /// Which algorithm to run. Any registered algorithm may be asked for;
    /// those whose solver cannot run against a resident pool
    /// (BaselineGreedy, Exact) answer with a typed
    /// [`imin_core::IminError::BackendUnsupported`] error.
    pub algorithm: AlgorithmKind,
    /// Which intervention family the budget buys.
    pub intervention: Intervention,
}

/// Canonical cache key of a query: sorted deduplicated seeds + budget +
/// algorithm + intervention. The intervention is keyed by its canonical
/// protocol rendering (`vertex`, `edge`, `prebunk:<alpha>`) so the key
/// stays `Hash + Eq` despite the `f64` prebunk parameter.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    seeds: Vec<u32>,
    budget: usize,
    algorithm: AlgorithmKind,
    intervention: String,
}

impl QueryKey {
    /// The backend the keyed question is answered from.
    pub(crate) fn backend(&self) -> PoolBackend {
        PoolBackend::of(self.algorithm)
    }
}

impl Query {
    pub(crate) fn key(&self) -> QueryKey {
        let mut seeds: Vec<u32> = self.seeds.iter().map(|s| s.raw()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        QueryKey {
            seeds,
            budget: self.budget,
            algorithm: self.algorithm,
            intervention: self.intervention.to_string(),
        }
    }
}

/// How a query's answer was produced — surfaced in the trace suffix and
/// the access log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Disposition {
    /// A leader computed the answer against the resident pool.
    #[default]
    Computed,
    /// The answer was served from the LRU result cache.
    CacheHit,
    /// The request rode along on an identical in-flight computation.
    Coalesced,
}

impl Disposition {
    /// Stable lowercase name used in traces and access-log records.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Computed => "computed",
            Disposition::CacheHit => "cache_hit",
            Disposition::Coalesced => "coalesced",
        }
    }
}

/// The engine's answer to a [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Chosen blockers in selection order (prebunk targets for
    /// `intervene=prebunk:<alpha>` queries; empty for edge queries).
    pub blockers: Vec<VertexId>,
    /// Removed edges in selection order — filled by `intervene=edge`
    /// queries, empty otherwise.
    pub blocked_edges: Vec<(VertexId, VertexId)>,
    /// Estimated expected spread remaining after blocking, counting every
    /// seed as active (original-graph terms).
    pub estimated_spread: Option<f64>,
    /// Greedy/replacement rounds executed.
    pub rounds: usize,
    /// Pool consultations: θ per estimator round (no new samples are ever
    /// drawn — the pool is resident).
    pub samples_consulted: usize,
    /// Realisations the estimator kernel actually rebuilt, summed over its
    /// passes: at most `samples_consulted`, because a greedy round after
    /// the first rebuilds only those its last pick can change.
    pub recomputed: usize,
    /// Of those, the realisations rebuilt from the cascade the query's
    /// first pass recorded, without reading the pool again.
    pub replayed: usize,
    /// Worker threads the computation ran on: the engine's query-thread
    /// ceiling shared among the questions computing when it started.
    pub workers: usize,
    /// Whether the answer came from the LRU cache.
    pub from_cache: bool,
    /// Wall-clock time to produce (or fetch) the answer.
    pub elapsed: Duration,
    /// How this answer was produced (computed / cache hit / coalesced).
    pub disposition: Disposition,
    /// Per-request trace id assigned by [`crate::SharedEngine::query`].
    pub trace_id: u64,
    /// Per-phase time breakdown of the computation that produced this
    /// answer, when observability was enabled. Cache hits and coalesced
    /// answers carry the breakdown of the original leader computation.
    pub phases: Option<imin_obs::PhaseBreakdown>,
}

/// How the resident pool came to be — surfaced by `STATS` so operators can
/// tell a warm-started engine from one that resampled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolProvenance {
    /// The pool was sampled from scratch by this process.
    Built,
    /// The pool was grown in place from a smaller resident pool with
    /// [`SamplePool::extend_to`] (bit-identical to a fresh build).
    Extended {
        /// θ the resident pool had before the extension.
        from_theta: usize,
    },
    /// The pool was bulk-loaded from a snapshot file.
    Restored {
        /// Path the snapshot was read from.
        path: String,
    },
    /// The pool's arenas are served directly out of a memory-mapped
    /// snapshot file (`RESTORE … mode=map`): no bulk copy happened, pages
    /// fault in on first touch.
    Mapped {
        /// Path of the mapped snapshot file.
        path: String,
    },
}

impl PoolProvenance {
    /// Compact `STATS`-friendly rendering (`built`, `extended:<from θ>`,
    /// `restored:<path>`).
    pub fn label(&self) -> String {
        match self {
            PoolProvenance::Built => "built".into(),
            PoolProvenance::Extended { from_theta } => format!("extended:{from_theta}"),
            PoolProvenance::Restored { path } => format!("restored:{path}"),
            PoolProvenance::Mapped { path } => format!("mapped:{path}"),
        }
    }
}

/// How `RESTORE` should bring a snapshot's arenas back into the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestoreMode {
    /// Bulk-load the arenas onto the heap (the only mode before snapshot
    /// format v2). Works for every readable snapshot version.
    #[default]
    Copy,
    /// Memory-map the snapshot and serve arena slices straight from the
    /// page cache — first-query-ready in milliseconds regardless of pool
    /// size. Requires a v2 snapshot and a little-endian host; per-sample
    /// validation is deferred to first touch.
    Map,
}

impl RestoreMode {
    /// Protocol token (`copy` / `map`).
    pub fn label(self) -> &'static str {
        match self {
            RestoreMode::Copy => "copy",
            RestoreMode::Map => "map",
        }
    }
}

/// What [`crate::SharedEngine::ensure_pool`] (or its sketch counterpart)
/// actually did to satisfy a `POOL` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolAction {
    /// A pool with the exact `(θ, seed)` was already resident — nothing
    /// changed, the result cache survives.
    Reused,
    /// The resident pool had the right seed and a smaller θ; the missing
    /// realisations were drawn in place.
    Extended,
    /// A pool was sampled from scratch.
    Built,
}

impl PoolAction {
    /// Protocol token for the `POOL` reply (`resident`, `extended`,
    /// `built`).
    pub fn label(self) -> &'static str {
        match self {
            PoolAction::Reused => "resident",
            PoolAction::Extended => "extended",
            PoolAction::Built => "built",
        }
    }
}

/// Facts about the resident pool, recorded when it was built, extended or
/// restored.
#[derive(Clone, Debug)]
pub struct PoolInfo {
    /// Number of realisations θ.
    pub theta: usize,
    /// Base pool seed.
    pub seed: u64,
    /// Worker threads used for the build.
    pub threads: usize,
    /// Wall-clock time of the build, extension, compression or restore
    /// that produced the current pool state.
    pub build_time: Duration,
    /// True resident bytes held by the pool: every owned allocation's
    /// capacity (elements, `Vec` headers and all) plus bytes served out of
    /// a mapping, as reported by [`SamplePool::memory_bytes`] and
    /// [`SamplePool::mapped_bytes`].
    pub memory_bytes: usize,
    /// Total live edges stored across all realisations.
    pub live_edges: usize,
    /// Which arena backend holds the realisations.
    pub arena: ArenaKind,
    /// `(owned + mapped) / raw-equivalent` bytes — 1.0-ish for raw arenas,
    /// well below 1 for compressed ones.
    pub compression_ratio: f64,
    /// How the pool came to be.
    pub provenance: PoolProvenance,
}

impl PoolInfo {
    /// Records the facts of `pool` as it currently stands.
    pub(crate) fn for_pool(
        pool: &SamplePool,
        threads: usize,
        build_time: Duration,
        provenance: PoolProvenance,
    ) -> Self {
        PoolInfo {
            theta: pool.theta(),
            seed: pool.pool_seed(),
            threads,
            build_time,
            memory_bytes: pool.memory_bytes() + pool.mapped_bytes(),
            live_edges: pool.total_live_edges(),
            arena: pool.arena_kind(),
            compression_ratio: pool.compression_ratio(),
            provenance,
        }
    }
}

/// Which estimator family a `POOL` request targets — the `backend=` key of
/// the protocol's `POOL` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolBackend {
    /// Forward live-edge realisations ([`SamplePool`]) — the default, and
    /// the backend every forward algorithm (AG, GR, heuristics) runs on.
    #[default]
    Forward,
    /// Reverse-reachable sketches ([`SketchPool`]) — the backend
    /// `ris-greedy` runs on.
    Sketch,
}

impl PoolBackend {
    /// The backend `algorithm` answers from: `ris-greedy` the sketch pool,
    /// every other algorithm the forward pool.
    pub(crate) fn of(algorithm: AlgorithmKind) -> Self {
        if algorithm == AlgorithmKind::RisGreedy {
            PoolBackend::Sketch
        } else {
            PoolBackend::Forward
        }
    }

    /// Protocol token (`forward` / `sketch`).
    pub fn label(self) -> &'static str {
        match self {
            PoolBackend::Forward => "forward",
            PoolBackend::Sketch => "sketch",
        }
    }

    /// Parses a `backend=` value from the protocol (case-insensitive).
    pub fn parse(token: &str) -> Option<Self> {
        if token.eq_ignore_ascii_case("forward") {
            Some(PoolBackend::Forward)
        } else if token.eq_ignore_ascii_case("sketch") {
            Some(PoolBackend::Sketch)
        } else {
            None
        }
    }
}

/// Facts about the resident reverse-sketch pool, recorded when it was
/// built — the sketch-backend counterpart of [`PoolInfo`].
#[derive(Clone, Debug)]
pub struct SketchPoolInfo {
    /// Number of reverse sketches θ_r.
    pub theta_r: usize,
    /// Base pool seed.
    pub seed: u64,
    /// Worker threads used for the build.
    pub threads: usize,
    /// Wall-clock time of the build.
    pub build_time: Duration,
    /// Resident bytes held by the sketch pool (every owned allocation's
    /// capacity, as reported by [`SketchPool::memory_bytes`]).
    pub memory_bytes: usize,
    /// Total vertex memberships stored across all sketches.
    pub total_members: usize,
    /// Mean vertices per sketch.
    pub avg_sketch_size: f64,
    /// How the sketch pool came to be (always `Built` today — sketch pools
    /// have no snapshot format yet).
    pub provenance: PoolProvenance,
}

impl SketchPoolInfo {
    /// Records the facts of `pool` as it currently stands.
    pub(crate) fn for_pool(
        pool: &SketchPool,
        threads: usize,
        build_time: Duration,
        provenance: PoolProvenance,
    ) -> Self {
        SketchPoolInfo {
            theta_r: pool.theta_r(),
            seed: pool.pool_seed(),
            threads,
            build_time,
            memory_bytes: pool.memory_bytes(),
            total_members: pool.total_members(),
            avg_sketch_size: pool.avg_sketch_size(),
            provenance,
        }
    }
}

/// Answers one query against the backend its algorithm runs on:
/// `ris-greedy` needs the resident sketch pool ([`EngineError::NoSketchPool`]
/// when absent), every forward algorithm the resident sample pool
/// ([`EngineError::NoPool`]). The query becomes a [`ContainmentRequest`]
/// dispatched through the [`AlgorithmKind`] registry — no per-algorithm
/// `match` lives in the engine.
pub(crate) fn run_resident(
    pool: Option<&SamplePool>,
    sketch: Option<&SketchPool>,
    graph: &DiGraph,
    query: &Query,
    threads: usize,
    start: Instant,
) -> Result<QueryResult> {
    // The request builder demands canonical seeds; the engine accepts any
    // order and duplicates (they already collapse in the cache key).
    let mut seeds = query.seeds.clone();
    seeds.sort_unstable();
    seeds.dedup();
    let builder = ContainmentRequest::builder(graph)
        .seeds(seeds)
        .budget(query.budget)
        .intervention(query.intervention);
    let builder = if query.algorithm == AlgorithmKind::RisGreedy {
        builder.sketch_pooled(sketch.ok_or(EngineError::NoSketchPool)?, threads)
    } else {
        builder.pooled_with_threads(pool.ok_or(EngineError::NoPool)?, threads)
    };
    let request = builder.build()?;
    let selection = query.algorithm.solver().solve(graph, &request)?;
    Ok(QueryResult {
        blockers: selection.blockers,
        blocked_edges: selection.blocked_edges,
        estimated_spread: selection.estimated_spread,
        rounds: selection.stats.rounds,
        samples_consulted: selection.stats.samples_drawn,
        recomputed: selection.stats.samples_rebuilt,
        replayed: selection.stats.samples_replayed,
        workers: threads,
        from_cache: false,
        elapsed: start.elapsed(),
        disposition: Disposition::Computed,
        trace_id: 0,
        phases: None,
    })
}

#[cfg(test)]
mod tests {
    // The resident-state contract, checked on a 1-thread `SharedEngine`
    // driven from one caller.
    use super::*;
    use crate::shared::tests::{primed, query, wc_graph};
    use crate::SharedEngine;
    use imin_core::IminError;

    /// Registry algorithms with no pooled solver.
    const SIMULATION_ONLY: [AlgorithmKind; 2] =
        [AlgorithmKind::BaselineGreedy, AlgorithmKind::Exact];

    fn ask(algorithm: AlgorithmKind, seed: usize, budget: usize) -> Query {
        Query {
            algorithm,
            ..query(seed, budget)
        }
    }

    fn temp_snapshot(tag: &str) -> std::path::PathBuf {
        let name = format!("imin-engine-{tag}-{}.iminsnap", std::process::id());
        std::env::temp_dir().join(name)
    }

    #[test]
    fn lifecycle_errors_are_explicit() {
        let engine = SharedEngine::new().with_threads(1);
        assert!(matches!(
            engine.ensure_pool(10, 1),
            Err(EngineError::NoGraph)
        ));
        assert!(matches!(
            engine.ensure_sketch_pool(10, 1),
            Err(EngineError::NoGraph)
        ));
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoGraph)
        ));
        engine.load_graph(wc_graph(50, 1), "g".into());
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoPool)
        ));
        let ris = ask(AlgorithmKind::RisGreedy, 0, 1);
        assert!(matches!(engine.query(&ris), Err(EngineError::NoSketchPool)));
        assert!(engine.ensure_pool(0, 1).is_err(), "zero theta is rejected");
        assert!(
            engine.ensure_sketch_pool(0, 1).is_err(),
            "zero theta_r is rejected"
        );
    }

    #[test]
    fn snapshot_lifecycle_errors_are_explicit() {
        let engine = SharedEngine::new().with_threads(1);
        let nowhere = "/tmp/never-written.iminsnap";
        assert!(matches!(
            engine.save_snapshot(nowhere),
            Err(EngineError::NoGraph)
        ));
        engine.load_graph(wc_graph(50, 1), "g".into());
        assert!(matches!(
            engine.save_snapshot(nowhere),
            Err(EngineError::NoPool)
        ));
        // A failed restore keeps the resident state untouched.
        engine.ensure_pool(50, 1).unwrap();
        assert!(engine
            .restore_snapshot("/nonexistent/nowhere.iminsnap")
            .is_err());
        let view = engine.view();
        assert_eq!(view.pool_info.unwrap().theta, 50);
        assert_eq!(view.graph_label, "g");
    }

    #[test]
    fn rebuilding_the_pool_invalidates_the_cache() {
        let engine = primed(200);
        let q = query(0, 2);
        let first = engine.query(&q).unwrap();
        engine.ensure_pool(200, 6).unwrap(); // different pool seed
        assert_eq!(engine.cache_entries(), 0);
        let second = engine.query(&q).unwrap();
        assert!(!second.from_cache);
        // Same graph, different pool: answers may or may not coincide, but
        // the engine must have recomputed them.
        assert_eq!(first.samples_consulted, second.samples_consulted);
    }

    #[test]
    fn matching_pool_requests_are_noops_that_keep_the_cache() {
        let engine = primed(200);
        let q = query(0, 2);
        engine.query(&q).unwrap();
        let (info, action) = engine.ensure_pool(200, 5).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert_eq!(info.provenance, PoolProvenance::Built);
        assert_eq!(engine.cache_entries(), 1, "cache must survive the no-op");
        assert!(engine.query(&q).unwrap().from_cache);
        let stats = engine.stats();
        assert_eq!((stats.pool_builds, stats.pool_reuses), (1, 1));
    }

    #[test]
    fn growing_pool_requests_extend_in_place_bit_identically() {
        let engine = primed(200);
        let q = query(0, 3);
        engine.query(&q).unwrap();
        let (info, action) = engine.ensure_pool(350, 5).unwrap();
        assert_eq!((action, info.theta), (PoolAction::Extended, 350));
        assert_eq!(
            info.provenance,
            PoolProvenance::Extended { from_theta: 200 }
        );
        assert_eq!(engine.cache_entries(), 0, "answers may change with θ");
        let grown = engine.query(&q).unwrap();
        assert!(!grown.from_cache);
        let stats = engine.stats();
        assert_eq!(
            (stats.pool_extends, stats.pool_builds),
            (1, 1),
            "no rebuild"
        );
        // The extended pool answers exactly like a freshly built θ=350 pool.
        let scratch = primed(350);
        let reference = scratch.query(&q).unwrap();
        assert_eq!(grown.blockers, reference.blockers);
        assert_eq!(grown.estimated_spread, reference.estimated_spread);
        assert_eq!(
            imin_core::snapshot::pool_digest(&engine.view().pool.unwrap()),
            imin_core::snapshot::pool_digest(&scratch.view().pool.unwrap()),
            "arena bytes are identical after the in-place extension"
        );
    }

    #[test]
    fn shrinking_or_reseeded_pool_requests_rebuild() {
        let engine = primed(200);
        let (info, action) = engine.ensure_pool(100, 5).unwrap();
        assert_eq!(action, PoolAction::Built, "shrinking resamples exactly θ");
        assert_eq!(info.theta, 100);
        let (_, action) = engine.ensure_pool(100, 9).unwrap();
        assert_eq!(action, PoolAction::Built, "a new seed is a new pool");
        assert_eq!(engine.stats().pool_builds, 3);
    }

    #[test]
    fn save_and_restore_round_trip_through_the_engine_api() {
        let path = temp_snapshot("roundtrip");
        let engine = primed(150);
        let q = query(2, 3);
        let before = engine.query(&q).unwrap();
        let summary = engine.save_snapshot(&path).unwrap();
        assert_eq!(summary.theta, 150);
        assert!(summary.bytes_written > 0);
        assert_eq!(engine.stats().snapshot_saves, 1);
        let warm = SharedEngine::new().with_threads(1);
        let info = warm.restore_snapshot(&path).unwrap();
        assert_eq!((info.theta, info.seed), (150, 5));
        let path_label = path.display().to_string();
        assert_eq!(
            info.provenance,
            PoolProvenance::Restored { path: path_label }
        );
        assert_eq!(warm.view().graph_label, "pa-300/WC");
        let after = warm.query(&q).unwrap();
        assert!(!after.from_cache);
        assert_eq!(before.blockers, after.blockers);
        assert_eq!(before.estimated_spread, after.estimated_spread);
        assert_eq!(warm.stats().snapshot_restores, 1);
        // A matching POOL after the restore is a no-op on the restored pool.
        assert_eq!(warm.ensure_pool(150, 5).unwrap().1, PoolAction::Reused);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn any_pool_capable_registry_algorithm_answers_queries() {
        let engine = primed(200);
        engine.ensure_sketch_pool(200, 7).unwrap();
        for &algorithm in AlgorithmKind::all() {
            if SIMULATION_ONLY.contains(&algorithm) {
                continue;
            }
            let result = engine
                .query(&ask(algorithm, 0, 3))
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            assert!(result.blockers.len() <= 3, "{algorithm:?}");
            assert!(
                !result.blockers.contains(&VertexId::new(0)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn simulation_only_algorithms_report_the_unsupported_backend() {
        let engine = primed(100);
        for algorithm in SIMULATION_ONLY {
            let err = engine.query(&ask(algorithm, 0, 2)).unwrap_err();
            assert!(
                matches!(err, EngineError::Core(IminError::BackendUnsupported { .. })),
                "{algorithm:?}: {err:?}"
            );
        }
    }

    #[test]
    fn compress_pool_keeps_the_cache_and_the_answers() {
        let engine = primed(200);
        let q = query(0, 3);
        engine.query(&q).unwrap();
        let info = engine.compress_pool().unwrap();
        assert_eq!(info.arena, ArenaKind::Compressed);
        assert!(info.compression_ratio > 0.0);
        assert_eq!(
            info.provenance,
            PoolProvenance::Built,
            "provenance survives"
        );
        assert_eq!(
            engine.cache_entries(),
            1,
            "byte-identical answers keep the cache"
        );
        assert!(engine.query(&q).unwrap().from_cache);
        // Fresh questions against the compressed arena match the raw pool.
        let compressed = engine.query(&query(1, 2)).unwrap();
        let reference = primed(200).query(&query(1, 2)).unwrap();
        assert_eq!(reference.blockers, compressed.blockers);
        assert_eq!(reference.estimated_spread, compressed.estimated_spread);
        assert_eq!(reference.samples_consulted, compressed.samples_consulted);
    }

    #[test]
    fn ensure_pool_extends_a_compressed_pool_in_place() {
        let engine = primed(200);
        engine.compress_pool().unwrap();
        // A matching request still reuses the compressed pool as-is.
        let (info, action) = engine.ensure_pool(200, 5).unwrap();
        assert_eq!(
            (action, info.arena),
            (PoolAction::Reused, ArenaKind::Compressed)
        );
        let (info, action) = engine.ensure_pool(300, 5).unwrap();
        assert_eq!(
            action,
            PoolAction::Extended,
            "compressed arenas grow in place"
        );
        assert_eq!((info.theta, info.arena), (300, ArenaKind::Compressed));
        assert_eq!(engine.stats().pool_extends, 1);
        let (grown, fresh) = (query(1, 3), primed(300).query(&query(1, 3)).unwrap());
        let grown = engine.query(&grown).unwrap();
        assert_eq!(grown.blockers, fresh.blockers);
        assert_eq!(grown.estimated_spread, fresh.estimated_spread);
    }

    #[test]
    fn mapped_restore_answers_byte_identically_to_a_copy_restore() {
        let path = temp_snapshot("maprestore");
        primed(150).save_snapshot(&path).unwrap();
        let restore = |mode| {
            let engine = SharedEngine::new().with_threads(1);
            let info = engine.restore_snapshot_with(&path, mode).unwrap();
            (engine, info)
        };
        let (copied, _) = restore(RestoreMode::Copy);
        let (mapped, info) = restore(RestoreMode::Map);
        assert_eq!(info.arena, ArenaKind::MappedCompressed);
        let path_label = path.display().to_string();
        assert_eq!(info.provenance, PoolProvenance::Mapped { path: path_label });
        for q in [query(2, 3), query(5, 2)] {
            let (a, b) = (copied.query(&q).unwrap(), mapped.query(&q).unwrap());
            assert_eq!(a.blockers, b.blockers);
            assert_eq!(a.estimated_spread, b.estimated_spread);
        }
        // A growing POOL on the mapped pool rebuilds instead of extending.
        let (info, action) = mapped.ensure_pool(300, 5).unwrap();
        assert_eq!(
            (action, info.arena),
            (PoolAction::Built, ArenaKind::Compressed)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sketch_pool_residency_reuses_and_rebuilds() {
        let engine = SharedEngine::new().with_threads(1);
        engine.load_graph(wc_graph(300, 11), "pa-300/WC".into());
        let q = ask(AlgorithmKind::RisGreedy, 0, 3);
        let (info, action) = engine.ensure_sketch_pool(400, 7).unwrap();
        assert_eq!(
            (action, info.theta_r, info.seed),
            (PoolAction::Built, 400, 7)
        );
        assert!(info.memory_bytes > 0);
        let first = engine.query(&q).unwrap();
        assert!(first.blockers.len() <= 3);
        assert!(!first.blockers.contains(&VertexId::new(0)));
        assert_eq!(first.samples_consulted, 400);
        // A matching request is a no-op that keeps the cache.
        let (_, action) = engine.ensure_sketch_pool(400, 7).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert!(engine.query(&q).unwrap().from_cache);
        // A different θ_r rebuilds and drops cached answers.
        let (info, action) = engine.ensure_sketch_pool(600, 7).unwrap();
        assert_eq!((action, info.theta_r), (PoolAction::Built, 600));
        assert_eq!(engine.cache_entries(), 0);
        let stats = engine.stats();
        assert_eq!((stats.sketch_builds, stats.sketch_reuses), (2, 1));
    }

    #[test]
    fn both_backends_serve_side_by_side() {
        let engine = primed(200);
        engine.ensure_sketch_pool(400, 7).unwrap();
        assert!(
            engine.view().pool.is_some(),
            "forward pool survives sketch build"
        );
        for algorithm in [AlgorithmKind::AdvancedGreedy, AlgorithmKind::RisGreedy] {
            let result = engine.query(&ask(algorithm, 0, 3)).unwrap();
            assert!(!result.blockers.is_empty(), "{algorithm:?}");
        }
    }

    #[test]
    fn save_on_a_sketch_only_engine_is_a_typed_backend_error() {
        let engine = SharedEngine::new().with_threads(1);
        engine.load_graph(wc_graph(100, 3), "pa-100/WC".into());
        engine.ensure_sketch_pool(100, 1).unwrap();
        let path = temp_snapshot("sketchonly");
        let err = engine.save_snapshot(&path).unwrap_err();
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
        assert!(!path.exists(), "a refused SAVE writes nothing");
        assert_eq!(engine.stats().snapshot_saves, 0);
    }

    #[test]
    fn loading_a_graph_drops_the_sketch_pool() {
        let engine = SharedEngine::new().with_threads(1);
        engine.load_graph(wc_graph(100, 3), "pa-100/WC".into());
        engine.ensure_sketch_pool(100, 1).unwrap();
        assert!(engine.view().sketch.is_some());
        engine.load_graph(wc_graph(80, 4), "pa-80/WC".into());
        let view = engine.view();
        assert!(view.sketch.is_none() && view.sketch_info.is_none());
        let ris = ask(AlgorithmKind::RisGreedy, 0, 2);
        assert!(matches!(engine.query(&ris), Err(EngineError::NoSketchPool)));
    }
}
