//! Engine-side metric registry and Prometheus exposition.
//!
//! [`EngineMetrics`] owns every latency [`Histogram`] of a
//! [`SharedEngine`](crate::SharedEngine): one per protocol verb, one per
//! algorithm kind, one per query, snapshot and pool-build phase, and one
//! for leader compute time (the basis of the `retry_after_ms` busy hint).
//! All of them are wait-free to record into; [`render`] turns the
//! registry plus the engine's counters and resident-state facts into one
//! Prometheus text-format document, served over the wire by the `METRICS`
//! verb.

use crate::shared::SharedEngine;
use imin_core::AlgorithmKind;
use imin_obs::{expo, Histogram, Phase, PHASE_COUNT, POOL_PHASES, QUERY_PHASES, SNAPSHOT_PHASES};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Protocol verbs with a latency histogram of their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verb {
    Load,
    Pool,
    Query,
    Save,
    Restore,
    Compress,
}

/// Number of [`Verb`] variants.
pub(crate) const VERB_COUNT: usize = 6;

/// Every verb, in exposition order.
pub(crate) const VERBS: [Verb; VERB_COUNT] = [
    Verb::Load,
    Verb::Pool,
    Verb::Query,
    Verb::Save,
    Verb::Restore,
    Verb::Compress,
];

impl Verb {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Verb::Load => "load",
            Verb::Pool => "pool",
            Verb::Query => "query",
            Verb::Save => "save",
            Verb::Restore => "restore",
            Verb::Compress => "compress",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Index of `kind` in the [`AlgorithmKind::all`] registry order.
fn algorithm_index(kind: AlgorithmKind) -> usize {
    AlgorithmKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("every AlgorithmKind is registered")
}

/// The engine's metric registry. Verb, algorithm and compute histograms
/// record unconditionally (one wait-free bucket add each — they back the
/// `STATS` latency sums and the busy hint); the per-phase histograms fill
/// only while phase spans are enabled.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    started: Instant,
    verbs: [Histogram; VERB_COUNT],
    algorithms: Vec<Histogram>,
    phases: [Histogram; PHASE_COUNT],
    /// Leader compute time only (no cache hits, no coalesced waits) — the
    /// distribution behind the p95 `retry_after_ms` hint.
    compute: Histogram,
    /// Cached busy hint in ms, recomputed only when `compute.count()`
    /// changes (bounded staleness, no quantile walk per rejection).
    hint_ms: AtomicU64,
    hint_at: AtomicU64,
    trace_ids: AtomicU64,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            started: Instant::now(),
            verbs: std::array::from_fn(|_| Histogram::new()),
            algorithms: AlgorithmKind::all()
                .iter()
                .map(|_| Histogram::new())
                .collect(),
            phases: std::array::from_fn(|_| Histogram::new()),
            compute: Histogram::new(),
            hint_ms: AtomicU64::new(0),
            hint_at: AtomicU64::new(u64::MAX),
            trace_ids: AtomicU64::new(0),
        }
    }
}

impl EngineMetrics {
    /// The histogram of one protocol verb.
    pub(crate) fn verb(&self, verb: Verb) -> &Histogram {
        &self.verbs[verb.index()]
    }

    /// The histogram of one algorithm kind.
    pub(crate) fn algorithm(&self, kind: AlgorithmKind) -> &Histogram {
        &self.algorithms[algorithm_index(kind)]
    }

    /// The histogram of one query, snapshot or pool-build phase.
    pub(crate) fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// The leader compute-time histogram.
    pub(crate) fn compute(&self) -> &Histogram {
        &self.compute
    }

    /// Seconds since the engine was created.
    pub(crate) fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The next per-request trace id (1, 2, 3, …; 0 means "none").
    pub(crate) fn next_trace_id(&self) -> u64 {
        self.trace_ids.fetch_add(1, Relaxed) + 1
    }

    /// The suggested client backoff for a busy rejection: the p95 of
    /// leader compute latency, clamped to `[1 ms, 10 s]` (50 ms before
    /// anything has computed). The quantile walk runs at most once per new
    /// computed query — between computes the cached hint is served, so a
    /// rejection storm costs two atomic loads per rejection.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        let computed = self.compute.count();
        if computed == 0 {
            return 50;
        }
        if self.hint_at.load(Relaxed) == computed {
            return self.hint_ms.load(Relaxed);
        }
        let p95_us = self.compute.quantile_us(0.95);
        let ms = (p95_us / 1_000).clamp(1, 10_000);
        self.hint_ms.store(ms, Relaxed);
        self.hint_at.store(computed, Relaxed);
        ms
    }
}

/// Renders the complete Prometheus text-format document for `engine`.
pub(crate) fn render(engine: &SharedEngine) -> String {
    let stats = engine.stats();
    let view = engine.view();
    let metrics = engine.metrics();
    let mut out = String::with_capacity(32 * 1024);

    expo::family(
        &mut out,
        "imin_build_info",
        "Build information of the serving binary.",
        "gauge",
    );
    expo::sample_u64(
        &mut out,
        "imin_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1,
    );
    expo::family(
        &mut out,
        "imin_uptime_seconds",
        "Seconds since the engine was created.",
        "gauge",
    );
    expo::sample_f64(
        &mut out,
        "imin_uptime_seconds",
        &[],
        metrics.uptime_seconds(),
    );
    expo::family(
        &mut out,
        "imin_observability_enabled",
        "Whether phase spans and traces are enabled (1) or disabled via --no-obs (0).",
        "gauge",
    );
    expo::sample_u64(
        &mut out,
        "imin_observability_enabled",
        &[],
        u64::from(engine.observability()),
    );

    // ---- Counters ---------------------------------------------------------
    let counters: [(&str, &str, u64); 16] = [
        (
            "imin_queries_total",
            "Queries received (cache hits, coalesced and rejected included).",
            stats.queries,
        ),
        (
            "imin_query_cache_hits_total",
            "Queries answered straight from the LRU result cache.",
            stats.cache_hits,
        ),
        (
            "imin_query_coalesced_total",
            "Queries answered by riding along on an identical in-flight computation.",
            stats.coalesced,
        ),
        (
            "imin_query_rejected_total",
            "Queries rejected with ERR busy by admission control.",
            stats.rejected,
        ),
        (
            "imin_query_computed_total",
            "Queries that computed against the resident pool (leaders).",
            stats.computed,
        ),
        (
            "imin_realisations_recomputed_total",
            "Realisations the computed queries' estimator passes rebuilt.",
            stats.recomputed,
        ),
        (
            "imin_realisations_replayed_total",
            "Rebuilt realisations replayed from a query's recorded first-pass cascade.",
            stats.replayed,
        ),
        (
            "imin_pool_builds_total",
            "Sample pools built from scratch.",
            stats.pool_builds,
        ),
        (
            "imin_pool_extends_total",
            "Sample pools grown in place via extend_to.",
            stats.pool_extends,
        ),
        (
            "imin_pool_compressions_total",
            "Pools re-encoded into a compressed arena.",
            stats.pool_compressions,
        ),
        (
            "imin_pool_reuses_total",
            "POOL requests satisfied by the already-resident pool.",
            stats.pool_reuses,
        ),
        (
            "imin_sketch_builds_total",
            "Reverse-sketch pools built from scratch (POOL backend=sketch).",
            stats.sketch_builds,
        ),
        (
            "imin_sketch_reuses_total",
            "Sketch POOL requests satisfied by the already-resident sketch pool.",
            stats.sketch_reuses,
        ),
        (
            "imin_graph_loads_total",
            "Graphs installed (LOAD and RESTORE).",
            stats.graph_loads,
        ),
        (
            "imin_snapshot_saves_total",
            "Snapshots written via SAVE.",
            stats.snapshot_saves,
        ),
        (
            "imin_snapshot_restores_total",
            "Snapshots restored via RESTORE.",
            stats.snapshot_restores,
        ),
    ];
    for (name, help, value) in counters {
        expo::family(&mut out, name, help, "counter");
        expo::sample_u64(&mut out, name, &[], value);
    }

    // ---- Gauges -----------------------------------------------------------
    let gauges: [(&str, &str, u64); 6] = [
        (
            "imin_inflight_queries",
            "Leaders computing right now.",
            stats.inflight,
        ),
        (
            "imin_cache_entries",
            "Entries currently in the LRU result cache.",
            engine.cache_entries() as u64,
        ),
        (
            "imin_max_inflight",
            "Admission budget: maximum concurrently computing leaders.",
            engine.max_inflight() as u64,
        ),
        (
            "imin_build_threads",
            "Worker threads used for pool builds.",
            engine.threads() as u64,
        ),
        (
            "imin_query_threads",
            "Worker threads used inside one query.",
            engine.query_threads() as u64,
        ),
        (
            "imin_busy_retry_hint_ms",
            "Current retry_after_ms hint handed to rejected clients (p95 compute).",
            metrics.retry_after_ms(),
        ),
    ];
    for (name, help, value) in gauges {
        expo::family(&mut out, name, help, "gauge");
        expo::sample_u64(&mut out, name, &[], value);
    }

    if let Some(graph) = view.graph.as_ref() {
        expo::family(
            &mut out,
            "imin_graph_vertices",
            "Vertices of the resident graph.",
            "gauge",
        );
        expo::sample_u64(
            &mut out,
            "imin_graph_vertices",
            &[],
            graph.num_vertices() as u64,
        );
        expo::family(
            &mut out,
            "imin_graph_edges",
            "Edges of the resident graph.",
            "gauge",
        );
        expo::sample_u64(&mut out, "imin_graph_edges", &[], graph.num_edges() as u64);
    }
    if let Some(info) = view.pool_info.as_ref() {
        expo::family(
            &mut out,
            "imin_pool_theta",
            "Realisations held by the resident sample pool.",
            "gauge",
        );
        expo::sample_u64(&mut out, "imin_pool_theta", &[], info.theta as u64);
        expo::family(
            &mut out,
            "imin_pool_bytes",
            "Resident bytes held by the pool (owned plus mapped).",
            "gauge",
        );
        expo::sample_u64(&mut out, "imin_pool_bytes", &[], info.memory_bytes as u64);
        expo::family(
            &mut out,
            "imin_pool_live_edges",
            "Live edges stored across all realisations.",
            "gauge",
        );
        expo::sample_u64(
            &mut out,
            "imin_pool_live_edges",
            &[],
            info.live_edges as u64,
        );
        expo::family(
            &mut out,
            "imin_pool_compression_ratio",
            "Pool bytes over raw-equivalent bytes.",
            "gauge",
        );
        expo::sample_f64(
            &mut out,
            "imin_pool_compression_ratio",
            &[],
            info.compression_ratio,
        );
        expo::family(
            &mut out,
            "imin_pool_info",
            "Resident pool metadata as labels.",
            "gauge",
        );
        expo::sample_u64(
            &mut out,
            "imin_pool_info",
            &[
                ("arena", info.arena.as_str()),
                ("source", &info.provenance.label()),
                ("graph", &view.graph_label),
            ],
            1,
        );
    }

    if let Some(info) = view.sketch_info.as_ref() {
        expo::family(
            &mut out,
            "imin_sketch_theta",
            "Reverse sketches held by the resident sketch pool.",
            "gauge",
        );
        expo::sample_u64(&mut out, "imin_sketch_theta", &[], info.theta_r as u64);
        expo::family(
            &mut out,
            "imin_sketch_bytes",
            "Resident bytes held by the sketch pool.",
            "gauge",
        );
        expo::sample_u64(&mut out, "imin_sketch_bytes", &[], info.memory_bytes as u64);
        expo::family(
            &mut out,
            "imin_sketch_members",
            "Vertex memberships stored across all sketches.",
            "gauge",
        );
        expo::sample_u64(
            &mut out,
            "imin_sketch_members",
            &[],
            info.total_members as u64,
        );
    }

    // ---- Histograms -------------------------------------------------------
    expo::family(
        &mut out,
        "imin_request_duration_seconds",
        "Wall-clock latency per protocol verb.",
        "histogram",
    );
    for verb in VERBS {
        expo::histogram(
            &mut out,
            "imin_request_duration_seconds",
            &[("verb", verb.as_str())],
            &metrics.verb(verb).snapshot(),
        );
    }

    // One series per algorithm that has actually answered: nine empty
    // 34-line histograms would be noise.
    let active: Vec<AlgorithmKind> = AlgorithmKind::all()
        .iter()
        .copied()
        .filter(|&kind| metrics.algorithm(kind).count() > 0)
        .collect();
    if !active.is_empty() {
        expo::family(
            &mut out,
            "imin_algorithm_compute_seconds",
            "Leader compute time per algorithm kind.",
            "histogram",
        );
        for kind in active {
            expo::histogram(
                &mut out,
                "imin_algorithm_compute_seconds",
                &[("algorithm", kind.name())],
                &metrics.algorithm(kind).snapshot(),
            );
        }
    }

    expo::family(
        &mut out,
        "imin_query_phase_seconds",
        "Time attributed to each phase of pooled query computation.",
        "histogram",
    );
    for phase in QUERY_PHASES {
        expo::histogram(
            &mut out,
            "imin_query_phase_seconds",
            &[("phase", phase.name())],
            &metrics.phase(phase).snapshot(),
        );
    }

    expo::family(
        &mut out,
        "imin_snapshot_phase_seconds",
        "Time attributed to each phase of snapshot restore.",
        "histogram",
    );
    for phase in SNAPSHOT_PHASES {
        expo::histogram(
            &mut out,
            "imin_snapshot_phase_seconds",
            &[("phase", phase.name())],
            &metrics.phase(phase).snapshot(),
        );
    }

    expo::family(
        &mut out,
        "imin_pool_phase_seconds",
        "Time attributed to each phase of forward pool builds and extensions.",
        "histogram",
    );
    for phase in POOL_PHASES {
        expo::histogram(
            &mut out,
            "imin_pool_phase_seconds",
            &[("phase", phase.name())],
            &metrics.phase(phase).snapshot(),
        );
    }

    expo::family(
        &mut out,
        "imin_compute_seconds",
        "Leader compute time across all algorithms (basis of the busy hint).",
        "histogram",
    );
    expo::histogram(
        &mut out,
        "imin_compute_seconds",
        &[],
        &metrics.compute().snapshot(),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_tracks_the_p95_with_bounded_staleness() {
        let metrics = EngineMetrics::default();
        assert_eq!(metrics.retry_after_ms(), 50, "cold engines answer 50 ms");

        // 99 fast queries and one pathological outlier: the p95 stays in
        // the 1 ms bucket (upper bound 1023 µs → 1 ms), where the old
        // running mean would have answered ~101 ms.
        for _ in 0..99 {
            metrics.compute().record_us(1_000);
        }
        metrics.compute().record_us(10_000_000);
        assert_eq!(metrics.retry_after_ms(), 1);

        // A flood of genuinely slow queries moves the p95: rank 285 of 300
        // lands in the 2 s bucket (upper bound 2_097_151 µs → 2097 ms).
        for _ in 0..200 {
            metrics.compute().record_us(2_000_000);
        }
        assert_eq!(metrics.retry_after_ms(), 2_097);

        // Bounded staleness: the hint is cached per compute count, so
        // asking twice without new computes does no quantile walk and
        // answers identically.
        assert_eq!(metrics.retry_after_ms(), 2_097);
    }

    #[test]
    fn retry_hint_respects_the_clamp() {
        let slow = EngineMetrics::default();
        for _ in 0..100 {
            slow.compute().record_us(60_000_000); // a minute each
        }
        assert_eq!(slow.retry_after_ms(), 10_000, "clamped to 10 s");

        let fast = EngineMetrics::default();
        for _ in 0..100 {
            fast.compute().record_us(1);
        }
        assert_eq!(fast.retry_after_ms(), 1, "clamped to 1 ms");
    }

    #[test]
    fn trace_ids_start_at_one_and_increment() {
        let metrics = EngineMetrics::default();
        assert_eq!(metrics.next_trace_id(), 1);
        assert_eq!(metrics.next_trace_id(), 2);
    }
}
