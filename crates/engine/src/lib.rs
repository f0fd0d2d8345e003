//! # imin-engine
//!
//! A **resident containment query engine** for the IMIN problem: load a
//! graph once, materialise the θ-sized live-edge sample pool once, and then
//! answer an unbounded stream of `(seeds, budget, algorithm)` questions by
//! re-rooting the existing pool — the sample pool depends only on the graph
//! and the diffusion model, never on the query (Definition 4), so the
//! dominant cost of AdvancedGreedy/GreedyReplace is paid exactly once.
//!
//! The crate has three layers:
//!
//! * [`SharedEngine`] — the in-process API and the one implementation of
//!   resident state: a loaded [`imin_graph::DiGraph`], a resident
//!   [`imin_core::SamplePool`] (and, side by side, a reverse-sketch
//!   [`imin_core::SketchPool`]), and an LRU cache of recent query results
//!   keyed by canonicalised query. Every method takes `&self`, so any
//!   number of threads query it at once: parallel read-side queries,
//!   single-flight coalescing of identical in-flight questions, and
//!   admission control (see [`shared`]). Answers never depend on how many
//!   threads ask or compute.
//! * [`protocol`] — a newline-delimited text protocol (`LOAD`, `POOL`,
//!   `QUERY`, `SAVE`, `RESTORE`, `COMPRESS`, `STATS`, `METRICS`, `PING`,
//!   `QUIT` — the full table is [`protocol::VERBS`]) with an `OK …` /
//!   `ERR …` reply per request line, shared by the server, the client and
//!   the tests. The normative reference, including every reply shape and
//!   the intervention support matrix, is `docs/protocol.md` at the repo
//!   root — a test keeps it in lockstep with the parser.
//!
//! The engine is **restartable**: `SAVE` persists the graph and the
//! resident pool in the versioned binary snapshot format of
//! [`imin_core::snapshot`], and `RESTORE` warm-starts a fresh process from
//! that file by bulk-loading the arenas — orders of magnitude faster than
//! resampling, with byte-identical query answers. `POOL` itself is
//! idempotent and incremental: matching requests are no-ops and growing
//! requests extend the resident pool in place via
//! [`imin_core::SamplePool::extend_to`].
//! * [`server`] / [`client`] — a threaded `std::net::TcpListener` server
//!   (the `imin-serve` binary) and a small blocking client library (the
//!   `imin-cli` binary).
//!
//! ## Example
//!
//! ```
//! use imin_engine::{AlgorithmKind, Query, SharedEngine};
//! use imin_graph::{generators, VertexId};
//!
//! let graph = generators::preferential_attachment(300, 3, true, 0.2, 7).unwrap();
//! let engine = SharedEngine::new();
//! engine.load_graph(graph, "pa-300".into());
//! engine.ensure_pool(500, 42).unwrap();
//! let query = Query {
//!     seeds: vec![VertexId::new(0)],
//!     budget: 3,
//!     algorithm: AlgorithmKind::AdvancedGreedy,
//!     intervention: imin_core::Intervention::BlockVertices,
//! };
//! let first = engine.query(&query).unwrap();
//! let second = engine.query(&query).unwrap();
//! assert_eq!(first.blockers, second.blockers);
//! assert!(!first.from_cache && second.from_cache);
//!
//! // Threads share the engine: distinct questions compute in parallel
//! // against the one resident pool.
//! let other = Query { seeds: vec![VertexId::new(1)], ..query.clone() };
//! std::thread::scope(|scope| {
//!     scope.spawn(|| engine.query(&other).unwrap());
//!     scope.spawn(|| engine.query(&query).unwrap());
//! });
//!
//! // The same budget can buy edge deletions or prebunking instead —
//! // `QUERY … intervene=edge|prebunk:<alpha>` over the wire.
//! let edges = engine
//!     .query(&Query { intervention: imin_core::Intervention::BlockEdges, ..query })
//!     .unwrap();
//! assert!(edges.blockers.is_empty());
//! assert!(!edges.blocked_edges.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod error;
pub(crate) mod metrics;
pub mod protocol;
pub mod server;
pub mod shared;

pub use cache::LruCache;
pub use client::Client;
pub use engine::{
    Disposition, PoolAction, PoolBackend, PoolInfo, PoolProvenance, Query, QueryResult,
    RestoreMode, SketchPoolInfo,
};
pub use error::EngineError;
pub use imin_core::snapshot::{SnapshotError, SnapshotSummary};
pub use imin_core::AlgorithmKind;
pub use imin_obs::{AccessLog, AccessRecord, LogFormat, Phase, PhaseBreakdown};
pub use server::{answer_line, Server};
pub use shared::{ResidentView, ServingStats, SharedEngine, DEFAULT_MAX_INFLIGHT};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EngineError>;
