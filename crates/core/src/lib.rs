//! # imin-core
//!
//! The influence-minimization (IMIN) algorithms of *"Minimizing the
//! Influence of Misinformation via Vertex Blocking"* (ICDE 2023).
//!
//! Given a directed graph `G` with independent-cascade probabilities, a seed
//! set `S` and a budget `b`, the IMIN problem asks for a blocker set
//! `B ⊆ V \ S`, `|B| ≤ b`, minimising the expected spread
//! `E(S, G[V \ B])`. The problem is NP-hard and APX-hard (Theorems 1 and 3),
//! so the crate implements the paper's heuristic algorithms together with
//! the baselines they are compared against:
//!
//! | Algorithm | Module | Paper |
//! |---|---|---|
//! | BaselineGreedy (greedy + Monte-Carlo, state of the art) | [`baseline_greedy`] | Alg. 1 |
//! | Spread-decrease estimation via sampled graphs + dominator trees | [`decrease`] | Alg. 2, Thm. 4–6 |
//! | AdvancedGreedy | [`advanced_greedy`] | Alg. 3 |
//! | GreedyReplace | [`greedy_replace`] | Alg. 4 |
//! | Rand / OutDegree / Degree / OutNeighbors / PageRank heuristics | [`heuristics`] | §VI-A |
//! | Exact blocker search (exhaustive) | [`exact_blocker`] | §VI-B "Exact" |
//! | Multi-seed → single-seed reduction | [`seed_merge`] | §V |
//! | Triggering-model extension | [`triggering`] | §V-E |
//!
//! ## The unified query API
//!
//! Every algorithm answers one question — *pick `b` blockers for a seed
//! set* — through one request type and one trait:
//!
//! * [`ContainmentRequest`] ([`request`]) — a validating builder holding
//!   the (multi-)seed set, the budget, a typed [`ForbiddenSet`] and an
//!   [`EvalBackend`]: `Fresh` self-sampling or `Pooled` re-rooting of a
//!   resident [`SamplePool`]. Callers choose amortisation, not function
//!   names.
//! * [`BlockerSolver`] ([`solver`]) — `solve(&graph, &request)`,
//!   implemented by every algorithm; [`AlgorithmKind`] is the registry
//!   mapping names (`"advanced"`, `"gr"`, `"outdegree"`, …) to solvers —
//!   the single string dispatch shared by the engine protocol, the CLI and
//!   the benchmarks.
//!
//! ```
//! use imin_core::{AlgorithmKind, ContainmentRequest};
//! use imin_graph::{generators, VertexId};
//!
//! let graph = generators::preferential_attachment(300, 3, false, 0.1, 7).unwrap();
//! let request = ContainmentRequest::builder(&graph)
//!     .seeds([VertexId::new(0), VertexId::new(2)]) // multi-seed everywhere
//!     .budget(5)
//!     .fresh(200, 0xBEEF, 1)
//!     .build()
//!     .unwrap();
//! let solver = "gr".parse::<AlgorithmKind>().unwrap().solver();
//! let result = solver.solve(&graph, &request).unwrap();
//! assert!(result.blockers.len() <= 5);
//! ```
//!
//! ## Intervention families
//!
//! Blocking vertices is the paper's question, but the request carries a
//! generalised [`Intervention`] ([`intervene`]): `BlockVertices` (the
//! default — requests are byte-identical to before the field existed),
//! `BlockEdges` (spend the budget deleting live edges, exact
//! dominator-subtree credit per pooled realisation), and
//! `Prebunk { alpha }` (rescale the chosen vertices' acceptance
//! probability by `alpha ∈ [0, 1]` via deterministic coin-threshold
//! thinning — `alpha = 0.0` coincides with vertex blocking and
//! `alpha = 1.0` evaluates byte-identically to no intervention). All
//! three families are estimated exactly against the same pooled
//! realisations, so their `estimated_spread` values are directly
//! comparable. Solvers that cannot answer a family reject it with a
//! typed [`IminError::InterventionUnsupported`].
//!
//! ```
//! use imin_core::{AlgorithmKind, ContainmentRequest, Intervention, SamplePool};
//! use imin_graph::{generators, VertexId};
//!
//! let graph = generators::preferential_attachment(300, 3, false, 0.1, 7).unwrap();
//! let pool = SamplePool::build(&graph, 200, 42).unwrap();
//! let request = ContainmentRequest::builder(&graph)
//!     .seeds([VertexId::new(0)])
//!     .budget(3)
//!     .intervention(Intervention::BlockEdges) // or Prebunk { alpha: 0.25 }
//!     .pooled(&pool)
//!     .build()
//!     .unwrap();
//! let solver = AlgorithmKind::AdvancedGreedy.solver();
//! let selection = solver.solve(&graph, &request).unwrap();
//! assert!(selection.blockers.is_empty()); // edge budgets buy edges…
//! assert!(selection.blocked_edges.len() <= 3); // …reported here instead
//! ```
//!
//! [`ImninProblem`] remains the facade for the paper's unified-seed
//! reduction (§V) and Monte-Carlo evaluation; its [`Algorithm`] enum is the
//! same registry. The historical free functions (`advanced_greedy`,
//! `greedy_replace`, `random_blockers`, …) survive as thin shims
//! over the request API, parity-tested byte-identical in
//! `tests/request_api.rs`:
//!
//! ```
//! use imin_core::{Algorithm, AlgorithmConfig, ImninProblem};
//! use imin_graph::generators;
//! use imin_graph::VertexId;
//!
//! let graph = generators::preferential_attachment(300, 3, false, 0.1, 7).unwrap();
//! let problem = ImninProblem::new(&graph, vec![VertexId::new(0)]).unwrap();
//! let config = AlgorithmConfig::fast_for_tests();
//! let result = problem
//!     .solve(Algorithm::GreedyReplace, 5, &config)
//!     .unwrap();
//! assert!(result.blockers.len() <= 5);
//! ```

// `deny` rather than `forbid`: four audited places lift the lint, and
// every other module stays safe-only.
//
// * `mmap` (the whole module), the zero-copy snapshot reader:
//   - `Mmap::map_fd` calls `mmap(2)` on an open descriptor with a nonzero
//     length, read-only and private;
//   - `Mmap::bytes` views the live mapping it owns as `&[u8]`, borrowed
//     no longer than the mapping;
//   - `Drop for Mmap` unmaps that region exactly once;
//   - `u32_slice` views an in-bounds, 4-aligned range as `&[u32]`, only on
//     little-endian targets;
//   - `Mmap` is `Send + Sync`: the mapping is never written, and only its
//     owner's drop unmaps it.
// * `pool::ticks` reads the time-stamp counter with `_rdtsc`, which has no
//   preconditions.
// * `pool::sample_bitsets` calls the AVX-512F copy of the coin sweep only
//   when `is_x86_feature_detected!("avx512f")` holds.
// * `arena::prefetch_line` issues `_mm_prefetch` for the arena BFS: a
//   prefetch is a hint that never faults, whatever the address, and needs
//   only SSE, which every x86-64 target has.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod advanced_greedy;
pub mod arena;
pub mod baseline_greedy;
pub mod decrease;
pub mod error;
pub mod exact_blocker;
mod greedy;
pub mod greedy_replace;
pub mod heuristics;
pub mod intervene;
pub mod mmap;
pub mod pool;
pub mod problem;
pub mod request;
pub mod ris;
pub mod sampler;
pub mod seed_merge;
pub mod snapshot;
pub mod solver;
pub mod triggering;
pub mod types;

pub use arena::ArenaKind;
pub use error::IminError;
pub use intervene::{
    pooled_edge_greedy_in, pooled_prebunk_decrease, pooled_prebunk_greedy_in, Intervention,
};
pub use pool::{PoolWorkspace, SamplePool};
pub use problem::{Algorithm, ImninProblem};
pub use request::{ContainmentRequest, ContainmentRequestBuilder, EvalBackend, ForbiddenSet};
pub use ris::{sketch_greedy_in, RisGreedy, SketchPool};
pub use snapshot::{RestoredSnapshot, SnapshotError, SnapshotHeader, SnapshotSummary};
pub use solver::{AlgorithmKind, BlockerSolver};
pub use types::{AlgorithmConfig, BlockerSelection, SelectionStats};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IminError>;
