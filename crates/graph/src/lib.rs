//! # imin-graph
//!
//! Directed-graph substrate for the vertex-blocking influence-minimization
//! workspace, a from-scratch Rust reproduction of *"Minimizing the Influence
//! of Misinformation via Vertex Blocking"* (ICDE 2023).
//!
//! The crate provides:
//!
//! * [`DiGraph`] — a compressed-sparse-row (CSR) directed graph with a
//!   propagation probability attached to every edge, the representation used
//!   by every algorithm in the paper (§III, Table I).
//! * [`GraphBuilder`] — an edge-list accumulator that merges parallel edges
//!   with the noisy-or rule used by the paper's multi-seed reduction
//!   (`1 - Π(1 - p_i)`), removes self loops on request and produces a
//!   [`DiGraph`].
//! * [`generators`] — random and structured graph generators (Erdős–Rényi,
//!   preferential attachment, complete graphs, paths and cycles) used by the
//!   dataset stand-ins and the property tests.
//! * [`edgelist`] — SNAP-style edge-list reading and writing so that the real
//!   datasets of Table IV can be plugged in when available.
//! * [`traversal`] — BFS reachability with optional *blocked-vertex* masks,
//!   the primitive behind spread computation under vertex blocking
//!   (Definition 2).
//! * [`stats`] — the per-dataset statistics reported in Table IV
//!   (n, m, average degree, maximum degree).
//! * [`binfmt`] — raw little-endian binary (de)serialisation of the CSR
//!   arenas plus a structural [`DiGraph::fingerprint`], the graph half of
//!   the core crate's pool-snapshot format.
//!
//! The graph is deliberately simple and cache friendly: vertices are dense
//! `u32` identifiers wrapped in [`VertexId`], out- and in-adjacency are both
//! materialised as CSR arrays with parallel probability arrays, and all
//! algorithmic state (blocked masks, visit stamps) lives in flat vectors owned
//! by the caller.
//!
//! ```
//! use imin_graph::{GraphBuilder, VertexId};
//!
//! // A small directed graph with propagation probabilities.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(VertexId::new(0), VertexId::new(1), 1.0).unwrap();
//! b.add_edge(VertexId::new(1), VertexId::new(2), 0.5).unwrap();
//! b.add_edge(VertexId::new(0), VertexId::new(3), 0.1).unwrap();
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(VertexId::new(0)), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod builder;
pub mod csr;
pub mod edgelist;
pub mod error;
pub mod generators;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod vertex;

pub use builder::GraphBuilder;
pub use csr::{coin_threshold, DiGraph, EdgeRef, THRESHOLD_ALWAYS};
pub use error::GraphError;
pub use stats::GraphStats;
pub use subgraph::InducedSubgraph;
pub use vertex::VertexId;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
