//! # imin-domtree
//!
//! Dominator-tree construction for the vertex-blocking influence-minimization
//! workspace.
//!
//! The central insight of the reproduced paper (§V-B3/§V-B4) is that, in a
//! live-edge sample `g` rooted at the seed `s`, the decrease of spread caused
//! by blocking a vertex `u` equals `σ→u(s, g)` — the number of vertices all
//! of whose paths from `s` pass through `u` — and that this quantity is
//! exactly the size of the subtree rooted at `u` in the **dominator tree** of
//! `g` (Theorem 6). Computing one dominator tree per sample therefore yields
//! the spread decrease of *every* candidate blocker at once.
//!
//! This crate provides:
//!
//! * [`lengauer_tarjan`] — the Lengauer–Tarjan algorithm (simple eval-link
//!   variant), the production path used by the sampler; almost-linear
//!   `O(m·α(m,n))` with the sophisticated linking, `O(m log n)` with the
//!   simple linking implemented here, which is the variant the original
//!   paper's reference implementation \[53\] recommends for practical graphs.
//!   Its one entry point, [`DomTreeWorkspace::compute_csr`], reads a CSR
//!   graph; the workspace owns every scratch buffer of the algorithm
//!   (flattened predecessor/bucket arrays and the output tree), so the
//!   per-sample hot loop of Algorithm 2 builds θ dominator trees with zero
//!   steady-state heap allocations.
//! * [`iterative`] — the Cooper–Harvey–Kennedy data-flow algorithm, a
//!   simpler but asymptotically slower method used as a cross-check oracle
//!   in tests.
//! * [`naive`] — textbook-definition dominators ("u dominates v iff removing
//!   u disconnects v from the root"), cubic time, used only to validate the
//!   other two on small random graphs.
//! * [`DomTree`] — the resulting tree with subtree sizes (the quantity
//!   Algorithm 2 accumulates into Δ\[u\]), depth queries and ancestor tests.
//!
//! ```
//! use imin_graph::{DiGraph, VertexId};
//! use imin_domtree::dominator_tree;
//!
//! // 0 -> 1 -> 3, 0 -> 2 -> 3: vertex 3 is dominated only by the root.
//! let g = DiGraph::from_edges(4, vec![
//!     (VertexId::new(0), VertexId::new(1), 1.0),
//!     (VertexId::new(0), VertexId::new(2), 1.0),
//!     (VertexId::new(1), VertexId::new(3), 1.0),
//!     (VertexId::new(2), VertexId::new(3), 1.0),
//! ]).unwrap();
//! let dt = dominator_tree(&g, VertexId::new(0));
//! assert_eq!(dt.idom(VertexId::new(3)), Some(VertexId::new(0)));
//! assert_eq!(dt.subtree_sizes()[0], 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iterative;
pub mod lengauer_tarjan;
pub mod naive;
pub mod tree;

pub use lengauer_tarjan::{dominator_tree, dominator_tree_from_adjacency, DomTreeWorkspace};
pub use tree::DomTree;
