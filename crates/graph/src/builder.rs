//! Incremental construction of [`DiGraph`]s.

use crate::error::validate_probability;
use crate::{DiGraph, GraphError, Result, VertexId};

/// How the builder treats self loops `(u, u)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Silently drop self loops (the default).
    ///
    /// Self loops never change the expected spread under the IC model — a
    /// vertex cannot re-activate itself — so dropping them is the behaviour
    /// the influence algorithms want.
    #[default]
    Drop,
    /// Keep self loops in the graph.
    Keep,
    /// Return an error when a self loop is added.
    Reject,
}

/// An edge-list accumulator producing a [`DiGraph`].
///
/// The builder accepts edges in any order, grows the vertex set on demand
/// (via [`GraphBuilder::ensure_vertex`] or automatically when
/// [`GraphBuilder::grow_to_fit`] is enabled), merges duplicate edges with the
/// noisy-or rule and applies the configured [`SelfLoopPolicy`].
///
/// ```
/// use imin_graph::{GraphBuilder, VertexId};
/// let mut b = GraphBuilder::new(0).grow_to_fit(true);
/// b.add_edge(VertexId::new(0), VertexId::new(9), 0.4).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 10);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32, f64)>,
    self_loops: SelfLoopPolicy,
    grow_to_fit: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            self_loops: SelfLoopPolicy::default(),
            grow_to_fit: false,
        }
    }

    /// Creates a builder pre-allocating space for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(num_edges);
        b
    }

    /// Sets the self-loop policy (default: [`SelfLoopPolicy::Drop`]).
    pub fn self_loop_policy(mut self, policy: SelfLoopPolicy) -> Self {
        self.self_loops = policy;
        self
    }

    /// When enabled, vertex ids beyond the current vertex count grow the
    /// graph instead of producing an error (useful for edge-list parsing).
    pub fn grow_to_fit(mut self, enabled: bool) -> Self {
        self.grow_to_fit = enabled;
        self
    }

    /// Number of vertices the built graph will have (so far).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Ensures the graph has at least `n` vertices.
    pub fn ensure_vertex_count(&mut self, n: usize) {
        if n > self.num_vertices {
            self.num_vertices = n;
        }
    }

    /// Ensures vertex `v` exists, growing the vertex set if necessary.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.ensure_vertex_count(v.index() + 1);
    }

    fn check_endpoint(&mut self, v: VertexId) -> Result<()> {
        if v.index() < self.num_vertices {
            return Ok(());
        }
        if self.grow_to_fit {
            self.ensure_vertex(v);
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v.index(),
                num_vertices: self.num_vertices,
            })
        }
    }

    /// Adds a directed edge `(u, v)` with propagation probability `p`.
    ///
    /// # Errors
    /// Returns an error if an endpoint is out of range (and growing is
    /// disabled), the probability is invalid, or the edge is a self loop and
    /// the policy is [`SelfLoopPolicy::Reject`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<()> {
        validate_probability(p)?;
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        if u == v {
            match self.self_loops {
                SelfLoopPolicy::Drop => return Ok(()),
                SelfLoopPolicy::Reject => return Err(GraphError::SelfLoop { vertex: u.index() }),
                SelfLoopPolicy::Keep => {}
            }
        }
        self.edges.push((u.raw(), v.raw(), p));
        Ok(())
    }

    /// Adds both `(u, v)` and `(v, u)` with probability `p` — the paper
    /// treats undirected datasets (Facebook, DBLP, Youtube) as bidirectional
    /// edge pairs (§VI-A).
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<()> {
        self.add_edge(u, v, p)?;
        if u != v {
            self.add_edge(v, u, p)?;
        }
        Ok(())
    }

    /// Finalises the builder into a [`DiGraph`].
    pub fn build(self) -> DiGraph {
        DiGraph::from_validated_triples(self.num_vertices, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn basic_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(vid(0), vid(1), 0.5).unwrap();
        b.add_edge(vid(1), vid(2), 0.25).unwrap();
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn out_of_range_rejected_without_grow() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(vid(0), vid(5), 0.5).is_err());
        assert!(b.add_edge(vid(5), vid(0), 0.5).is_err());
    }

    #[test]
    fn grow_to_fit_expands_vertex_set() {
        let mut b = GraphBuilder::new(0).grow_to_fit(true);
        b.add_edge(vid(3), vid(7), 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loop_policies() {
        let mut drop = GraphBuilder::new(2);
        drop.add_edge(vid(1), vid(1), 0.9).unwrap();
        assert_eq!(drop.build().num_edges(), 0);

        let mut keep = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Keep);
        keep.add_edge(vid(1), vid(1), 0.9).unwrap();
        assert_eq!(keep.build().num_edges(), 1);

        let mut reject = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Reject);
        assert!(reject.add_edge(vid(1), vid(1), 0.9).is_err());
    }

    #[test]
    fn undirected_edges_become_two_arcs() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(vid(0), vid(1), 0.4).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_probability(vid(0), vid(1)), Some(0.4));
        assert_eq!(g.edge_probability(vid(1), vid(0)), Some(0.4));
    }

    #[test]
    fn undirected_self_loop_is_added_once_when_kept() {
        let mut b = GraphBuilder::new(2).self_loop_policy(SelfLoopPolicy::Keep);
        b.add_undirected_edge(vid(1), vid(1), 0.4).unwrap();
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn duplicate_edges_merge_in_build() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(vid(0), vid(1), 0.5).unwrap();
        b.add_edge(vid(0), vid(1), 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!((g.edge_probability(vid(0), vid(1)).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ensure_vertex_grows_isolated_vertices() {
        let mut b = GraphBuilder::new(1);
        b.ensure_vertex(vid(4));
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }
}
