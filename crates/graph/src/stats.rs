//! Per-graph summary statistics (Table IV of the paper).

use crate::{DiGraph, VertexId};
use std::fmt;

/// Summary statistics of a graph, matching the columns of Table IV:
/// `n`, `m`, average degree, maximum degree, plus a few extras that the
/// dataset stand-ins use for validation (isolated vertices, edge probability
/// range).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Average total degree `2m / n`.
    pub average_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of vertices with no in- or out-edges.
    pub isolated_vertices: usize,
    /// Smallest edge probability (1.0 for an edgeless graph).
    pub min_probability: f64,
    /// Largest edge probability (0.0 for an edgeless graph).
    pub max_probability: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &DiGraph) -> Self {
        let n = graph.num_vertices();
        let mut max_degree = 0usize;
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut isolated = 0usize;
        for v in graph.vertices() {
            let dout = graph.out_degree(v);
            let din = graph.in_degree(v);
            max_out = max_out.max(dout);
            max_in = max_in.max(din);
            max_degree = max_degree.max(dout + din);
            if dout == 0 && din == 0 {
                isolated += 1;
            }
        }
        let mut min_p = f64::INFINITY;
        let mut max_p = f64::NEG_INFINITY;
        for e in graph.edges() {
            min_p = min_p.min(e.probability);
            max_p = max_p.max(e.probability);
        }
        if graph.num_edges() == 0 {
            min_p = 1.0;
            max_p = 0.0;
        }
        GraphStats {
            num_vertices: n,
            num_edges: graph.num_edges(),
            average_degree: graph.average_degree(),
            max_degree,
            max_out_degree: max_out,
            max_in_degree: max_in,
            isolated_vertices: isolated,
            min_probability: min_p,
            max_probability: max_p,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} m={} d_avg={:.1} d_max={} (out {}, in {}) isolated={} p∈[{:.3}, {:.3}]",
            self.num_vertices,
            self.num_edges,
            self.average_degree,
            self.max_degree,
            self.max_out_degree,
            self.max_in_degree,
            self.isolated_vertices,
            self.min_probability,
            self.max_probability
        )
    }
}

/// Returns the vertices sorted by decreasing out-degree (ties broken by id),
/// which is exactly the ranking used by the OutDegree heuristic of §VI-A.
pub fn vertices_by_out_degree(graph: &DiGraph) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = graph.vertices().collect();
    vs.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v.raw()));
    vs
}

/// Returns the vertices sorted by decreasing total degree (ties by id).
pub fn vertices_by_degree(graph: &DiGraph) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = graph.vertices().collect();
    vs.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v.raw()));
    vs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn star() -> DiGraph {
        // 0 -> 1..4, plus isolated vertex 5.
        DiGraph::from_edges(6, (1..5).map(|i| (vid(0), vid(i), 0.5)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn stats_of_star() {
        let s = GraphStats::compute(&star());
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_vertices, 1);
        assert_eq!(s.min_probability, 0.5);
        assert_eq!(s.max_probability, 0.5);
        assert!((s.average_degree - 8.0 / 6.0).abs() < 1e-12);
        assert!(s.to_string().contains("n=6"));
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&DiGraph::empty(3));
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.isolated_vertices, 3);
        assert_eq!(s.min_probability, 1.0);
        assert_eq!(s.max_probability, 0.0);
    }

    #[test]
    fn degree_orderings() {
        let g = star();
        let by_out = vertices_by_out_degree(&g);
        assert_eq!(by_out[0], vid(0));
        let by_deg = vertices_by_degree(&g);
        assert_eq!(by_deg[0], vid(0));
        // Ties are broken by increasing id.
        assert_eq!(&by_out[1..], &[vid(1), vid(2), vid(3), vid(4), vid(5)]);
    }
}
