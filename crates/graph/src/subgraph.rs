//! Induced subgraphs.
//!
//! Two forms of "removing vertices" appear in the paper:
//!
//! * `G[V \ B]` — the induced subgraph after deleting a blocker set, used in
//!   the problem statement and by the exact/baseline algorithms;
//! * a *mask*: keeping the graph intact and skipping blocked vertices during
//!   traversal, used by the efficient algorithms so no copies are made per
//!   greedy round.
//!
//! [`InducedSubgraph`] materialises the former while remembering the vertex
//! mapping back to the original graph; the latter is a plain `&[bool]`
//! indexed by vertex id.

use crate::{DiGraph, Result, VertexId};

/// The result of taking an induced subgraph: the new graph plus the mapping
/// between old and new vertex ids.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The induced subgraph with dense re-numbered vertices.
    pub graph: DiGraph,
    /// `original[new_id] = old_id` — maps subgraph vertices back to the
    /// original graph.
    pub original: Vec<VertexId>,
    /// `projected[old_id] = Some(new_id)` for kept vertices, `None` for
    /// removed ones.
    pub projected: Vec<Option<VertexId>>,
}

impl InducedSubgraph {
    /// Maps a vertex of the original graph into the subgraph, if kept.
    pub fn project(&self, old: VertexId) -> Option<VertexId> {
        self.projected.get(old.index()).copied().flatten()
    }

    /// Maps a subgraph vertex back to the original graph.
    pub fn lift(&self, new: VertexId) -> VertexId {
        self.original[new.index()]
    }
}

/// Returns the subgraph of `graph` induced by the vertices for which
/// `keep(v)` is `true` (i.e. `G[V']` of Table I).
pub fn induced_subgraph<F>(graph: &DiGraph, mut keep: F) -> Result<InducedSubgraph>
where
    F: FnMut(VertexId) -> bool,
{
    let n = graph.num_vertices();
    let mut projected: Vec<Option<VertexId>> = vec![None; n];
    let mut original: Vec<VertexId> = Vec::new();
    for v in graph.vertices() {
        if keep(v) {
            projected[v.index()] = Some(VertexId::new(original.len()));
            original.push(v);
        }
    }
    let mut edges = Vec::new();
    for &u in &original {
        let nu = projected[u.index()].expect("kept vertex has a projection");
        for (t, p) in graph.out_edges(u) {
            if let Some(nt) = projected[t.index()] {
                edges.push((nu, nt, p));
            }
        }
    }
    let graph = DiGraph::from_edges(original.len(), edges)?;
    Ok(InducedSubgraph {
        graph,
        original,
        projected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn diamond() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 0.5),
                (vid(0), vid(2), 0.25),
                (vid(1), vid(3), 1.0),
                (vid(2), vid(3), 0.75),
            ],
        )
        .unwrap()
    }

    #[test]
    fn induced_subgraph_keeps_requested_vertices_and_edges() {
        let g = diamond();
        let sub = induced_subgraph(&g, |v| v != vid(2)).unwrap();
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 2); // 0->1, 1->3 survive
        assert_eq!(sub.lift(vid(0)), vid(0));
        assert_eq!(sub.lift(vid(2)), vid(3));
        assert_eq!(sub.project(vid(3)), Some(vid(2)));
        assert_eq!(sub.project(vid(2)), None);
        // Probabilities carried over.
        let p = sub
            .graph
            .edge_probability(sub.project(vid(1)).unwrap(), sub.project(vid(3)).unwrap())
            .unwrap();
        assert_eq!(p, 1.0);
        assert!(sub.graph.validate().is_ok());
    }

    #[test]
    fn empty_and_full_subgraphs() {
        let g = diamond();
        let none = induced_subgraph(&g, |_| false).unwrap();
        assert_eq!(none.graph.num_vertices(), 0);
        assert_eq!(none.graph.num_edges(), 0);
        let all = induced_subgraph(&g, |_| true).unwrap();
        assert_eq!(all.graph.num_vertices(), 4);
        assert_eq!(all.graph.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(all.project(v), Some(v));
        }
    }
}
