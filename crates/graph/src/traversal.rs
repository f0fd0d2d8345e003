//! Breadth-first traversal and reachability with blocked-vertex masks.
//!
//! Reachability from the seed in a *sampled* (live-edge) graph is the
//! fundamental primitive of the paper: the expected spread equals the
//! expected number of vertices reachable from the seed (Lemma 1), and
//! blocking a vertex removes it — together with everything it dominates —
//! from the reachable set (Definition 2, Theorem 6).
//!
//! All routines take an optional `blocked` mask so callers can evaluate
//! `σ(s, g[V \ B])` without materialising an induced subgraph.

use crate::{DiGraph, VertexId};

/// A reusable BFS workspace.
///
/// Traversals during Monte-Carlo simulation and sampling run millions of
/// times; the workspace keeps the `visited` stamps and the frontier queue
/// allocated across calls (the "workhorse collection" pattern).
#[derive(Clone, Debug)]
pub struct TraversalWorkspace {
    /// Visit stamps: `visited[v] == stamp` means v was reached in the
    /// current traversal. Using stamps avoids clearing the array each run.
    visited: Vec<u32>,
    stamp: u32,
    queue: Vec<u32>,
}

impl TraversalWorkspace {
    /// Creates a workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        TraversalWorkspace {
            visited: vec![0; n],
            stamp: 0,
            queue: Vec::with_capacity(n.min(1024)),
        }
    }

    /// Grows the workspace if the graph has more vertices than before.
    pub fn resize(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
    }

    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            // Extremely unlikely, but reset cleanly rather than wrap into
            // stale stamps.
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Returns `true` if `v` was visited by the most recent traversal run
    /// through this workspace.
    pub fn was_visited(&self, v: VertexId) -> bool {
        self.visited[v.index()] == self.stamp
    }

    /// Runs a BFS over the out-edges of `graph` from `sources`, skipping
    /// vertices for which `blocked` returns `true`, and returns the number of
    /// visited vertices (the sources themselves included when not blocked).
    ///
    /// The visited set is queryable afterwards via
    /// [`TraversalWorkspace::was_visited`].
    pub fn bfs_reachable_count<F>(
        &mut self,
        graph: &DiGraph,
        sources: &[VertexId],
        mut blocked: F,
    ) -> usize
    where
        F: FnMut(VertexId) -> bool,
    {
        self.resize(graph.num_vertices());
        let stamp = self.next_stamp();
        self.queue.clear();
        let mut count = 0usize;
        for &s in sources {
            if s.index() >= graph.num_vertices() {
                continue;
            }
            if blocked(s) || self.visited[s.index()] == stamp {
                continue;
            }
            self.visited[s.index()] = stamp;
            self.queue.push(s.raw());
            count += 1;
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = VertexId::from_raw(self.queue[head]);
            head += 1;
            for &t in graph.out_neighbors(u) {
                let ti = t as usize;
                if self.visited[ti] == stamp {
                    continue;
                }
                let tv = VertexId::from_raw(t);
                if blocked(tv) {
                    continue;
                }
                self.visited[ti] = stamp;
                self.queue.push(t);
                count += 1;
            }
        }
        count
    }

    /// BFS that collects the visited vertices into `out` (cleared first) in
    /// visit order. Returns the number of visited vertices.
    pub fn bfs_collect<F>(
        &mut self,
        graph: &DiGraph,
        sources: &[VertexId],
        blocked: F,
        out: &mut Vec<VertexId>,
    ) -> usize
    where
        F: FnMut(VertexId) -> bool,
    {
        let count = self.bfs_reachable_count(graph, sources, blocked);
        out.clear();
        out.extend(self.queue.iter().map(|&v| VertexId::from_raw(v)));
        count
    }
}

/// Convenience wrapper: number of vertices reachable from `sources` over
/// out-edges (no blocking). Equals `σ(s, G)` of Table II when `G` is a
/// deterministic (sampled) graph.
pub fn reachable_count(graph: &DiGraph, sources: &[VertexId]) -> usize {
    let mut ws = TraversalWorkspace::new(graph.num_vertices());
    ws.bfs_reachable_count(graph, sources, |_| false)
}

/// Number of vertices reachable from `sources` when every vertex with
/// `blocked[v] == true` is removed from the graph (Definition 2).
pub fn reachable_count_blocked(graph: &DiGraph, sources: &[VertexId], blocked: &[bool]) -> usize {
    let mut ws = TraversalWorkspace::new(graph.num_vertices());
    ws.bfs_reachable_count(graph, sources, |v| blocked[v.index()])
}

/// Returns the set of vertices reachable from `sources` as a boolean mask.
pub fn reachable_mask(graph: &DiGraph, sources: &[VertexId]) -> Vec<bool> {
    let mut ws = TraversalWorkspace::new(graph.num_vertices());
    let mut verts = Vec::new();
    ws.bfs_collect(graph, sources, |_| false, &mut verts);
    let mut mask = vec![false; graph.num_vertices()];
    for v in verts {
        mask[v.index()] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// 0 -> 1 -> 2 -> 3 and 0 -> 4, plus an unreachable 5 -> 6 component.
    fn sample() -> DiGraph {
        DiGraph::from_edges(
            7,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(2), vid(3), 1.0),
                (vid(0), vid(4), 1.0),
                (vid(5), vid(6), 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn reachability_counts() {
        let g = sample();
        assert_eq!(reachable_count(&g, &[vid(0)]), 5);
        assert_eq!(reachable_count(&g, &[vid(5)]), 2);
        assert_eq!(reachable_count(&g, &[vid(3)]), 1);
        assert_eq!(reachable_count(&g, &[vid(0), vid(5)]), 7);
        assert_eq!(reachable_count(&g, &[]), 0);
    }

    #[test]
    fn blocking_cuts_reachability() {
        let g = sample();
        let mut blocked = vec![false; 7];
        blocked[1] = true;
        // Blocking v1 removes v1, v2, v3 from the reachable set of v0.
        assert_eq!(reachable_count_blocked(&g, &[vid(0)], &blocked), 2);
        // Blocking the source itself yields zero.
        let mut blocked_src = vec![false; 7];
        blocked_src[0] = true;
        assert_eq!(reachable_count_blocked(&g, &[vid(0)], &blocked_src), 0);
    }

    #[test]
    fn reachable_mask_matches_count() {
        let g = sample();
        let mask = reachable_mask(&g, &[vid(0)]);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 5);
        assert!(mask[0] && mask[1] && mask[4]);
        assert!(!mask[5] && !mask[6]);
    }

    #[test]
    fn workspace_is_reusable_across_runs() {
        let g = sample();
        let mut ws = TraversalWorkspace::new(g.num_vertices());
        assert_eq!(ws.bfs_reachable_count(&g, &[vid(0)], |_| false), 5);
        assert_eq!(ws.bfs_reachable_count(&g, &[vid(5)], |_| false), 2);
        assert!(ws.was_visited(vid(6)));
        assert!(!ws.was_visited(vid(0)));
        // Third run with blocking still correct.
        assert_eq!(ws.bfs_reachable_count(&g, &[vid(0)], |v| v == vid(1)), 2);
    }

    #[test]
    fn bfs_collect_returns_visit_order() {
        let g = sample();
        let mut ws = TraversalWorkspace::new(g.num_vertices());
        let mut out = Vec::new();
        let count = ws.bfs_collect(&g, &[vid(0)], |_| false, &mut out);
        assert_eq!(count, out.len());
        assert_eq!(out[0], vid(0));
        // BFS layer order: 0, then {1,4}, then 2, then 3.
        assert_eq!(out.last(), Some(&vid(3)));
    }

    #[test]
    fn sources_outside_graph_are_ignored() {
        let g = sample();
        let mut ws = TraversalWorkspace::new(g.num_vertices());
        assert_eq!(
            ws.bfs_reachable_count(&g, &[VertexId::new(100)], |_| false),
            0
        );
    }
}
