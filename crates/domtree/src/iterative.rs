//! The Cooper–Harvey–Kennedy iterative dominator algorithm.
//!
//! A simple data-flow formulation of dominators: process the vertices in
//! reverse post-order and repeatedly intersect the dominator sets of
//! predecessors (represented implicitly by walking up the current idom
//! chains) until a fixed point is reached. Worst-case complexity is
//! `O(n · m)` but convergence is fast on real graphs.
//!
//! In this workspace the iterative algorithm is the **oracle** against which
//! the production Lengauer–Tarjan implementation is cross-checked (property
//! tests); it is intentionally written for clarity rather than speed.

use crate::tree::DomTree;
use imin_graph::{DiGraph, VertexId};

const NONE: u32 = u32::MAX;

/// Computes the dominator tree with the iterative data-flow algorithm.
pub fn iterative_dominator_tree(graph: &DiGraph, root: VertexId) -> DomTree {
    let n = graph.num_vertices();
    assert!(root.index() < n, "root {root} out of range");

    // Reverse post-order of the reachable subgraph.
    let postorder = postorder_from(graph, root);
    let rpo: Vec<u32> = postorder.iter().rev().copied().collect();
    let mut rpo_number = vec![u32::MAX; n];
    for (i, &v) in rpo.iter().enumerate() {
        rpo_number[v as usize] = i as u32;
    }
    let mut reachable = vec![false; n];
    for &v in &rpo {
        reachable[v as usize] = true;
    }

    let mut idom = vec![NONE; n];
    idom[root.index()] = root.raw(); // temporary self-idom simplifies intersect

    let intersect = |mut a: u32, mut b: u32, idom: &[u32], rpo_number: &[u32]| -> u32 {
        while a != b {
            while rpo_number[a as usize] > rpo_number[b as usize] {
                a = idom[a as usize];
            }
            while rpo_number[b as usize] > rpo_number[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &v in rpo.iter().skip(1) {
            // First processed predecessor that already has an idom.
            let mut new_idom = NONE;
            for (p, _) in graph.in_edges(VertexId::from_raw(v)) {
                let p = p.raw();
                if !reachable[p as usize] || idom[p as usize] == NONE {
                    continue;
                }
                new_idom = if new_idom == NONE {
                    p
                } else {
                    intersect(p, new_idom, &idom, &rpo_number)
                };
            }
            if new_idom != NONE && idom[v as usize] != new_idom {
                idom[v as usize] = new_idom;
                changed = true;
            }
        }
    }

    idom[root.index()] = NONE;
    // Reverse post-order lists every vertex after its immediate dominator,
    // so it doubles as the preorder required by `DomTree`.
    DomTree::from_parts(root, idom, reachable, rpo)
}

/// Post-order of the vertices reachable from `root` (iterative DFS).
fn postorder_from(graph: &DiGraph, root: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    let mut stack: Vec<(u32, usize)> = vec![(root.raw(), 0)];
    visited[root.index()] = true;
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        let succ = graph.out_neighbors(VertexId::from_raw(u));
        if *next < succ.len() {
            let v = succ[*next];
            *next += 1;
            if !visited[v as usize] {
                visited[v as usize] = true;
                stack.push((v, 0));
            }
        } else {
            order.push(u);
            stack.pop();
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lengauer_tarjan::dominator_tree;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        DiGraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(u, v)| (vid(u), vid(v), 1.0))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_lengauer_tarjan_on_diamond() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let a = iterative_dominator_tree(&g, vid(0));
        let b = dominator_tree(&g, vid(0));
        assert_eq!(a.idom_raw(), b.idom_raw());
        assert!(a.validate().is_ok());
    }

    #[test]
    fn agrees_on_textbook_flowgraph() {
        let g = graph(
            13,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 1),
                (2, 4),
                (2, 5),
                (3, 6),
                (3, 7),
                (4, 12),
                (5, 8),
                (6, 9),
                (7, 9),
                (7, 10),
                (8, 5),
                (8, 11),
                (9, 11),
                (10, 9),
                (11, 9),
                (11, 0),
                (12, 8),
            ],
        );
        let a = iterative_dominator_tree(&g, vid(0));
        let b = dominator_tree(&g, vid(0));
        assert_eq!(a.idom_raw(), b.idom_raw());
        assert_eq!(a.subtree_sizes(), b.subtree_sizes());
    }

    #[test]
    fn handles_unreachable_vertices_and_cycles() {
        let g = graph(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]);
        let t = iterative_dominator_tree(&g, vid(0));
        assert!(t.validate().is_ok());
        assert_eq!(t.num_reachable(), 4);
        assert_eq!(t.idom(vid(3)), Some(vid(2)));
        assert!(!t.is_reachable(vid(4)));
    }

    #[test]
    fn single_vertex_graph() {
        let g = DiGraph::empty(1);
        let t = iterative_dominator_tree(&g, vid(0));
        assert_eq!(t.num_reachable(), 1);
        assert_eq!(t.idom(vid(0)), None);
    }
}
