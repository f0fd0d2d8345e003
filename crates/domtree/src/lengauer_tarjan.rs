//! The Lengauer–Tarjan dominator-tree algorithm.
//!
//! This is the algorithm the paper applies to every sampled graph
//! (§V-B3, Algorithm 2 line 4, reference \[53\]). The implementation is the
//! "simple" eval–link variant: path compression without balancing, which
//! runs in `O(m log n)` and is the variant Lengauer and Tarjan themselves
//! recommend for graphs that are not extremely large. The asymptotically
//! optimal `O(m·α(m,n))` variant differs only in the link step; for the
//! sampled graphs produced by influence sampling (typically a small fraction
//! of the full graph) the simple variant is consistently faster in practice.
//!
//! The production entry point is [`DomTreeWorkspace`]: it owns **all**
//! scratch state of the algorithm — the DFS stack, a flattened
//! predecessor CSR, the linked-list buckets of the semidominator phase, the
//! `semi`/`ancestor`/`label` arrays and the output [`DomTree`] storage — so
//! that the `budget × θ` hot loop of Algorithm 2 (one dominator tree per
//! live-edge sample) performs **zero heap allocations in steady state**:
//! every buffer is cleared and refilled in place, and clearing costs are
//! proportional to the size of the previous sample, never to the full graph.
//!
//! [`DomTreeWorkspace::compute_csr`] is the one way in. The conveniences
//! [`dominator_tree`] and [`dominator_tree_from_adjacency`] flatten their
//! rows into a CSR, run a fresh workspace once and hand out the owned tree.

use crate::tree::DomTree;
use imin_graph::{DiGraph, VertexId};

const NONE: u32 = u32::MAX;

/// Reusable scratch state for Lengauer–Tarjan runs.
///
/// A workspace amortises every allocation of the algorithm across runs:
/// after the buffers have grown to the high-water mark of the inputs it has
/// seen, [`DomTreeWorkspace::compute_csr`] is allocation-free. One workspace
/// serves one thread; the sampling loop of Algorithm 2 keeps one instance
/// per worker thread alive for the whole greedy run.
///
/// ```
/// use imin_domtree::DomTreeWorkspace;
/// use imin_graph::VertexId;
///
/// // Diamond 0 -> {1, 2} -> 3 in CSR form.
/// let offsets = [0u32, 2, 3, 4, 4];
/// let targets = [1u32, 2, 3, 3];
/// let mut ws = DomTreeWorkspace::new();
/// let tree = ws.compute_csr(4, &offsets, &targets, VertexId::new(0));
/// assert_eq!(tree.idom(VertexId::new(3)), Some(VertexId::new(0)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DomTreeWorkspace {
    // ---- DFS ------------------------------------------------------------
    /// Preorder number + 1 (0 = unvisited).
    dfn: Vec<u32>,
    /// DFS-tree parent.
    parent: Vec<u32>,
    /// Explicit DFS stack: vertex and its CSR edge cursor.
    stack_v: Vec<u32>,
    stack_e: Vec<u32>,
    // ---- flattened predecessor lists ------------------------------------
    /// CSR offsets of the predecessor arena (`n + 1` entries).
    pred_offsets: Vec<u32>,
    /// Write cursors while scattering predecessors.
    pred_cursor: Vec<u32>,
    /// Predecessor arena: sources of every edge whose source was reached.
    preds: Vec<u32>,
    // ---- Lengauer–Tarjan state ------------------------------------------
    semi: Vec<u32>,
    ancestor: Vec<u32>,
    label: Vec<u32>,
    /// Intrusive bucket lists: each vertex sits in at most one bucket, so a
    /// head array plus a next array replace the per-vertex `Vec`s.
    bucket_head: Vec<u32>,
    bucket_next: Vec<u32>,
    compress_stack: Vec<u32>,
    // ---- output ----------------------------------------------------------
    tree: DomTree,
}

impl DomTreeWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the dominator tree of the vertices reachable from `root` in
    /// the graph given in CSR form: the out-edges of vertex `u` are
    /// `targets[offsets[u] .. offsets[u + 1]]`, over the vertex universe
    /// `0..num_vertices`.
    ///
    /// The returned reference points into the workspace; it is valid until
    /// the next call. Allocation-free once the workspace has grown to the
    /// input high-water mark.
    ///
    /// # Panics
    /// Panics if `offsets` does not have `num_vertices + 1` entries or the
    /// root is out of range.
    pub fn compute_csr(
        &mut self,
        num_vertices: usize,
        offsets: &[u32],
        targets: &[u32],
        root: VertexId,
    ) -> &DomTree {
        assert_eq!(
            offsets.len(),
            num_vertices + 1,
            "CSR offsets must have num_vertices + 1 entries"
        );
        self.run(num_vertices, offsets, targets, root);
        &self.tree
    }

    fn run(&mut self, n: usize, offsets: &[u32], targets: &[u32], root: VertexId) {
        assert!(
            root.index() < n,
            "root {root} out of range for {n} vertices"
        );
        let root_raw = root.raw();

        // --- Phase 1: iterative DFS from the root ---------------------------
        // Preorder numbers are assigned at first visit in genuine DFS order
        // (a prerequisite of Lengauer–Tarjan: a non-tree edge can never point
        // from a smaller to a larger preorder number across subtrees). The
        // explicit stack stores a CSR edge cursor per frame, so descending
        // and resuming a vertex costs O(1) and allocates nothing.
        let dfn = &mut self.dfn;
        let parent = &mut self.parent;
        dfn.clear();
        dfn.resize(n, 0);
        parent.clear();
        parent.resize(n, NONE);
        let preorder = &mut self.tree.preorder;
        preorder.clear();
        self.stack_v.clear();
        self.stack_e.clear();

        dfn[root_raw as usize] = 1;
        preorder.push(root_raw);
        self.stack_v.push(root_raw);
        self.stack_e.push(offsets[root_raw as usize]);
        while let Some(&u) = self.stack_v.last() {
            let cursor = self.stack_e.last_mut().expect("stacks move in lockstep");
            if *cursor < offsets[u as usize + 1] {
                let v = targets[*cursor as usize];
                *cursor += 1;
                debug_assert!((v as usize) < n, "successor {v} out of range");
                if dfn[v as usize] == 0 {
                    dfn[v as usize] = preorder.len() as u32 + 1;
                    parent[v as usize] = u;
                    preorder.push(v);
                    self.stack_v.push(v);
                    self.stack_e.push(offsets[v as usize]);
                }
            } else {
                self.stack_v.pop();
                self.stack_e.pop();
            }
        }
        let reached = preorder.len();

        let reachable = &mut self.tree.reachable;
        reachable.clear();
        reachable.resize(n, false);
        for &v in preorder.iter() {
            reachable[v as usize] = true;
        }

        let idom = &mut self.tree.idom;
        idom.clear();
        idom.resize(n, NONE);
        self.tree.root = root_raw;

        if reached <= 1 {
            return;
        }

        // --- Tree fast path --------------------------------------------------
        // If every vertex was reached and there are exactly n − 1 edges, every
        // edge is a DFS tree edge, so each non-root vertex has its DFS parent
        // as its unique predecessor — the graph *is* its own dominator tree.
        // Live-edge samples are trees whenever no cascade paths rejoin, which
        // is the common case for small cascades, so this skips the whole
        // semidominator machinery for them.
        if reached == n && targets.len() == n - 1 {
            for &w in preorder[1..].iter() {
                idom[w as usize] = parent[w as usize];
            }
            return;
        }

        // --- Phase 1b: flattened predecessor lists --------------------------
        // The semidominator step walks the predecessors of every vertex. They
        // are gathered into a CSR arena with the classic count → prefix-sum →
        // scatter scheme, restricted to edges whose *source* was reached (an
        // edge out of an unreached vertex can never influence dominance, and
        // skipping it preserves the invariant that `eval` only ever sees
        // numbered vertices).
        let pred_offsets = &mut self.pred_offsets;
        pred_offsets.clear();
        pred_offsets.resize(n + 1, 0);
        for &u in preorder.iter() {
            let lo = offsets[u as usize] as usize;
            let hi = offsets[u as usize + 1] as usize;
            for &v in &targets[lo..hi] {
                pred_offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let total_preds = pred_offsets[n] as usize;
        let preds = &mut self.preds;
        preds.clear();
        preds.resize(total_preds, 0);
        let pred_cursor = &mut self.pred_cursor;
        pred_cursor.clear();
        pred_cursor.extend_from_slice(&pred_offsets[..n]);
        for &u in preorder.iter() {
            let lo = offsets[u as usize] as usize;
            let hi = offsets[u as usize + 1] as usize;
            for &v in &targets[lo..hi] {
                let slot = pred_cursor[v as usize];
                pred_cursor[v as usize] += 1;
                preds[slot as usize] = u;
            }
        }

        // --- Phase 2: semidominators and implicit idoms ---------------------
        // semi[v]: initially dfn(v); later the dfn of the semidominator of v.
        // All comparisons are on dfn numbers. Buckets are intrusive linked
        // lists: every vertex enters exactly one bucket, so `bucket_next`
        // chains it and `bucket_head` anchors the list of its semidominator.
        let semi = &mut self.semi;
        semi.clear();
        semi.extend_from_slice(dfn);
        let ancestor = &mut self.ancestor;
        ancestor.clear();
        ancestor.resize(n, NONE);
        let label = &mut self.label;
        label.clear();
        label.extend(0..n as u32);
        let bucket_head = &mut self.bucket_head;
        bucket_head.clear();
        bucket_head.resize(n, NONE);
        let bucket_next = &mut self.bucket_next;
        bucket_next.clear();
        bucket_next.resize(n, NONE);
        let compress_stack = &mut self.compress_stack;
        compress_stack.clear();

        // Iterative path-compression eval.
        let eval = |v: u32,
                    ancestor: &mut [u32],
                    label: &mut [u32],
                    semi: &[u32],
                    compress_stack: &mut Vec<u32>|
         -> u32 {
            if ancestor[v as usize] == NONE {
                return v;
            }
            // Collect the ancestor chain that still needs compression.
            compress_stack.clear();
            let mut cur = v;
            while ancestor[ancestor[cur as usize] as usize] != NONE {
                compress_stack.push(cur);
                cur = ancestor[cur as usize];
            }
            // Compress from the top of the chain downwards.
            while let Some(w) = compress_stack.pop() {
                let anc = ancestor[w as usize];
                if semi[label[anc as usize] as usize] < semi[label[w as usize] as usize] {
                    label[w as usize] = label[anc as usize];
                }
                ancestor[w as usize] = ancestor[anc as usize];
            }
            label[v as usize]
        };

        for i in (1..reached).rev() {
            let w = preorder[i];
            let p = parent[w as usize];
            // Step 2: semidominator of w.
            let lo = pred_offsets[w as usize] as usize;
            let hi = pred_offsets[w as usize + 1] as usize;
            for &v in &preds[lo..hi] {
                let u = eval(v, ancestor, label, semi, compress_stack);
                if semi[u as usize] < semi[w as usize] {
                    semi[w as usize] = semi[u as usize];
                }
            }
            let sd = preorder[(semi[w as usize] - 1) as usize];
            bucket_next[w as usize] = bucket_head[sd as usize];
            bucket_head[sd as usize] = w;
            // link(parent(w), w)
            ancestor[w as usize] = p;
            // Step 3: implicit immediate dominators for the bucket of
            // parent(w).
            let mut v = bucket_head[p as usize];
            bucket_head[p as usize] = NONE;
            while v != NONE {
                let next = bucket_next[v as usize];
                let u = eval(v, ancestor, label, semi, compress_stack);
                idom[v as usize] = if semi[u as usize] < semi[v as usize] {
                    u
                } else {
                    p
                };
                v = next;
            }
        }

        // --- Phase 3: explicit immediate dominators -------------------------
        for i in 1..reached {
            let w = preorder[i];
            if idom[w as usize] != preorder[(semi[w as usize] - 1) as usize] {
                idom[w as usize] = idom[idom[w as usize] as usize];
            }
        }
        idom[root_raw as usize] = NONE;
    }
}

/// Dominator tree of `graph` rooted at `root` (over the full graph).
pub fn dominator_tree(graph: &DiGraph, root: VertexId) -> DomTree {
    let rows = graph.vertices().map(|u| graph.out_neighbors(u));
    dominator_tree_of_rows(graph.num_vertices(), rows, root)
}

/// Dominator tree over a nested adjacency-list representation
/// (`adjacency[u]` lists the out-neighbours of `u`), for tests and
/// oracles that hold that shape.
pub fn dominator_tree_from_adjacency(adjacency: &[Vec<u32>], root: VertexId) -> DomTree {
    let rows = adjacency.iter().map(Vec::as_slice);
    dominator_tree_of_rows(adjacency.len(), rows, root)
}

/// Runs a fresh workspace once over `rows` (one per vertex); callers in a
/// loop should hold a [`DomTreeWorkspace`] instead.
fn dominator_tree_of_rows<'a>(
    num_vertices: usize,
    rows: impl Iterator<Item = &'a [u32]>,
    root: VertexId,
) -> DomTree {
    let (offsets, targets) = csr_of_rows(rows);
    let mut ws = DomTreeWorkspace::new();
    ws.compute_csr(num_vertices, &offsets, &targets, root);
    ws.tree
}

/// Flattens one row of out-neighbours per vertex into CSR offsets and
/// targets.
fn csr_of_rows<'a>(rows: impl Iterator<Item = &'a [u32]>) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0];
    let mut targets = Vec::new();
    for row in rows {
        targets.extend_from_slice(row);
        offsets.push(targets.len() as u32);
    }
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `graph`'s out-adjacency as `compute_csr` input.
    fn csr(graph: &DiGraph) -> (Vec<u32>, Vec<u32>) {
        csr_of_rows(graph.vertices().map(|u| graph.out_neighbors(u)))
    }

    #[test]
    fn diamond_idoms() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3: idom(3) = 0.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dt = dominator_tree(&g, vid(0));
        assert!(dt.validate().is_ok());
        assert_eq!(dt.idom(vid(1)), Some(vid(0)));
        assert_eq!(dt.idom(vid(2)), Some(vid(0)));
        assert_eq!(dt.idom(vid(3)), Some(vid(0)));
        assert_eq!(dt.subtree_sizes(), vec![4, 1, 1, 1]);
    }

    #[test]
    fn chain_idoms_and_sizes() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let dt = dominator_tree(&g, vid(0));
        assert_eq!(dt.idom(vid(3)), Some(vid(2)));
        assert_eq!(dt.subtree_sizes(), vec![4, 3, 2, 1]);
        // The idom chain of 3 climbs the whole path to the root.
        let mut chain = vec![vid(3)];
        while let Some(d) = dt.idom(*chain.last().unwrap()) {
            chain.push(d);
        }
        assert_eq!(chain, [3, 2, 1, 0].map(vid));
    }

    #[test]
    fn classic_lengauer_tarjan_example() {
        // The textbook example from the original paper (Appel's rendering),
        // vertices R,A..L mapped to 0..12:
        // R=0 A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8 I=9 J=10 K=11 L=12
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
        let dt = dominator_tree(&g, vid(0));
        assert!(dt.validate().is_ok());
        // Known immediate dominators for this flow graph.
        let expected = [
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 3),
            (7, 3),
            (8, 0),
            (9, 0),
            (10, 7),
            (11, 0),
            (12, 4),
        ];
        for (v, d) in expected {
            assert_eq!(
                dt.idom(vid(v)),
                Some(vid(d)),
                "idom of vertex {v} should be {d}"
            );
        }
    }

    #[test]
    fn unreachable_vertices_are_excluded() {
        let g = graph(5, &[(0, 1), (1, 2), (3, 4)]);
        let dt = dominator_tree(&g, vid(0));
        assert_eq!(dt.num_reachable(), 3);
        assert!(!dt.is_reachable(vid(3)));
        assert_eq!(dt.idom(vid(4)), None);
        assert_eq!(dt.subtree_sizes()[3], 0);
        assert_eq!(dt.subtree_sizes()[0], 3);
    }

    #[test]
    fn single_vertex_and_isolated_root() {
        let g = DiGraph::empty(3);
        let dt = dominator_tree(&g, vid(1));
        assert_eq!(dt.num_reachable(), 1);
        assert_eq!(dt.root(), vid(1));
        assert_eq!(dt.subtree_sizes(), vec![0, 1, 0]);
        assert!(dt.validate().is_ok());
    }

    #[test]
    fn cycle_back_edges_do_not_confuse_dominators() {
        // 0 -> 1 -> 2 -> 1 (cycle), 2 -> 3.
        let g = graph(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let dt = dominator_tree(&g, vid(0));
        assert_eq!(dt.idom(vid(1)), Some(vid(0)));
        assert_eq!(dt.idom(vid(2)), Some(vid(1)));
        assert_eq!(dt.idom(vid(3)), Some(vid(2)));
    }

    #[test]
    fn multiple_paths_collapse_to_common_dominator() {
        // Figure-1-like topology: the seed has two parallel branches that
        // rejoin, so the rejoin vertex is dominated by the seed only.
        let g = graph(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5), (5, 4)]);
        let dt = dominator_tree(&g, vid(0));
        assert_eq!(dt.idom(vid(3)), Some(vid(0)));
        assert_eq!(dt.idom(vid(4)), Some(vid(0)));
        assert_eq!(dt.subtree_sizes()[0], 6);
    }

    #[test]
    fn adjacency_interface_matches_graph_interface() {
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let adj: Vec<Vec<u32>> = (0..5).map(|u| g.out_neighbors(vid(u)).to_vec()).collect();
        let a = dominator_tree(&g, vid(0));
        let b = dominator_tree_from_adjacency(&adj, vid(0));
        assert_eq!(a.idom_raw(), b.idom_raw());
        assert_eq!(a.subtree_sizes(), b.subtree_sizes());
    }

    #[test]
    fn csr_interface_matches_adjacency_interface() {
        let g = graph(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]);
        let (offsets, targets) = csr(&g);
        let mut ws = DomTreeWorkspace::new();
        let from_csr = ws.compute_csr(6, &offsets, &targets, vid(0)).clone();
        let from_graph = dominator_tree(&g, vid(0));
        assert_eq!(from_csr.idom_raw(), from_graph.idom_raw());
        assert_eq!(from_csr.subtree_sizes(), from_graph.subtree_sizes());
        assert!(from_csr.validate().is_ok());
    }

    #[test]
    fn workspace_reuse_across_different_graphs_is_correct() {
        // The same workspace must produce correct trees when fed graphs of
        // varying size and shape back to back (stale state bleeding between
        // runs is the classic bug in workspace reuse).
        let mut ws = DomTreeWorkspace::new();
        let shapes: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]),
            (2, vec![(0, 1)]),
            (
                7,
                vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)],
            ),
            (1, vec![]),
            (5, vec![(0, 1), (1, 2), (3, 4)]),
        ];
        for (n, edges) in shapes {
            let g = graph(n, &edges);
            let reference = dominator_tree(&g, vid(0));
            let (offsets, targets) = csr(&g);
            let ws_tree = ws.compute_csr(n, &offsets, &targets, vid(0));
            assert_eq!(ws_tree.idom_raw(), reference.idom_raw(), "n={n}");
            assert_eq!(ws_tree.subtree_sizes(), reference.subtree_sizes());
            assert!(ws_tree.validate().is_ok());
        }
    }

    #[test]
    fn workspace_reuse_agrees_with_oracle_on_random_graphs() {
        use crate::naive::naive_immediate_dominators;
        let mut ws = DomTreeWorkspace::new();
        // Deterministic LCG-driven random graphs of varying size.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..40 {
            let n = 2 + next() % 14;
            let m = next() % 40;
            let edges: Vec<(usize, usize)> = (0..m)
                .map(|_| (next() % n, next() % n))
                .filter(|&(u, v)| u != v)
                .collect();
            let g = graph(n, &edges);
            let root = vid(next() % n);
            let oracle = naive_immediate_dominators(&g, root);
            let (offsets, targets) = csr(&g);
            let tree = ws.compute_csr(n, &offsets, &targets, root);
            for (v, expected) in oracle.iter().enumerate() {
                assert_eq!(
                    tree.idom(vid(v)),
                    *expected,
                    "round {round}: idom mismatch at vertex {v} (n={n})"
                );
            }
        }
    }

    #[test]
    fn deep_path_does_not_overflow_the_stack() {
        // 50k-vertex path exercises the iterative DFS and iterative
        // path compression.
        let n = 50_000;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let g = graph(n, &edges);
        let dt = dominator_tree(&g, vid(0));
        assert_eq!(dt.num_reachable(), n);
        assert_eq!(dt.subtree_sizes()[0], n as u64);
        assert_eq!(dt.idom(vid(n - 1)), Some(vid(n - 2)));
    }
}
