//! The dominator tree data structure.

use imin_graph::VertexId;

const NONE: u32 = u32::MAX;

/// A dominator tree over the vertices reachable from a root in some directed
//  graph.
///
/// Vertices that were unreachable from the root are not part of the tree:
/// [`DomTree::is_reachable`] returns `false`, their immediate dominator is
/// `None` and their subtree size is `0` (they contribute nothing to the
/// spread-decrease estimate of Algorithm 2, exactly as required).
#[derive(Clone, Debug, Default)]
pub struct DomTree {
    // Fields are crate-visible so `DomTreeWorkspace` can rebuild the tree in
    // place, reusing the buffers across samples instead of reallocating.
    pub(crate) root: u32,
    /// `idom[v]` = immediate dominator of `v`; `NONE` for the root and for
    /// unreachable vertices.
    pub(crate) idom: Vec<u32>,
    /// `true` for vertices reachable from the root.
    pub(crate) reachable: Vec<bool>,
    /// Reachable vertices in a preorder of the *dominator tree* (root first,
    /// every vertex after its immediate dominator).
    pub(crate) preorder: Vec<u32>,
}

impl DomTree {
    /// Builds a tree from the immediate-dominator array produced by one of
    /// the construction algorithms.
    ///
    /// `idom[v]` must be `u32::MAX` for the root and for unreachable
    /// vertices; `reachable` flags the vertices that were reached. The
    /// `preorder` must list every reachable vertex after its immediate
    /// dominator (any DFS preorder of the original graph from the root has
    /// this property, because an immediate dominator is always a DFS-tree
    /// ancestor).
    pub(crate) fn from_parts(
        root: VertexId,
        idom: Vec<u32>,
        reachable: Vec<bool>,
        preorder: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(idom.len(), reachable.len());
        DomTree {
            root: root.raw(),
            idom,
            reachable,
            preorder,
        }
    }

    /// The root of the tree (the seed vertex of the sampled graph).
    pub fn root(&self) -> VertexId {
        VertexId::from_raw(self.root)
    }

    /// Number of vertices of the underlying graph (reachable or not).
    pub fn num_vertices(&self) -> usize {
        self.idom.len()
    }

    /// Number of vertices reachable from the root (including the root).
    ///
    /// In a sampled graph this is exactly `σ(s, g)` of Table II.
    pub fn num_reachable(&self) -> usize {
        self.preorder.len()
    }

    /// Returns `true` if `v` is reachable from the root.
    pub fn is_reachable(&self, v: VertexId) -> bool {
        self.reachable.get(v.index()).copied().unwrap_or(false)
    }

    /// Immediate dominator of `v`, or `None` if `v` is the root or
    /// unreachable.
    pub fn idom(&self, v: VertexId) -> Option<VertexId> {
        let raw = *self.idom.get(v.index())?;
        if raw == NONE {
            None
        } else {
            Some(VertexId::from_raw(raw))
        }
    }

    /// Raw immediate-dominator array (`u32::MAX` = none). Useful for tests
    /// comparing two construction algorithms.
    pub fn idom_raw(&self) -> &[u32] {
        &self.idom
    }

    /// The reachable vertices in dominator-tree preorder (root first).
    pub fn preorder(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.preorder.iter().map(|&v| VertexId::from_raw(v))
    }

    /// Children lists of the dominator tree, indexed by vertex.
    pub fn children(&self) -> Vec<Vec<VertexId>> {
        let mut children = vec![Vec::new(); self.idom.len()];
        for (v, &d) in self.idom.iter().enumerate() {
            if d != NONE {
                children[d as usize].push(VertexId::new(v));
            }
        }
        children
    }

    /// Size of the subtree rooted at every vertex.
    ///
    /// `sizes[u]` equals `σ→u(s, g)` — the number of vertices (including `u`
    /// itself) that become unreachable from the root when `u` is blocked
    /// (Theorem 6). Unreachable vertices have size `0`; the root's size is
    /// the total number of reachable vertices.
    pub fn subtree_sizes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        self.subtree_sizes_into(&mut sizes);
        sizes
    }

    /// Computes the subtree sizes into a caller-owned buffer, reusing its
    /// capacity. This is the form the per-sample hot loop of Algorithm 2
    /// uses: once `out` has grown to the cascade high-water mark, the call
    /// performs no heap allocation.
    pub fn subtree_sizes_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.idom.len(), 0);
        for &v in &self.preorder {
            out[v as usize] = 1;
        }
        // Children appear after their parents in the preorder, so a reverse
        // sweep accumulates child sizes into parents in one pass.
        for &v in self.preorder.iter().rev() {
            let d = self.idom[v as usize];
            if d != NONE {
                out[d as usize] += out[v as usize];
            }
        }
    }

    /// Returns `true` if `u` dominates `v` (every path from the root to `v`
    /// passes through `u`). Every reachable vertex dominates itself.
    pub fn dominates(&self, u: VertexId, v: VertexId) -> bool {
        if !self.is_reachable(u) || !self.is_reachable(v) {
            return false;
        }
        let target = u.raw();
        let mut cur = v.raw();
        loop {
            if cur == target {
                return true;
            }
            let next = self.idom[cur as usize];
            if next == NONE {
                return false;
            }
            cur = next;
        }
    }

    /// Internal consistency checks used by tests: the root is reachable with
    /// no idom, every other reachable vertex has a reachable idom, and the
    /// preorder lists parents before children.
    pub fn validate(&self) -> Result<(), String> {
        if !self.reachable[self.root as usize] {
            return Err("root is not marked reachable".into());
        }
        if self.idom[self.root as usize] != NONE {
            return Err("root must not have an immediate dominator".into());
        }
        let mut position = vec![usize::MAX; self.idom.len()];
        for (i, &v) in self.preorder.iter().enumerate() {
            position[v as usize] = i;
        }
        for v in 0..self.idom.len() {
            let reach = self.reachable[v];
            if reach != (position[v] != usize::MAX) {
                return Err(format!("vertex {v}: reachable flag and preorder disagree"));
            }
            if !reach {
                if self.idom[v] != NONE {
                    return Err(format!("unreachable vertex {v} has an idom"));
                }
                continue;
            }
            if v as u32 != self.root {
                let d = self.idom[v];
                if d == NONE {
                    return Err(format!("reachable vertex {v} lacks an idom"));
                }
                if !self.reachable[d as usize] {
                    return Err(format!("idom of {v} is unreachable"));
                }
                if position[d as usize] >= position[v] {
                    return Err(format!("idom of {v} does not precede it in preorder"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Hand-built tree: 0 -> {1, 2}, 1 -> {3}; vertex 4 unreachable.
    fn sample() -> DomTree {
        DomTree::from_parts(
            vid(0),
            vec![NONE, 0, 0, 1, NONE],
            vec![true, true, true, true, false],
            vec![0, 1, 3, 2],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.root(), vid(0));
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.num_reachable(), 4);
        assert!(t.is_reachable(vid(3)));
        assert!(!t.is_reachable(vid(4)));
        assert_eq!(t.idom(vid(3)), Some(vid(1)));
        assert_eq!(t.idom(vid(0)), None);
        assert_eq!(t.idom(vid(4)), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn subtree_sizes_count_dominated_vertices() {
        let t = sample();
        let sizes = t.subtree_sizes();
        assert_eq!(sizes, vec![4, 2, 1, 1, 0]);
    }

    #[test]
    fn subtree_sizes_into_reuses_buffer() {
        let t = sample();
        // A stale, oversized buffer is fully overwritten and truncated.
        let mut buf = vec![99u64; 16];
        t.subtree_sizes_into(&mut buf);
        assert_eq!(buf, vec![4, 2, 1, 1, 0]);
        let capacity = buf.capacity();
        t.subtree_sizes_into(&mut buf);
        assert_eq!(buf, vec![4, 2, 1, 1, 0]);
        assert_eq!(buf.capacity(), capacity, "no reallocation on reuse");
    }

    #[test]
    fn depth_and_dominance() {
        let t = sample();
        assert!(t.dominates(vid(0), vid(3)));
        assert!(t.dominates(vid(1), vid(3)));
        assert!(t.dominates(vid(3), vid(3)));
        assert!(!t.dominates(vid(2), vid(3)));
        assert!(!t.dominates(vid(4), vid(3)));
        assert!(!t.dominates(vid(0), vid(4)));
    }

    #[test]
    fn children_lists() {
        let t = sample();
        let ch = t.children();
        assert_eq!(ch[0], vec![vid(1), vid(2)]);
        assert_eq!(ch[1], vec![vid(3)]);
        assert!(ch[3].is_empty());
        assert!(ch[4].is_empty());
    }

    #[test]
    fn validate_catches_broken_trees() {
        // idom of a reachable vertex missing.
        let bad = DomTree::from_parts(vid(0), vec![NONE, NONE], vec![true, true], vec![0, 1]);
        assert!(bad.validate().is_err());
        // Unreachable vertex with an idom.
        let bad = DomTree::from_parts(vid(0), vec![NONE, 0], vec![true, false], vec![0]);
        assert!(bad.validate().is_err());
        // Preorder lists child before parent.
        let bad = DomTree::from_parts(
            vid(0),
            vec![NONE, 0, 1],
            vec![true, true, true],
            vec![0, 2, 1],
        );
        assert!(bad.validate().is_err());
    }
}
