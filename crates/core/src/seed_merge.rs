//! Multi-seed to single-seed reduction ("From Multiple Seeds to One Seed",
//! §V of the paper).
//!
//! The estimation machinery (Algorithm 2) is presented for a single seed
//! vertex `s`. When the problem has several seeds, a *unified seed* `s'` is
//! added: for every vertex `u` with `h` seed in-neighbours carrying
//! probabilities `p_1..p_h`, the seed edges are removed and replaced by one
//! edge `(s', u)` with probability `1 - Π(1 - p_i)`. Because an active
//! vertex only gets a single chance to activate each out-neighbour, the
//! reduction leaves the spread distribution over non-seed vertices
//! unchanged, and the optimal blocker set is the same as for the original
//! problem.
//!
//! Bookkeeping: the merged graph counts `s'` as one active vertex where the
//! original problem counts `|S|` active seeds, so
//! `E_original = E_merged + |S| - 1`. [`MergedSeeds::to_original_spread`]
//! applies that offset.

use crate::{IminError, Result};
use imin_graph::{DiGraph, GraphBuilder, VertexId};

/// The result of merging a seed set into a single unified seed.
#[derive(Clone, Debug)]
pub struct MergedSeeds {
    /// The merged graph: the original vertices `0..n` plus the unified seed
    /// as vertex `n`. Original seed vertices keep their ids but lose all
    /// incident edges, so they are unreachable from the unified seed and
    /// contribute nothing to the merged spread.
    pub graph: DiGraph,
    /// The unified seed vertex `s'` (always the last vertex).
    pub super_seed: VertexId,
    /// The original seed set (sorted, deduplicated).
    pub original_seeds: Vec<VertexId>,
    /// Number of vertices of the original graph.
    pub original_num_vertices: usize,
}

impl MergedSeeds {
    /// Converts a spread measured on the merged graph (which counts the
    /// unified seed as one active vertex) into the original-graph spread
    /// (which counts every original seed).
    pub fn to_original_spread(&self, merged_spread: f64) -> f64 {
        merged_spread + self.original_seeds.len() as f64 - 1.0
    }

    /// Returns `true` if `v` is one of the original seeds.
    pub fn is_original_seed(&self, v: VertexId) -> bool {
        self.original_seeds.binary_search(&v).is_ok()
    }

    /// Returns `true` if `v` may be blocked: it must be an original-graph
    /// vertex that is not a seed (the problem requires `B ⊆ V \ S`).
    pub fn is_valid_blocker(&self, v: VertexId) -> bool {
        v.index() < self.original_num_vertices && !self.is_original_seed(v)
    }

    /// A blocked mask over the merged graph built from original-graph
    /// blockers.
    ///
    /// # Errors
    /// Returns an error if any blocker is a seed or out of range.
    pub fn blocker_mask(&self, blockers: &[VertexId]) -> Result<Vec<bool>> {
        let mut mask = vec![false; self.graph.num_vertices()];
        for &b in blockers {
            if b.index() >= self.original_num_vertices {
                return Err(IminError::InvalidBlocker {
                    vertex: b.index(),
                    reason: "vertex does not exist in the original graph",
                });
            }
            if self.is_original_seed(b) {
                return Err(IminError::InvalidBlocker {
                    vertex: b.index(),
                    reason: "seed vertices cannot be blocked (B ⊆ V \\ S)",
                });
            }
            mask[b.index()] = true;
        }
        Ok(mask)
    }
}

/// Performs the unified-seed reduction.
///
/// # Errors
/// Returns an error if `seeds` is empty or contains an out-of-range vertex.
pub fn merge_seeds(graph: &DiGraph, seeds: &[VertexId]) -> Result<MergedSeeds> {
    if seeds.is_empty() {
        return Err(IminError::EmptySeedSet);
    }
    let n = graph.num_vertices();
    for &s in seeds {
        if s.index() >= n {
            return Err(IminError::SeedOutOfRange {
                vertex: s.index(),
                num_vertices: n,
            });
        }
    }
    let mut original_seeds: Vec<VertexId> = seeds.to_vec();
    original_seeds.sort_unstable();
    original_seeds.dedup();

    let mut is_seed = vec![false; n];
    for &s in &original_seeds {
        is_seed[s.index()] = true;
    }

    let super_seed = VertexId::new(n);
    let mut builder = GraphBuilder::with_capacity(n + 1, graph.num_edges() + 16);

    // Copy every edge that neither starts nor ends at a seed.
    for e in graph.edges() {
        if is_seed[e.source.index()] || is_seed[e.target.index()] {
            continue;
        }
        builder.add_edge(e.source, e.target, e.probability)?;
    }

    // For every non-seed vertex u with at least one seed in-neighbour, add
    // (s', u) with the noisy-or of the seed-edge probabilities. Duplicate
    // insertions through the builder would also noisy-or correctly, but the
    // explicit combination keeps the construction obvious.
    for u in graph.vertices() {
        if is_seed[u.index()] {
            continue;
        }
        let mut miss = 1.0f64;
        let mut any = false;
        for (src, p) in graph.in_edges(u) {
            if is_seed[src.index()] {
                any = true;
                miss *= 1.0 - p;
            }
        }
        if any {
            builder.add_edge(super_seed, u, 1.0 - miss)?;
        }
    }

    Ok(MergedSeeds {
        graph: builder.build(),
        super_seed,
        original_seeds,
        original_num_vertices: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_diffusion::exact::exact_expected_spread;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn small_graph() -> DiGraph {
        // Seeds 0 and 1 both point at 2; 2 -> 3; 1 -> 3 directly.
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(2), 0.5),
                (vid(1), vid(2), 0.5),
                (vid(2), vid(3), 0.5),
                (vid(1), vid(3), 0.25),
            ],
        )
        .unwrap()
    }

    #[test]
    fn merged_probabilities_follow_noisy_or() {
        let g = small_graph();
        let merged = merge_seeds(&g, &[vid(0), vid(1)]).unwrap();
        assert_eq!(merged.graph.num_vertices(), 5);
        assert_eq!(merged.super_seed, vid(4));
        // (s', 2) combines 0.5 and 0.5 into 0.75.
        assert!((merged.graph.edge_probability(vid(4), vid(2)).unwrap() - 0.75).abs() < 1e-12);
        // (s', 3) carries only the single seed edge 0.25.
        assert_eq!(merged.graph.edge_probability(vid(4), vid(3)), Some(0.25));
        // Non-seed edge survives unchanged.
        assert_eq!(merged.graph.edge_probability(vid(2), vid(3)), Some(0.5));
        // Seeds lost their edges entirely.
        assert_eq!(merged.graph.out_degree(vid(0)), 0);
        assert_eq!(merged.graph.out_degree(vid(1)), 0);
        assert_eq!(merged.graph.in_degree(vid(0)), 0);
    }

    #[test]
    fn merged_spread_matches_original_spread_exactly() {
        let g = small_graph();
        let seeds = [vid(0), vid(1)];
        let original = exact_expected_spread(&g, &seeds, None).unwrap();
        let merged = merge_seeds(&g, &seeds).unwrap();
        let merged_spread =
            exact_expected_spread(&merged.graph, &[merged.super_seed], None).unwrap();
        assert!(
            (merged.to_original_spread(merged_spread) - original).abs() < 1e-9,
            "merged {merged_spread} vs original {original}"
        );
    }

    #[test]
    fn merged_spread_matches_under_blocking_too() {
        let g = small_graph();
        let seeds = [vid(0), vid(1)];
        let merged = merge_seeds(&g, &seeds).unwrap();
        // Block vertex 2 in both formulations.
        let mut orig_mask = vec![false; 4];
        orig_mask[2] = true;
        let original = exact_expected_spread(&g, &seeds, Some(&orig_mask)).unwrap();
        let merged_mask = merged.blocker_mask(&[vid(2)]).unwrap();
        let merged_spread =
            exact_expected_spread(&merged.graph, &[merged.super_seed], Some(&merged_mask)).unwrap();
        assert!((merged.to_original_spread(merged_spread) - original).abs() < 1e-9);
    }

    #[test]
    fn single_seed_merge_is_mostly_identity() {
        let g = small_graph();
        let merged = merge_seeds(&g, &[vid(0)]).unwrap();
        // With one seed the offset is zero.
        assert_eq!(merged.to_original_spread(2.5), 2.5);
        // Edges not touching the seed are unchanged; the seed's out-edges are
        // rewired through s'.
        assert_eq!(merged.graph.edge_probability(vid(4), vid(2)), Some(0.5));
        assert_eq!(merged.graph.edge_probability(vid(1), vid(3)), Some(0.25));
    }

    #[test]
    fn validity_checks_and_masks() {
        let g = small_graph();
        let merged = merge_seeds(&g, &[vid(0), vid(1), vid(0)]).unwrap();
        assert_eq!(merged.original_seeds, vec![vid(0), vid(1)]);
        assert!(merged.is_original_seed(vid(1)));
        assert!(!merged.is_original_seed(vid(2)));
        assert!(merged.is_valid_blocker(vid(2)));
        assert!(!merged.is_valid_blocker(vid(0)));
        assert!(
            !merged.is_valid_blocker(vid(4)),
            "the unified seed is not blockable"
        );
        assert!(merged.blocker_mask(&[vid(2), vid(3)]).is_ok());
        assert!(merged.blocker_mask(&[vid(0)]).is_err());
        assert!(merged.blocker_mask(&[vid(4)]).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let g = small_graph();
        assert!(matches!(merge_seeds(&g, &[]), Err(IminError::EmptySeedSet)));
        assert!(matches!(
            merge_seeds(&g, &[vid(9)]),
            Err(IminError::SeedOutOfRange { .. })
        ));
    }

    #[test]
    fn seed_to_seed_edges_are_dropped() {
        let g = DiGraph::from_edges(3, vec![(vid(0), vid(1), 1.0), (vid(1), vid(2), 1.0)]).unwrap();
        let merged = merge_seeds(&g, &[vid(0), vid(1)]).unwrap();
        // The edge 0 -> 1 (seed to seed) disappears; s' -> 2 carries 1.0.
        assert_eq!(merged.graph.edge_probability(vid(3), vid(2)), Some(1.0));
        assert_eq!(merged.graph.num_edges(), 1);
    }
}
