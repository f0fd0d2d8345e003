//! Live-edge (possible-world) sampling of the IC model.
//!
//! Definition 4 of the paper: a *random sampled graph* `g` keeps every edge
//! `(u, v)` of `G` independently with probability `p(u, v)`. Lemma 1 (due to
//! Kempe et al.) states that the expected number of vertices reachable from
//! the seed in `g` equals the expected spread `E({s}, G)` — this equivalence
//! is what lets the core crate replace per-candidate Monte-Carlo simulation
//! with dominator trees over sampled graphs.
//!
//! This module materialises full live-edge samples as adjacency lists. The
//! core crate's pool has a faster sampler; [`sample_live_edges_indexed`] is
//! the reference it is tested against, and the triggering-model evaluator
//! counts reachability in its samples with [`reachable_in_sample`].

use imin_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A materialised live-edge sample: `adjacency[u]` lists the targets of the
/// edges of `u` that survived the coin flips.
pub type LiveEdgeSample = Vec<Vec<u32>>;

/// Derives the RNG seed of sample number `sample_idx` within a pool whose
/// base seed is `pool_seed`.
///
/// This is the indexed-stream contract shared by every sampler that
/// materialises a pool of samples: each sample owns an independent,
/// reproducible RNG stream keyed only by `(pool_seed, sample_idx)`, so a
/// pool can be built by any number of worker threads — or rebuilt
/// incrementally — and still be **bit-identical** sample by sample. The mix
/// is a SplitMix64 finaliser over the golden-ratio-spaced index, the same
/// construction `SeedableRng::seed_from_u64` uses internally.
#[inline]
pub fn indexed_sample_seed(pool_seed: u64, sample_idx: u64) -> u64 {
    let mut z = pool_seed ^ sample_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws the `sample_idx`-th live-edge sample of the pool `(pool_seed, θ)`.
///
/// Unlike [`sample_live_edges`], which advances a caller-owned RNG, this
/// entry point is parameterised by the explicit per-sample seed of
/// [`indexed_sample_seed`]: calling it for `sample_idx ∈ 0..θ` in any order
/// (or from any sharding of indices across threads) reproduces the exact
/// same pool.
pub fn sample_live_edges_indexed(
    graph: &DiGraph,
    pool_seed: u64,
    sample_idx: u64,
) -> LiveEdgeSample {
    let mut rng = SmallRng::seed_from_u64(indexed_sample_seed(pool_seed, sample_idx));
    sample_live_edges(graph, &mut rng)
}

/// Draws one live-edge sample of the whole graph.
pub fn sample_live_edges<R: Rng + ?Sized>(graph: &DiGraph, rng: &mut R) -> LiveEdgeSample {
    let n = graph.num_vertices();
    let mut adjacency: LiveEdgeSample = vec![Vec::new(); n];
    for u in graph.vertices() {
        let targets = graph.out_neighbors(u);
        let probs = graph.out_probabilities(u);
        let out = &mut adjacency[u.index()];
        for (&t, &p) in targets.iter().zip(probs) {
            let keep = if p >= 1.0 {
                true
            } else if p <= 0.0 {
                false
            } else {
                rng.gen_bool(p)
            };
            if keep {
                out.push(t);
            }
        }
    }
    adjacency
}

/// BFS reachability inside a materialised sample.
pub fn reachable_in_sample(
    sample: &LiveEdgeSample,
    seeds: &[VertexId],
    blocked: Option<&[bool]>,
) -> usize {
    let n = sample.len();
    let mut visited = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    let is_blocked = |v: usize| blocked.map(|m| m[v]).unwrap_or(false);
    let mut count = 0usize;
    for &s in seeds {
        if s.index() < n && !visited[s.index()] && !is_blocked(s.index()) {
            visited[s.index()] = true;
            queue.push(s.raw());
            count += 1;
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &t in &sample[u] {
            let ti = t as usize;
            if !visited[ti] && !is_blocked(ti) {
                visited[ti] = true;
                queue.push(t);
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::MonteCarloEstimator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn two_hop() -> DiGraph {
        DiGraph::from_edges(3, vec![(vid(0), vid(1), 0.5), (vid(1), vid(2), 0.5)]).unwrap()
    }

    #[test]
    fn deterministic_edges_always_survive() {
        let g = DiGraph::from_edges(3, vec![(vid(0), vid(1), 1.0), (vid(1), vid(2), 0.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = sample_live_edges(&g, &mut rng);
            assert_eq!(s[0], vec![1]);
            assert!(s[1].is_empty());
        }
    }

    /// Mean number of vertices reachable from `seeds` over `samples`
    /// live-edge draws.
    fn mean_reached(
        g: &DiGraph,
        seeds: &[VertexId],
        blocked: Option<&[bool]>,
        samples: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let total: usize = (0..samples)
            .map(|_| reachable_in_sample(&sample_live_edges(g, rng), seeds, blocked))
            .sum();
        total as f64 / samples as f64
    }

    #[test]
    fn sampling_estimate_agrees_with_monte_carlo_lemma1() {
        let g = two_hop();
        let mut rng = StdRng::seed_from_u64(9);
        let by_sampling = mean_reached(&g, &[vid(0)], None, 30_000, &mut rng);
        let by_mcs = MonteCarloEstimator::new(30_000)
            .with_threads(1)
            .with_seed(10)
            .expected_spread(&g, &[vid(0)])
            .unwrap()
            .mean;
        assert!((by_sampling - 1.75).abs() < 0.04);
        assert!((by_sampling - by_mcs).abs() < 0.05);
    }

    #[test]
    fn blocking_in_samples_matches_definition() {
        let g = two_hop();
        let mut rng = StdRng::seed_from_u64(3);
        let mut blocked = vec![false; 3];
        blocked[1] = true;
        assert_eq!(
            mean_reached(&g, &[vid(0)], Some(&blocked), 500, &mut rng),
            1.0
        );
    }

    #[test]
    fn indexed_samples_are_reproducible_and_independent_of_order() {
        let g = two_hop();
        let forward: Vec<LiveEdgeSample> = (0..8)
            .map(|i| sample_live_edges_indexed(&g, 77, i))
            .collect();
        let backward: Vec<LiveEdgeSample> = (0..8)
            .rev()
            .map(|i| sample_live_edges_indexed(&g, 77, i))
            .collect();
        for (i, s) in forward.iter().enumerate() {
            assert_eq!(s, &backward[7 - i], "sample {i} depends on draw order");
        }
        // Distinct indices and distinct pool seeds give distinct streams.
        assert_ne!(indexed_sample_seed(77, 0), indexed_sample_seed(77, 1));
        assert_ne!(indexed_sample_seed(77, 0), indexed_sample_seed(78, 0));
    }

    #[test]
    fn reachable_in_sample_handles_blocked_seed_and_duplicates() {
        let sample: LiveEdgeSample = vec![vec![1], vec![2], vec![]];
        assert_eq!(reachable_in_sample(&sample, &[vid(0), vid(0)], None), 3);
        let blocked = vec![true, false, false];
        assert_eq!(reachable_in_sample(&sample, &[vid(0)], Some(&blocked)), 0);
    }
}
