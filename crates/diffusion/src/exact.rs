//! Exact expected spread by a factored recursion over the possible worlds.
//!
//! Computing the expected spread under the IC model is #P-hard in general
//! \[21\], but the paper's running example (Examples 1–3, Table III) states
//! exact spreads, and its authors compute exact spreads with the BDD method
//! of Maehara et al. \[39\]. This module grows the cascade from the seeds
//! and branches only on the edges that can still change it:
//!
//! * the pending out-edges of reached vertices are taken one at a time;
//! * an edge of probability 0, or into a reached or blocked vertex, is
//!   dropped: its state cannot change which vertices are reached;
//! * an edge of probability 1 reaches its target;
//! * any other edge is branched on: live with weight `p`, dead with weight
//!   `1 − p`.
//!
//! A leaf has no pending edge left, so its reached set is closed under the
//! live edges: it is the cascade of every world that agrees with the edges
//! branched on along its path, and those worlds' total probability is the
//! leaf's weight. Sibling branches disagree on one edge, so the leaves
//! partition the worlds, and adding each leaf's weight to every vertex it
//! reached gives the activation probabilities exactly, not an estimate.
//! Edges out of vertices a leaf never reached are never examined on its
//! path, so the work grows with the number of leaves (each costs at most one
//! pass over the out-edges of the vertices it reached), not with `2^k` for
//! the `k` uncertain edges reachable from the seeds.
//!
//! The work is capped at [`MAX_LEAVES`] leaves; past the cap the computation
//! stops with [`DiffusionError::TooManyLeaves`]. Different leaves repeat the
//! same sub-cascades; a BDD over one edge order shares them, which is how
//! \[39\] reaches larger graphs and is the next step here.

use crate::error::validate_seeds_and_mask;
use crate::{DiffusionError, Result};
use imin_graph::{DiGraph, VertexId};

/// The most leaves the recursion visits before it refuses (`2^22`, about
/// four million).
pub const MAX_LEAVES: u64 = 1 << 22;

/// Exact per-vertex activation probabilities `P_G(v, S)` (Definition 1)
/// under an optional blocker mask.
///
/// # Errors
/// Returns [`DiffusionError::TooManyLeaves`] if the recursion needs more
/// than [`MAX_LEAVES`] leaves, plus the usual validation errors.
pub fn exact_activation_probabilities(
    graph: &DiGraph,
    seeds: &[VertexId],
    blocked: Option<&[bool]>,
) -> Result<Vec<f64>> {
    capped_activation_probabilities(graph, seeds, blocked, MAX_LEAVES)
}

/// A branch whose dead side is still to be visited. The dead sides wait on
/// a stack on the heap, so a long chain of uncertain edges cannot overflow
/// the thread's call stack.
struct Branch {
    /// How many vertices were reached before the branched edge.
    reached: usize,
    /// Where the dead side resumes: the pending edge after the branched one.
    next: (usize, usize),
    /// The dead side's weight.
    weight: f64,
}

/// [`exact_activation_probabilities`] under a leaf cap of `max_leaves`.
fn capped_activation_probabilities(
    graph: &DiGraph,
    seeds: &[VertexId],
    blocked: Option<&[bool]>,
    max_leaves: u64,
) -> Result<Vec<f64>> {
    validate_seeds_and_mask(graph.num_vertices(), seeds, blocked)?;
    let n = graph.num_vertices();
    // `closed[v]`: v is reached or blocked, so no edge into v matters.
    let mut closed = blocked.map_or_else(|| vec![false; n], <[bool]>::to_vec);
    let mut reached: Vec<VertexId> = Vec::new();
    for &s in seeds {
        if !std::mem::replace(&mut closed[s.index()], true) {
            reached.push(s);
        }
    }
    let mut activation = vec![0.0; n];
    let mut branches: Vec<Branch> = Vec::new();
    // The next pending edge is out-edge `next.1` of vertex `reached[next.0]`;
    // `weight` is the probability of the edge states chosen on this path.
    let (mut next, mut weight, mut leaves) = ((0, 0), 1.0, 0);
    loop {
        while let Some(&u) = reached.get(next.0) {
            let Some(&t) = graph.out_neighbors(u).get(next.1) else {
                next = (next.0 + 1, 0);
                continue;
            };
            let p = graph.out_probabilities(u)[next.1];
            next.1 += 1;
            if p <= 0.0 || closed[t as usize] {
                continue;
            }
            if p < 1.0 {
                branches.push(Branch {
                    reached: reached.len(),
                    next,
                    weight: weight * (1.0 - p),
                });
                weight *= p;
            }
            closed[t as usize] = true;
            reached.push(VertexId::from_raw(t));
        }
        leaves += 1;
        if leaves > max_leaves {
            return Err(DiffusionError::TooManyLeaves { limit: max_leaves });
        }
        for &v in &reached {
            activation[v.index()] += weight;
        }
        let Some(branch) = branches.pop() else {
            return Ok(activation);
        };
        for v in reached.drain(branch.reached..) {
            closed[v.index()] = false;
        }
        (next, weight) = (branch.next, branch.weight);
    }
}

/// Exact expected spread `E(S, G[V \ B])` — the sum of the exact activation
/// probabilities (Definition 3, which the paper's Example 1 evaluates as
/// 7.66 on the toy graph).
///
/// # Errors
/// As [`exact_activation_probabilities`].
pub fn exact_expected_spread(
    graph: &DiGraph,
    seeds: &[VertexId],
    blocked: Option<&[bool]>,
) -> Result<f64> {
    Ok(exact_activation_probabilities(graph, seeds, blocked)?
        .iter()
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::MonteCarloEstimator;
    use imin_graph::traversal::TraversalWorkspace;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn two_hop_closed_form() {
        let g = DiGraph::from_edges(3, vec![(vid(0), vid(1), 0.5), (vid(1), vid(2), 0.5)]).unwrap();
        let probs = exact_activation_probabilities(&g, &[vid(0)], None).unwrap();
        assert!((probs[0] - 1.0).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert!((probs[2] - 0.25).abs() < 1e-12);
        let e = exact_expected_spread(&g, &[vid(0)], None).unwrap();
        assert!((e - 1.75).abs() < 1e-12);
    }

    #[test]
    fn correlated_paths_are_handled_exactly() {
        // Diamond with shared source randomness: 0 -> 1 (0.5), 0 -> 2 (0.5),
        // 1 -> 3 (1.0), 2 -> 3 (1.0).
        // P(3) = 1 - (1 - 0.5)(1 - 0.5) = 0.75, E = 1 + 0.5 + 0.5 + 0.75.
        let g = DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 0.5),
                (vid(0), vid(2), 0.5),
                (vid(1), vid(3), 1.0),
                (vid(2), vid(3), 1.0),
            ],
        )
        .unwrap();
        let e = exact_expected_spread(&g, &[vid(0)], None).unwrap();
        assert!((e - 2.75).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_monte_carlo_on_random_small_graph() {
        let g = imin_graph::generators::erdos_renyi(12, 0.2, 0.3, 5).unwrap();
        let exact = exact_expected_spread(&g, &[vid(0)], None).unwrap();
        let mcs = MonteCarloEstimator::new(60_000)
            .with_seed(77)
            .expected_spread(&g, &[vid(0)])
            .unwrap();
        assert!(
            mcs.is_consistent_with(exact, 0.05),
            "exact {exact} vs MCS {}",
            mcs.mean
        );
    }

    #[test]
    fn blocking_is_respected() {
        let g = DiGraph::from_edges(3, vec![(vid(0), vid(1), 0.5), (vid(1), vid(2), 1.0)]).unwrap();
        let mut blocked = vec![false; 3];
        blocked[1] = true;
        let e = exact_expected_spread(&g, &[vid(0)], Some(&blocked)).unwrap();
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leaf_cap_is_enforced() {
        let g = imin_graph::generators::complete(6, 0.5).unwrap();
        assert!(matches!(
            capped_activation_probabilities(&g, &[vid(0)], None, 3),
            Err(DiffusionError::TooManyLeaves { limit: 3 })
        ));
    }

    #[test]
    fn multiple_seeds_and_unreachable_vertices() {
        let g = DiGraph::from_edges(
            5,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(2), vid(3), 0.5),
                // vertex 4 is isolated
            ],
        )
        .unwrap();
        let e = exact_expected_spread(&g, &[vid(0), vid(2)], None).unwrap();
        assert!((e - 3.5).abs() < 1e-12);
        let probs = exact_activation_probabilities(&g, &[vid(0), vid(2)], None).unwrap();
        assert_eq!(probs[4], 0.0);
    }

    #[test]
    fn validation_errors_propagate() {
        let g = DiGraph::empty(2);
        assert!(exact_expected_spread(&g, &[], None).is_err());
        assert!(exact_expected_spread(&g, &[vid(5)], None).is_err());
    }

    /// The possible-world enumerator, kept as the gate's reference: the
    /// deterministic edges are fixed and all `2^k` worlds of the `k`
    /// uncertain edges reachable from the seeds are enumerated, one BFS per
    /// world. `None` when `k` exceeds `max_uncertain`.
    fn enumerate_worlds(
        graph: &DiGraph,
        seeds: &[VertexId],
        blocked: Option<&[bool]>,
        max_uncertain: usize,
    ) -> Option<Vec<f64>> {
        let n = graph.num_vertices();
        let is_blocked = |v: usize| blocked.map(|m| m[v]).unwrap_or(false);
        let mut ws = TraversalWorkspace::new(n);
        let mut region: Vec<VertexId> = Vec::new();
        ws.bfs_collect(graph, seeds, |v| is_blocked(v.index()), &mut region);
        let mut in_region = vec![false; n];
        for &v in &region {
            in_region[v.index()] = true;
        }
        let mut uncertain: Vec<(u32, u32, f64)> = Vec::new();
        let mut det_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &u in &region {
            let targets = graph.out_neighbors(u);
            let probs = graph.out_probabilities(u);
            for (&t, &p) in targets.iter().zip(probs) {
                if p > 0.0 && in_region[t as usize] && !is_blocked(t as usize) {
                    if p < 1.0 {
                        uncertain.push((u.raw(), t, p));
                    } else {
                        det_adj[u.index()].push(t);
                    }
                }
            }
        }
        if uncertain.len() > max_uncertain {
            return None;
        }
        let mut activation = vec![0.0f64; n];
        let mut visited = vec![false; n];
        let mut queue: Vec<u32> = Vec::new();
        let mut extra_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for world in 0u64..(1u64 << uncertain.len()) {
            let mut weight = 1.0f64;
            for lists in extra_adj.iter_mut() {
                lists.clear();
            }
            for (i, &(u, t, p)) in uncertain.iter().enumerate() {
                if (world >> i) & 1 == 1 {
                    weight *= p;
                    extra_adj[u as usize].push(t);
                } else {
                    weight *= 1.0 - p;
                }
            }
            visited.iter_mut().for_each(|v| *v = false);
            queue.clear();
            for &s in seeds {
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    queue.push(s.raw());
                }
            }
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &t in det_adj[u].iter().chain(extra_adj[u].iter()) {
                    let ti = t as usize;
                    if !visited[ti] && !is_blocked(ti) {
                        visited[ti] = true;
                        queue.push(t);
                    }
                }
            }
            for &v in &queue {
                activation[v as usize] += weight;
            }
        }
        Some(activation)
    }

    type Case = (DiGraph, Vec<VertexId>, Option<Vec<bool>>);

    /// Requires the oracle to match the enumerator to 1e-9 at every vertex.
    fn assert_matches_enumeration((g, seeds, mask): &Case, reference: &[f64]) {
        let probs = exact_activation_probabilities(g, seeds, mask.as_deref()).unwrap();
        for (v, (got, want)) in probs.iter().zip(reference).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "vertex {v}: {got} vs {want} (seeds {seeds:?}, blocked {mask:?}, {g:?})"
            );
        }
    }

    /// Gate for the exact oracle: it matches the world enumerator to 1e-9
    /// per vertex on the hand-built graphs of these tests and of the
    /// seed-merge tests, and on at least 48 random Erdős–Rényi graphs, each
    /// with one and with two seeds, with and without blocked vertices, whose
    /// edge probabilities mix 0, 1 and values in between. Cases with more
    /// than 16 reachable uncertain edges are passed over, which keeps the
    /// enumerator fast; the graphs of the Monte-Carlo and leaf-cap tests
    /// are checked by the ignored test below.
    #[test]
    fn factored_recursion_agrees_with_world_enumeration() {
        let edges = |list: &[(usize, usize, f64)]| {
            let n = list.iter().map(|&(u, v, _)| u.max(v) + 1).max().unwrap();
            DiGraph::from_edges(n, list.iter().map(|&(u, v, p)| (vid(u), vid(v), p))).unwrap()
        };
        let fixed: Vec<Case> = vec![
            (edges(&[(0, 1, 0.5), (1, 2, 0.5)]), vec![vid(0)], None),
            (
                edges(&[(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0)]),
                vec![vid(0)],
                None,
            ),
            (
                edges(&[(0, 1, 0.5), (1, 2, 1.0)]),
                vec![vid(0)],
                Some(vec![false, true, false]),
            ),
            (
                DiGraph::from_edges(5, [(vid(0), vid(1), 1.0), (vid(2), vid(3), 0.5)]).unwrap(),
                vec![vid(0), vid(2)],
                None,
            ),
            (
                edges(&[(0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.25)]),
                vec![vid(0), vid(1)],
                Some(vec![false, false, true, false]),
            ),
            (
                edges(&[(0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.25)]),
                vec![vid(0), vid(1)],
                None,
            ),
            (
                imin_graph::generators::complete(5, 0.5).unwrap(),
                vec![vid(0)],
                None,
            ),
        ];
        for case in &fixed {
            let reference = enumerate_worlds(&case.0, &case.1, case.2.as_deref(), 20).unwrap();
            assert_matches_enumeration(case, &reference);
        }
        const MIX: [f64; 6] = [0.0, 1.0, 0.3, 0.5, 0.9, 0.15];
        let mut graphs = 0;
        for trial in 0..64usize {
            let g = imin_graph::generators::erdos_renyi(7 + trial % 4, 0.25, 0.5, trial as u64)
                .unwrap()
                .map_probabilities(|u, v, _| MIX[(3 * u.index() + v.index() + trial) % MIX.len()])
                .unwrap();
            let n = g.num_vertices();
            let mask: Vec<bool> = (0..n).map(|v| v % 3 == 2).collect();
            let mut cases = 0;
            for seeds in [vec![vid(0)], vec![vid(0), vid(1)]] {
                for mask in [None, Some(mask.clone())] {
                    let case = (g.clone(), seeds.clone(), mask);
                    if let Some(reference) = enumerate_worlds(&g, &seeds, case.2.as_deref(), 16) {
                        assert_matches_enumeration(&case, &reference);
                        cases += 1;
                    }
                }
            }
            graphs += usize::from(cases == 4);
        }
        assert!(graphs >= 48, "only {graphs} random graphs were checked");
    }

    #[test]
    #[ignore = "the reference enumerates about 1.6e9 worlds; run with --ignored"]
    fn factored_recursion_agrees_with_world_enumeration_on_the_larger_graphs() {
        // The Monte-Carlo test's graph (29 reachable uncertain edges) and the
        // leaf-cap test's (30).
        let monte_carlo = imin_graph::generators::erdos_renyi(12, 0.2, 0.3, 5).unwrap();
        let complete = imin_graph::generators::complete(6, 0.5).unwrap();
        for g in [monte_carlo, complete] {
            let reference = enumerate_worlds(&g, &[vid(0)], None, 30).unwrap();
            assert_matches_enumeration(&(g, vec![vid(0)], None), &reference);
        }
    }
}
