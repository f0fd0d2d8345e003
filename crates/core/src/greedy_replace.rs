//! The GreedyReplace algorithm (Algorithm 4) — the paper's most effective
//! heuristic.
//!
//! Motivation (§V-D, Example 3): with an unlimited budget the optimal
//! blocker set is exactly the out-neighbourhood of the seed, yet a plain
//! greedy can spend its budget on "deep" vertices and miss that plateau.
//! GreedyReplace therefore proceeds in two phases:
//!
//! 1. **Out-neighbour phase** — greedily pick blockers among the seed's
//!    out-neighbours only (up to `min(d_out(s), b)` of them), using the
//!    dominator-tree estimator of Algorithm 2 to rank them.
//! 2. **Replacement phase** — revisit the chosen blockers in reverse
//!    insertion order; temporarily un-block each one and ask the estimator
//!    for the best blocker among *all* candidates. If the best vertex is the
//!    one just removed, the procedure terminates early; otherwise the better
//!    vertex replaces it.
//!
//! The resulting spread is never worse than blocking out-neighbours only,
//! and the replacement step recovers the "deep blocker" wins of plain greedy
//! when the budget is small — the best of both behaviours (Table III,
//! Table VII).
//!
//! Both phases, and the fill between them, run in the crate's one greedy
//! driver (`greedy.rs`), shared with AdvancedGreedy and the other
//! intervention families; this module supplies the solver and its entry
//! points.
//!
//! The preferred entry point is the [`GreedyReplace`] solver behind a
//! [`crate::ContainmentRequest`]: one call shape for any seed-set size
//! (phase 1 ranks the out-neighbours of *every* seed) and either
//! evaluation backend. The free functions below are thin shims kept for
//! source compatibility and are parity-tested byte-identical to the
//! solver.

use crate::greedy::{self, Plan, SeedSchedule, VertexPricer};
use crate::pool::PoolWorkspace;
use crate::request::{shim_request_from_config, ContainmentRequest};
use crate::sampler::{IcLiveEdgeSampler, SpreadSampler};
use crate::solver::{AlgorithmKind, BlockerSolver};
use crate::types::{AlgorithmConfig, BlockerSelection};
use crate::Result;
use imin_graph::{DiGraph, VertexId};
use std::time::Instant;

/// Algorithm 4 behind the unified request API (`GR` in the figures).
///
/// Both backends fill the budget with global picks when the seeds have
/// fewer eligible out-neighbours than the budget. `Fresh` requests redraw
/// θ samples per round; `Pooled` requests re-root a resident pool, with
/// answers bit-identical at any thread count (see [`crate::pool`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyReplace;

impl BlockerSolver for GreedyReplace {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::GreedyReplace
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        greedy::solve(self.kind(), graph, request)
    }
}

/// Runs GreedyReplace with the standard IC live-edge sampler.
pub fn greedy_replace(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    greedy_replace_with(&IcLiveEdgeSampler, graph, source, forbidden, budget, config)
}

/// Runs GreedyReplace with an arbitrary sample source (IC or triggering,
/// §V-E). When the seed has fewer than `budget` out-neighbours, the
/// remaining budget is filled with AdvancedGreedy-style picks over all
/// candidates before the replacement phase, so the full budget is used.
///
/// # Errors
/// Returns an error on a zero budget, zero θ, an invalid source, or a
/// wrong-length forbidden mask.
pub fn greedy_replace_with<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    let request = shim_request_from_config(graph, &[source], forbidden, budget, config)?;
    fresh_greedy_replace_with(
        sampler,
        graph,
        &request,
        config.theta,
        config.seed,
        config.threads,
    )
}

/// The `Fresh` backend of [`GreedyReplace`], generic over the sample
/// source and the seed-set size: the greedy driver over fresh samples,
/// phase 1 ranking the out-neighbours of every seed and estimator call `k`
/// drawing from `seed + (k + 1)·0x9E3779B9`.
pub(crate) fn fresh_greedy_replace_with<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    request: &ContainmentRequest<'_>,
    theta: usize,
    seed: u64,
    threads: usize,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    let (backend, schedule) = ((theta, seed, threads), SeedSchedule::Golden);
    let workspace = &mut PoolWorkspace::new();
    let mut pricer = VertexPricer::fresh(sampler, graph, request, backend, schedule, workspace)?;
    let plan = Plan::replace(pricer.out_neighbours(graph, request.seeds()));
    greedy::run(&mut pricer, request.budget(), &plan, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced_greedy::advanced_greedy;
    use crate::pool::{pooled_greedy_replace_in, SamplePool};
    use crate::IminError;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn config() -> AlgorithmConfig {
        AlgorithmConfig::fast_for_tests().with_theta(400)
    }

    /// The "deep blocker" topology of Example 3: the seed has two
    /// out-neighbours that funnel into one hub which fans out widely.
    /// For b = 1 the hub is the right blocker; for b = 2 the two
    /// out-neighbours are.
    fn funnel_graph() -> DiGraph {
        let mut edges = vec![
            (vid(0), vid(1), 1.0),
            (vid(0), vid(2), 1.0),
            (vid(1), vid(3), 1.0),
            (vid(2), vid(3), 1.0),
        ];
        for i in 0..5 {
            edges.push((vid(3), vid(4 + i), 1.0));
        }
        DiGraph::from_edges(9, edges).unwrap()
    }

    #[test]
    fn budget_one_replaces_out_neighbor_with_the_hub() {
        let g = funnel_graph();
        let sel = greedy_replace(&g, vid(0), &[false; 9], 1, &config()).unwrap();
        assert_eq!(
            sel.blockers,
            vec![vid(3)],
            "the hub must replace the out-neighbour"
        );
        // Spread left: seed + its two out-neighbours.
        assert!((sel.estimated_spread.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pool_backed_entry_point_agrees_on_the_funnel() {
        let g = funnel_graph();
        let pool = SamplePool::build(&g, 64, 9).unwrap();
        let ws = &mut PoolWorkspace::new();
        let pooled = pooled_greedy_replace_in(&pool, &g, &[vid(0)], &[false; 9], 1, 1, ws).unwrap();
        let classic = greedy_replace(&g, vid(0), &[false; 9], 1, &config()).unwrap();
        assert_eq!(pooled.blockers, classic.blockers);
        assert_eq!(pooled.blockers, vec![vid(3)]);
    }

    #[test]
    fn budget_two_keeps_both_out_neighbors() {
        let g = funnel_graph();
        let sel = greedy_replace(&g, vid(0), &[false; 9], 2, &config()).unwrap();
        let mut chosen = sel.blockers.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![vid(1), vid(2)]);
        assert!((sel.estimated_spread.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn never_worse_than_advanced_greedy_on_funnel() {
        let g = funnel_graph();
        for b in 1..=3 {
            let gr = greedy_replace(&g, vid(0), &[false; 9], b, &config()).unwrap();
            let ag = advanced_greedy(&g, vid(0), &[false; 9], b, &config()).unwrap();
            assert!(
                gr.estimated_spread.unwrap() <= ag.estimated_spread.unwrap() + 1e-9,
                "b={b}: GR {} must be ≤ AG {}",
                gr.estimated_spread.unwrap(),
                ag.estimated_spread.unwrap()
            );
        }
    }

    #[test]
    fn fill_to_budget_uses_whole_budget_when_out_degree_is_small() {
        // Seed has a single out-neighbour but the budget is 3.
        let g = DiGraph::from_edges(
            5,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(2), vid(3), 1.0),
                (vid(3), vid(4), 1.0),
            ],
        )
        .unwrap();
        let sel = greedy_replace(&g, vid(0), &[false; 5], 3, &config()).unwrap();
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn forbidden_out_neighbors_are_skipped() {
        let g = funnel_graph();
        let mut forbidden = vec![false; 9];
        forbidden[1] = true;
        forbidden[2] = true;
        let sel = greedy_replace(&g, vid(0), &forbidden, 2, &config()).unwrap();
        assert!(!sel.blockers.contains(&vid(1)));
        assert!(!sel.blockers.contains(&vid(2)));
        assert!(sel.blockers.contains(&vid(3)));
    }

    #[test]
    fn source_with_no_out_neighbors_still_works() {
        // Disconnected seed: nothing to block is useful, but the call
        // must not fail; with fill enabled it may pick harmless vertices.
        let g = DiGraph::from_edges(3, vec![(vid(1), vid(2), 1.0)]).unwrap();
        let sel = greedy_replace(&g, vid(0), &[false; 3], 2, &config()).unwrap();
        assert!(sel.len() <= 2);
        assert!((sel.estimated_spread.unwrap_or(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = funnel_graph();
        assert!(matches!(
            greedy_replace(&g, vid(0), &[false; 9], 0, &config()),
            Err(IminError::ZeroBudget)
        ));
        assert!(greedy_replace(&g, vid(20), &[false; 9], 1, &config()).is_err());
    }
}
