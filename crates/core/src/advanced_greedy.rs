//! The AdvancedGreedy algorithm (Algorithm 3).
//!
//! AdvancedGreedy keeps the greedy selection loop of the baseline but
//! replaces the per-candidate Monte-Carlo evaluation with one call to
//! `DecreaseESComputation` (Algorithm 2) per round: θ live-edge samples are
//! drawn, their dominator trees price every candidate simultaneously, and
//! the candidate with the largest estimated decrease is blocked. The cost
//! per round drops from `O(n · r · m)` to `O(θ · m · α(m, n))` without
//! changing the greedy choices in expectation (§V-C, "Comparison with
//! Baseline").
//!
//! The rounds themselves run in the crate's one greedy driver (`greedy.rs`),
//! shared with GreedyReplace and the other intervention families; this
//! module supplies the solver and its entry points.
//!
//! The preferred entry point is the [`AdvancedGreedy`] solver behind a
//! [`crate::ContainmentRequest`]: one call shape for any seed-set size and
//! either evaluation backend (`Fresh` self-sampling per round, or `Pooled`
//! re-rooting of a resident [`crate::SamplePool`]). The free functions
//! below are thin shims kept for source compatibility and are
//! parity-tested byte-identical to the solver.

use crate::greedy::{self, Plan, SeedSchedule, VertexPricer};
use crate::pool::PoolWorkspace;
use crate::request::{shim_request_from_config, ContainmentRequest};
use crate::sampler::{IcLiveEdgeSampler, SpreadSampler};
use crate::solver::{AlgorithmKind, BlockerSolver};
use crate::types::{AlgorithmConfig, BlockerSelection};
use crate::Result;
use imin_graph::{DiGraph, VertexId};
use std::time::Instant;

/// Algorithm 3 behind the unified request API (`AG` in the figures).
///
/// `Fresh` requests redraw θ samples per greedy round (the historical
/// behaviour); `Pooled` requests re-root a resident pool instead, with
/// answers bit-identical at any thread count (see [`crate::pool`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvancedGreedy;

impl BlockerSolver for AdvancedGreedy {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::AdvancedGreedy
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        greedy::solve(self.kind(), graph, request)
    }
}

/// The `Fresh` backend of [`AdvancedGreedy`], generic over the sample
/// source (IC or triggering, §V-E) and the seed-set size: the greedy
/// driver over fresh samples, round `k` drawn from `seed + k`.
pub(crate) fn fresh_advanced_greedy_with<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    request: &ContainmentRequest<'_>,
    theta: usize,
    seed: u64,
    threads: usize,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    let (backend, schedule) = ((theta, seed, threads), SeedSchedule::Consecutive);
    let workspace = &mut PoolWorkspace::new();
    let mut pricer = VertexPricer::fresh(sampler, graph, request, backend, schedule, workspace)?;
    greedy::run(&mut pricer, request.budget(), &Plan::advanced(), start)
}

/// Runs AdvancedGreedy with the standard IC live-edge sampler — the
/// single-source `Fresh` shim over [`AdvancedGreedy`].
pub fn advanced_greedy(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    advanced_greedy_with(&IcLiveEdgeSampler, graph, source, forbidden, budget, config)
}

/// Runs AdvancedGreedy with an arbitrary sample source (IC or triggering,
/// §V-E).
///
/// `forbidden[v] = true` marks vertices that may never be blocked; the
/// source is always excluded. `estimated_spread` is the sampling estimate of
/// the spread remaining after blocking, counting the source as one active
/// vertex.
///
/// # Errors
/// Returns an error on a zero budget, zero θ, an invalid source, or a
/// wrong-length forbidden mask.
pub fn advanced_greedy_with<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    let request = shim_request_from_config(graph, &[source], forbidden, budget, config)?;
    fresh_advanced_greedy_with(
        sampler,
        graph,
        &request,
        config.theta,
        config.seed,
        config.threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_greedy::baseline_greedy;
    use crate::pool::{pooled_advanced_greedy_in, SamplePool};
    use crate::IminError;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn config() -> AlgorithmConfig {
        AlgorithmConfig::fast_for_tests().with_theta(400)
    }

    fn hub_graph() -> DiGraph {
        DiGraph::from_edges(
            6,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(1), vid(4), 1.0),
                (vid(0), vid(5), 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn picks_the_obvious_hub_first() {
        let g = hub_graph();
        let sel = advanced_greedy(&g, vid(0), &[false; 6], 2, &config()).unwrap();
        assert_eq!(sel.blockers[0], vid(1));
        assert_eq!(sel.blockers[1], vid(5));
        assert!((sel.estimated_spread.unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(sel.stats.rounds, 2);
        assert_eq!(sel.stats.samples_drawn, 2 * 400);
    }

    #[test]
    fn pool_backed_entry_point_agrees_on_deterministic_graphs() {
        let g = hub_graph();
        let pool = SamplePool::build(&g, 64, 9).unwrap();
        let ws = &mut PoolWorkspace::new();
        let pooled = pooled_advanced_greedy_in(&pool, &[vid(0)], &[false; 6], 2, 1, ws).unwrap();
        let classic = advanced_greedy(&g, vid(0), &[false; 6], 2, &config()).unwrap();
        assert_eq!(pooled.blockers, classic.blockers);
        assert!((pooled.estimated_spread.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matches_baseline_greedy_on_deterministic_graphs() {
        let g = hub_graph();
        let ag = advanced_greedy(&g, vid(0), &[false; 6], 3, &config()).unwrap();
        let bg = baseline_greedy(
            &g,
            vid(0),
            &[false; 6],
            3,
            &AlgorithmConfig::fast_for_tests().with_mcs_rounds(300),
        )
        .unwrap();
        assert_eq!(ag.blockers[0], bg.blockers[0]);
        // Spreads after blocking agree (both exact on a deterministic graph).
        assert!((ag.estimated_spread.unwrap() - bg.estimated_spread.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn forbidden_and_exhausted_candidates() {
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(1), 1.0)]).unwrap();
        let mut forbidden = vec![false; 2];
        forbidden[1] = true;
        let sel = advanced_greedy(&g, vid(0), &forbidden, 3, &config()).unwrap();
        assert!(sel.is_empty(), "the only candidate is forbidden");
        assert!((sel.estimated_spread.unwrap() - 2.0).abs() < 1e-9);

        let sel = advanced_greedy(&g, vid(0), &[false; 2], 5, &config()).unwrap();
        assert_eq!(sel.blockers, vec![vid(1)]);
    }

    #[test]
    fn probabilistic_graph_prefers_high_impact_blocker() {
        // 0 -> 1 (p=1) -> many, 0 -> 2 (p=0.05) -> many: blocking 1 is far
        // better even though both have the same out-degree downstream.
        let mut edges = vec![(vid(0), vid(1), 1.0), (vid(0), vid(2), 0.05)];
        for i in 0..6 {
            edges.push((vid(1), vid(3 + i), 1.0));
            edges.push((vid(2), vid(9 + i), 1.0));
        }
        let g = DiGraph::from_edges(15, edges).unwrap();
        let sel = advanced_greedy(&g, vid(0), &[false; 15], 1, &config()).unwrap();
        assert_eq!(sel.blockers, vec![vid(1)]);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = hub_graph();
        assert!(matches!(
            advanced_greedy(&g, vid(0), &[false; 6], 0, &config()),
            Err(IminError::ZeroBudget)
        ));
        assert!(advanced_greedy(&g, vid(9), &[false; 6], 1, &config()).is_err());
        let zero_theta = AlgorithmConfig::fast_for_tests().with_theta(0);
        assert!(advanced_greedy(&g, vid(0), &[false; 6], 1, &zero_theta).is_err());
    }
}
