//! High-level facade for the IMIN problem.
//!
//! [`ImninProblem`] owns the unified-seed reduction (§V), keeps the original
//! graph around for evaluation, knows which vertices are blockable
//! (`V \ S`), and exposes every algorithm of the crate behind the
//! [`Algorithm`] registry — the entry point used by the examples and the
//! benchmark harness. Internally each solve is one
//! [`crate::ContainmentRequest`] over the merged graph, dispatched through
//! [`crate::AlgorithmKind::solver`]; there is no per-algorithm `match`
//! here.

use crate::intervene::Intervention;
use crate::request::ContainmentRequest;
use crate::seed_merge::{merge_seeds, MergedSeeds};
use crate::types::{AlgorithmConfig, BlockerSelection};
use crate::{IminError, Result};
use imin_diffusion::exact::exact_expected_spread;
use imin_diffusion::montecarlo::MonteCarloEstimator;
use imin_graph::{DiGraph, VertexId};

/// The blocker-selection algorithms available through [`ImninProblem::solve`]
/// — an alias of the crate-wide [`crate::AlgorithmKind`] registry.
pub use crate::solver::AlgorithmKind as Algorithm;

/// An influence-minimization problem instance: a graph with IC
/// probabilities and a seed set.
#[derive(Clone, Debug)]
pub struct ImninProblem {
    original: DiGraph,
    merged: MergedSeeds,
    forbidden: Vec<bool>,
}

impl ImninProblem {
    /// Creates a problem instance, performing the unified-seed reduction.
    ///
    /// # Errors
    /// Returns an error if the seed set is empty or contains an out-of-range
    /// vertex.
    pub fn new(graph: &DiGraph, seeds: Vec<VertexId>) -> Result<Self> {
        let merged = merge_seeds(graph, &seeds)?;
        // Vertices that can never be blocked in the merged graph: the
        // original seeds and the unified seed itself.
        let mut forbidden = vec![false; merged.graph.num_vertices()];
        for &s in &merged.original_seeds {
            forbidden[s.index()] = true;
        }
        forbidden[merged.super_seed.index()] = true;
        Ok(ImninProblem {
            original: graph.clone(),
            merged,
            forbidden,
        })
    }

    /// The original (pre-merge) graph.
    pub fn graph(&self) -> &DiGraph {
        &self.original
    }

    /// The original seed set (sorted, deduplicated).
    pub fn seeds(&self) -> &[VertexId] {
        &self.merged.original_seeds
    }

    /// The merged single-seed formulation (exposed for benchmarks and tests
    /// that want to drive the low-level algorithms directly).
    pub fn merged(&self) -> &MergedSeeds {
        &self.merged
    }

    /// Returns `true` if `v` may be chosen as a blocker.
    pub fn is_valid_blocker(&self, v: VertexId) -> bool {
        self.merged.is_valid_blocker(v)
    }

    /// Runs the selected algorithm with the given budget.
    ///
    /// The returned blockers always refer to vertices of the original graph,
    /// and `estimated_spread` (when present) is converted to original-graph
    /// terms, i.e. it counts every seed as an active vertex — directly
    /// comparable to the numbers in Table VII.
    pub fn solve(
        &self,
        algorithm: Algorithm,
        budget: usize,
        config: &AlgorithmConfig,
    ) -> Result<BlockerSelection> {
        self.solve_with_intervention(algorithm, budget, config, Intervention::BlockVertices)
    }

    /// Runs the selected algorithm under an explicit [`Intervention`]
    /// family: vertex blocking (identical to [`ImninProblem::solve`]), edge
    /// blocking, or prebunking.
    ///
    /// Vertex requests keep the fresh self-sampling backend of `solve`. The
    /// sibling families run the greedy algorithms on the pooled
    /// dominator-tree machinery, so for those this facade builds a
    /// θ-realisation [`crate::SamplePool`] from `config` first; the
    /// rank-only heuristics that support a family run it directly.
    /// Unsupported algorithm×family combinations return
    /// [`IminError::InterventionUnsupported`].
    pub fn solve_with_intervention(
        &self,
        algorithm: Algorithm,
        budget: usize,
        config: &AlgorithmConfig,
        intervention: Intervention,
    ) -> Result<BlockerSelection> {
        // Edge blocking and prebunking skip the unified-seed reduction: the
        // pooled selectors stage multi-seed cascades through a virtual root
        // themselves, and running on the original graph keeps the selected
        // edges/vertices (and the reported spread) in original-graph terms —
        // a merged graph would leak untranslatable super-seed edges into an
        // edge selection.
        if !matches!(intervention, Intervention::BlockVertices) {
            let needs_pool = matches!(
                algorithm,
                Algorithm::AdvancedGreedy | Algorithm::GreedyReplace
            );
            let pool = if needs_pool {
                Some(crate::SamplePool::build_with_threads(
                    &self.original,
                    config.theta,
                    config.seed,
                    config.threads,
                )?)
            } else {
                None
            };
            let builder = ContainmentRequest::builder(&self.original)
                .seeds(self.seeds().iter().copied())
                .budget(budget)
                .intervention(intervention);
            let request = if let Some(pool) = &pool {
                builder.pooled_with_threads(pool, config.threads).build()?
            } else {
                builder.fresh_from(config).build()?
            };
            return algorithm.solver().solve(&self.original, &request);
        }
        let g = &self.merged.graph;
        // The unified seed is the request seed (implicitly ineligible as a
        // blocker); the original seeds stay in the forbidden mask.
        let mut forbidden = self.forbidden.clone();
        forbidden[self.merged.super_seed.index()] = false;
        let builder = ContainmentRequest::builder(g)
            .seed(self.merged.super_seed)
            .budget(budget)
            .forbid_mask(forbidden);
        // RisGreedy runs on reverse sketches, not forward samples; θ doubles
        // as θ_r so one config drives every algorithm of the registry.
        let request = if algorithm == Algorithm::RisGreedy {
            builder
                .mcs_rounds(config.mcs_rounds)
                .sketch(config.theta, config.seed, config.threads)
                .build()?
        } else {
            builder.fresh_from(config).build()?
        };
        let mut selection = algorithm.solver().solve(g, &request)?;
        // Heuristics run on the merged graph but must only return original
        // vertices; the forbidden mask already excludes seeds and the
        // unified seed, and every other merged vertex is an original vertex,
        // so no id translation is required. Spread estimates, however, are
        // in merged terms and need the |S| - 1 offset.
        if let Some(spread) = selection.estimated_spread {
            selection.estimated_spread = Some(self.merged.to_original_spread(spread));
        }
        debug_assert!(selection.blockers.iter().all(|&b| self.is_valid_blocker(b)));
        Ok(selection)
    }

    /// Evaluates a blocker set by Monte-Carlo simulation **on the original
    /// graph with the original seeds** — the procedure used to fill
    /// Table VII (the paper evaluates final blocker sets with 10⁵ rounds).
    ///
    /// # Errors
    /// Returns an error if a blocker is a seed or out of range.
    pub fn evaluate_spread(&self, blockers: &[VertexId], rounds: usize, seed: u64) -> Result<f64> {
        let mask = self.original_blocker_mask(blockers)?;
        let estimator = MonteCarloEstimator {
            rounds,
            threads: imin_diffusion::montecarlo::default_threads(),
            seed,
        };
        Ok(estimator
            .expected_spread_blocked(&self.original, self.seeds(), Some(&mask))?
            .mean)
    }

    /// Evaluates a blocker set exactly with [`imin_diffusion::exact`] (only
    /// feasible on small graphs, such as the Figure 1 example of Table III;
    /// larger ones are refused at the oracle's leaf cap).
    pub fn evaluate_spread_exact(&self, blockers: &[VertexId]) -> Result<f64> {
        let mask = self.original_blocker_mask(blockers)?;
        Ok(exact_expected_spread(
            &self.original,
            self.seeds(),
            Some(&mask),
        )?)
    }

    /// Builds a blocked-vertex mask over the original graph, validating that
    /// no blocker is a seed.
    pub fn original_blocker_mask(&self, blockers: &[VertexId]) -> Result<Vec<bool>> {
        let n = self.original.num_vertices();
        let mut mask = vec![false; n];
        for &b in blockers {
            if b.index() >= n {
                return Err(IminError::InvalidBlocker {
                    vertex: b.index(),
                    reason: "vertex does not exist in the original graph",
                });
            }
            if self.merged.is_original_seed(b) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

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

    fn cfg() -> AlgorithmConfig {
        AlgorithmConfig::fast_for_tests()
            .with_theta(300)
            .with_mcs_rounds(300)
    }

    #[test]
    fn labels_and_listing() {
        assert_eq!(Algorithm::GreedyReplace.label(), "GR");
        assert_eq!(Algorithm::BaselineGreedy.label(), "BG");
        assert!(Algorithm::all().contains(&Algorithm::Exact));
        assert_eq!(Algorithm::all().len(), 10);
    }

    #[test]
    fn problem_accessors() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        assert_eq!(p.seeds(), &[vid(0)]);
        assert!(p.is_valid_blocker(vid(3)));
        assert!(!p.is_valid_blocker(vid(0)));
        assert_eq!(p.graph().num_vertices(), 9);
        assert_eq!(p.merged().graph.num_vertices(), 10);
        assert!(ImninProblem::new(&g, vec![]).is_err());
        assert!(ImninProblem::new(&g, vec![vid(99)]).is_err());
    }

    #[test]
    fn every_algorithm_produces_valid_blockers() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        for &alg in Algorithm::all() {
            let sel = p.solve(alg, 2, &cfg()).unwrap();
            assert!(sel.len() <= 2, "{alg:?} exceeded the budget");
            for &b in &sel.blockers {
                assert!(
                    p.is_valid_blocker(b),
                    "{alg:?} chose an invalid blocker {b}"
                );
            }
        }
    }

    #[test]
    fn non_sampling_algorithms_accept_a_zero_theta_config() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        let zero_theta = cfg().with_theta(0);
        for alg in [
            Algorithm::Random,
            Algorithm::OutDegree,
            Algorithm::Degree,
            Algorithm::PageRank,
            Algorithm::BaselineGreedy,
            Algorithm::Exact,
        ] {
            assert!(p.solve(alg, 2, &zero_theta).is_ok(), "{alg:?} reads no θ");
        }
        // The sampling algorithms still reject θ = 0, from the estimator.
        for alg in [
            Algorithm::AdvancedGreedy,
            Algorithm::GreedyReplace,
            Algorithm::OutNeighbors,
            Algorithm::RisGreedy,
        ] {
            assert!(
                matches!(p.solve(alg, 2, &zero_theta), Err(IminError::ZeroSamples)),
                "{alg:?} must report zero samples"
            );
        }
    }

    #[test]
    fn greedy_replace_reaches_the_optimum_on_the_funnel() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        let gr = p.solve(Algorithm::GreedyReplace, 1, &cfg()).unwrap();
        assert_eq!(gr.blockers, vec![vid(3)]);
        // Original-terms spread after blocking the hub: seed + 2 neighbours.
        assert!((gr.estimated_spread.unwrap() - 3.0).abs() < 1e-9);
        let eval = p.evaluate_spread(&gr.blockers, 400, 3).unwrap();
        assert!((eval - 3.0).abs() < 1e-9);
        let exact = p.evaluate_spread_exact(&gr.blockers).unwrap();
        assert!((exact - 3.0).abs() < 1e-9);
    }

    #[test]
    fn multi_seed_problem_counts_all_seeds_in_the_spread() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0), vid(8)]).unwrap();
        // Nothing blocked: everything reachable (9 vertices) is the spread.
        let spread = p.evaluate_spread(&[], 400, 1).unwrap();
        assert!((spread - 9.0).abs() < 1e-9);
        let sel = p.solve(Algorithm::GreedyReplace, 2, &cfg()).unwrap();
        // Blockers must avoid both seeds.
        assert!(!sel.blockers.contains(&vid(0)));
        assert!(!sel.blockers.contains(&vid(8)));
        let est = sel.estimated_spread.unwrap();
        let eval = p.evaluate_spread(&sel.blockers, 400, 2).unwrap();
        assert!(
            (est - eval).abs() < 1e-6,
            "estimate {est} vs evaluation {eval}"
        );
    }

    #[test]
    fn intervention_facade_routes_all_three_families() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        // Vertex requests are the plain solve.
        let vertex = p
            .solve_with_intervention(
                Algorithm::GreedyReplace,
                1,
                &cfg(),
                Intervention::BlockVertices,
            )
            .unwrap();
        assert_eq!(
            vertex.blockers,
            p.solve(Algorithm::GreedyReplace, 1, &cfg())
                .unwrap()
                .blockers
        );
        // Edge blocking on the funnel: one cut cannot sever the hub (two
        // disjoint paths feed it), so the best single edge cut removes the
        // bigger of the two path legs.
        let edge = p
            .solve_with_intervention(
                Algorithm::GreedyReplace,
                2,
                &cfg(),
                Intervention::BlockEdges,
            )
            .unwrap();
        assert!(edge.blockers.is_empty());
        assert!(!edge.blocked_edges.is_empty() && edge.blocked_edges.len() <= 2);
        for &(u, v) in &edge.blocked_edges {
            assert!(g.has_edge(u, v), "selected edge must exist in the graph");
        }
        // Prebunking with alpha = 0 silences its targets completely, so the
        // hub is the natural pick, as in vertex blocking.
        let pre = p
            .solve_with_intervention(
                Algorithm::AdvancedGreedy,
                1,
                &cfg(),
                Intervention::Prebunk { alpha: 0.0 },
            )
            .unwrap();
        assert_eq!(pre.blockers, vec![vid(3)]);
        assert!((pre.estimated_spread.unwrap() - 3.0).abs() < 1e-9);
        // Vertex-only algorithms reject the sibling families with the typed
        // error.
        assert!(matches!(
            p.solve_with_intervention(Algorithm::Exact, 1, &cfg(), Intervention::BlockEdges),
            Err(IminError::InterventionUnsupported { .. })
        ));
        assert!(matches!(
            p.solve_with_intervention(
                Algorithm::RisGreedy,
                1,
                &cfg(),
                Intervention::Prebunk { alpha: 0.5 }
            ),
            Err(IminError::InterventionUnsupported { .. })
        ));
    }

    #[test]
    fn evaluate_rejects_invalid_blockers() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        assert!(p.evaluate_spread(&[vid(0)], 100, 1).is_err());
        assert!(p.evaluate_spread(&[vid(50)], 100, 1).is_err());
        assert!(p.original_blocker_mask(&[vid(3)]).is_ok());
    }

    #[test]
    fn exact_algorithm_agrees_with_greedy_replace_here() {
        let g = funnel_graph();
        let p = ImninProblem::new(&g, vec![vid(0)]).unwrap();
        let exact = p.solve(Algorithm::Exact, 2, &cfg()).unwrap();
        let gr = p.solve(Algorithm::GreedyReplace, 2, &cfg()).unwrap();
        let spread_exact = p.evaluate_spread(&exact.blockers, 500, 5).unwrap();
        let spread_gr = p.evaluate_spread(&gr.blockers, 500, 5).unwrap();
        assert!((spread_exact - spread_gr).abs() < 1e-9);
    }
}
