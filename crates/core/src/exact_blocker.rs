//! Exhaustive ("Exact") blocker search.
//!
//! The paper's Exact comparator (§VI-B) enumerates every possible set of `b`
//! blockers and evaluates the expected spread of each candidate set. It is
//! only feasible on the ~100-vertex extracts used for Tables V and VI and is
//! implemented here as the optimality oracle the heuristics are measured
//! against.
//!
//! Candidates are restricted to the vertices reachable from the source —
//! blocking an unreachable vertex can never change the spread, so every
//! optimal solution over the full vertex set has an equivalent inside the
//! reachable region (padding with arbitrary unreachable vertices if fewer
//! than `b` reachable candidates exist).

use crate::request::{ContainmentRequest, EvalBackend};
use crate::solver::{AlgorithmKind, BlockerSolver};
use crate::types::{BlockerSelection, SelectionStats};
use crate::{IminError, Result};
use imin_diffusion::exact::exact_expected_spread;
use imin_diffusion::montecarlo::MonteCarloEstimator;
use imin_graph::traversal::reachable_mask;
use imin_graph::{DiGraph, VertexId};
use std::time::Instant;

/// The Exact oracle behind the unified request API.
///
/// Requires a `Fresh` backend (candidate sets are evaluated by Monte-Carlo
/// simulation with the request's `mcs_rounds`, the paper's setting);
/// `Pooled` requests are rejected with [`IminError::BackendUnsupported`].
/// Callers needing the exact evaluator or a custom combination limit use
/// [`exact_blocker_search_multi`] with an explicit [`ExactSearchConfig`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactBlocker;

impl BlockerSolver for ExactBlocker {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Exact
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        crate::intervene::require_vertex(
            request.intervention(),
            self.kind().name(),
            request.backend().label(),
        )?;
        let EvalBackend::Fresh { seed, threads, .. } = *request.backend() else {
            return Err(IminError::BackendUnsupported {
                algorithm: self.kind().name(),
                backend: request.backend().label(),
            });
        };
        exact_blocker_search_multi(
            graph,
            request.seeds(),
            request.forbidden().mask(),
            request.budget(),
            &ExactSearchConfig {
                evaluator: SpreadEvaluator::MonteCarlo {
                    rounds: request.mcs_rounds(),
                },
                threads,
                seed,
                ..Default::default()
            },
        )
    }
}

/// How candidate blocker sets are evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpreadEvaluator {
    /// Monte-Carlo simulation with the given number of rounds — what the
    /// paper's Exact baseline uses (r = 10 000).
    MonteCarlo {
        /// Simulation rounds per candidate set.
        rounds: usize,
    },
    /// The exact oracle of [`imin_diffusion::exact`] (only viable on small
    /// graphs; a graph past its leaf cap is refused with a typed error).
    Exact,
}

/// Configuration of the exhaustive search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactSearchConfig {
    /// Upper bound on the number of candidate sets to evaluate; the search
    /// refuses to start if `C(candidates, b)` exceeds it.
    pub max_combinations: u64,
    /// How each candidate set is evaluated.
    pub evaluator: SpreadEvaluator,
    /// Threads and seed for Monte-Carlo evaluation.
    pub threads: usize,
    /// RNG seed for Monte-Carlo evaluation.
    pub seed: u64,
}

impl Default for ExactSearchConfig {
    fn default() -> Self {
        ExactSearchConfig {
            max_combinations: 2_000_000,
            evaluator: SpreadEvaluator::MonteCarlo { rounds: 10_000 },
            threads: imin_diffusion::montecarlo::default_threads(),
            seed: 0xEC0DE,
        }
    }
}

/// Number of `k`-combinations of `n` items, saturating at `u64::MAX`.
pub fn combinations(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = match result.checked_mul((n - i) as u64) {
            Some(v) => v / (i as u64 + 1),
            None => return u64::MAX,
        };
    }
    result
}

/// Exhaustively searches for the blocker set of size `min(b, #candidates)`
/// minimising the evaluated spread, for a single source — the historical
/// shim over [`exact_blocker_search_multi`].
///
/// # Errors
/// Returns [`IminError::SearchSpaceTooLarge`] when the number of candidate
/// combinations exceeds the configured limit, plus the usual validation
/// errors.
pub fn exact_blocker_search(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &ExactSearchConfig,
) -> Result<BlockerSelection> {
    exact_blocker_search_multi(graph, &[source], forbidden, budget, config)
}

/// Exhaustive search for a whole seed set: candidate blockers are the
/// non-seed, non-forbidden vertices reachable from *any* seed, and every
/// candidate set is evaluated against the full seed set.
///
/// # Errors
/// Same conditions as [`exact_blocker_search`], plus an empty seed set.
pub fn exact_blocker_search_multi(
    graph: &DiGraph,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
    config: &ExactSearchConfig,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    let n = graph.num_vertices();
    if budget == 0 {
        return Err(IminError::ZeroBudget);
    }
    if seeds.is_empty() {
        return Err(IminError::EmptySeedSet);
    }
    if forbidden.len() != n {
        return Err(IminError::Diffusion(
            imin_diffusion::DiffusionError::MaskLengthMismatch {
                mask_len: forbidden.len(),
                num_vertices: n,
            },
        ));
    }
    let mut seeds: Vec<VertexId> = seeds.to_vec();
    for &s in &seeds {
        if s.index() >= n {
            return Err(IminError::SeedOutOfRange {
                vertex: s.index(),
                num_vertices: n,
            });
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    let seeds = seeds; // canonical from here on
    let is_seed = |v: VertexId| seeds.binary_search(&v).is_ok();

    let reachable = reachable_mask(graph, &seeds);
    let candidates: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| !is_seed(v) && !forbidden[v.index()] && reachable[v.index()])
        .collect();
    let k = budget.min(candidates.len());
    if k == 0 {
        let mut sel = BlockerSelection::new(Vec::new());
        sel.stats.elapsed = start.elapsed();
        return Ok(sel);
    }
    let combos = combinations(candidates.len(), k);
    if combos > config.max_combinations {
        return Err(IminError::SearchSpaceTooLarge {
            candidates: candidates.len(),
            budget: k,
            limit: config.max_combinations,
        });
    }

    let mcs = MonteCarloEstimator {
        rounds: match config.evaluator {
            SpreadEvaluator::MonteCarlo { rounds } => rounds,
            SpreadEvaluator::Exact => 0,
        },
        threads: config.threads,
        seed: config.seed,
    };
    let evaluate = |mask: &[bool], stats: &mut SelectionStats| -> Result<f64> {
        match config.evaluator {
            SpreadEvaluator::MonteCarlo { rounds } => {
                stats.mcs_rounds_run += rounds;
                Ok(mcs.expected_spread_blocked(graph, &seeds, Some(mask))?.mean)
            }
            SpreadEvaluator::Exact => Ok(exact_expected_spread(graph, &seeds, Some(mask))?),
        }
    };

    let mut stats = SelectionStats::default();
    let mut mask = vec![false; n];
    // Lexicographic enumeration of k-combinations by index.
    let mut indices: Vec<usize> = (0..k).collect();
    let mut best_spread = f64::INFINITY;
    let mut best_set: Vec<VertexId> = Vec::new();
    loop {
        for &i in &indices {
            mask[candidates[i].index()] = true;
        }
        let spread = evaluate(&mask, &mut stats)?;
        stats.rounds += 1;
        if spread < best_spread {
            best_spread = spread;
            best_set = indices.iter().map(|&i| candidates[i]).collect();
        }
        for &i in &indices {
            mask[candidates[i].index()] = false;
        }
        // Advance to the next combination.
        let mut pos = k;
        loop {
            pos -= 1;
            if indices[pos] != pos + candidates.len() - k {
                indices[pos] += 1;
                for j in pos + 1..k {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
            if pos == 0 {
                indices.clear();
                break;
            }
        }
        if indices.is_empty() {
            break;
        }
    }

    stats.elapsed = start.elapsed();
    Ok(BlockerSelection {
        blockers: best_set,
        estimated_spread: Some(best_spread),
        blocked_edges: Vec::new(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_replace::greedy_replace;
    use crate::types::AlgorithmConfig;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn combination_counts() {
        assert_eq!(combinations(5, 2), 10);
        assert_eq!(combinations(10, 0), 1);
        assert_eq!(combinations(10, 10), 1);
        assert_eq!(combinations(3, 5), 0);
        assert_eq!(combinations(60, 30), 118_264_581_564_861_424);
        assert_eq!(
            combinations(200, 100),
            u64::MAX,
            "saturates instead of overflowing"
        );
    }

    fn funnel_graph() -> DiGraph {
        let mut edges = vec![
            (vid(0), vid(1), 1.0),
            (vid(0), vid(2), 1.0),
            (vid(1), vid(3), 1.0),
            (vid(2), vid(3), 1.0),
        ];
        for i in 0..4 {
            edges.push((vid(3), vid(4 + i), 1.0));
        }
        DiGraph::from_edges(8, edges).unwrap()
    }

    fn search_config() -> ExactSearchConfig {
        ExactSearchConfig {
            evaluator: SpreadEvaluator::Exact,
            ..Default::default()
        }
    }

    #[test]
    fn finds_the_true_optimum_on_the_funnel() {
        let g = funnel_graph();
        let sel = exact_blocker_search(&g, vid(0), &[false; 8], 1, &search_config()).unwrap();
        assert_eq!(sel.blockers, vec![vid(3)]);
        assert!((sel.estimated_spread.unwrap() - 3.0).abs() < 1e-9);

        let sel2 = exact_blocker_search(&g, vid(0), &[false; 8], 2, &search_config()).unwrap();
        let mut blockers = sel2.blockers.clone();
        blockers.sort_unstable();
        assert_eq!(blockers, vec![vid(1), vid(2)]);
        assert!((sel2.estimated_spread.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_replace_matches_exact_on_small_graphs() {
        let g = funnel_graph();
        for b in 1..=2 {
            let exact = exact_blocker_search(&g, vid(0), &[false; 8], b, &search_config()).unwrap();
            let gr = greedy_replace(
                &g,
                vid(0),
                &[false; 8],
                b,
                &AlgorithmConfig::fast_for_tests().with_theta(300),
            )
            .unwrap();
            assert!(
                (gr.estimated_spread.unwrap() - exact.estimated_spread.unwrap()).abs() < 1e-6,
                "b={b}"
            );
        }
    }

    #[test]
    fn monte_carlo_evaluator_also_works() {
        let g = funnel_graph();
        let cfg = ExactSearchConfig {
            evaluator: SpreadEvaluator::MonteCarlo { rounds: 300 },
            threads: 1,
            ..Default::default()
        };
        let sel = exact_blocker_search(&g, vid(0), &[false; 8], 1, &cfg).unwrap();
        assert_eq!(sel.blockers, vec![vid(3)]);
        assert!(sel.stats.mcs_rounds_run >= 300);
    }

    #[test]
    fn search_space_limit_is_enforced() {
        let g = imin_graph::generators::complete(30, 1.0).unwrap();
        let cfg = ExactSearchConfig {
            max_combinations: 100,
            evaluator: SpreadEvaluator::MonteCarlo { rounds: 10 },
            threads: 1,
            seed: 1,
        };
        assert!(matches!(
            exact_blocker_search(&g, vid(0), &[false; 30], 5, &cfg),
            Err(IminError::SearchSpaceTooLarge { .. })
        ));
    }

    /// The combination loop evaluates each of the `C(c, k)` blocker sets
    /// once: a seed with `c` probability-1 out-edges to leaves has `c`
    /// candidates, and blocking any `k` of them leaves `1 + c - k`.
    #[test]
    fn every_blocker_set_is_evaluated_once() {
        for (c, k) in [(5, 1), (5, 2), (6, 3), (4, 4)] {
            let star = (1..=c).map(|v| (vid(0), vid(v), 1.0));
            let g = DiGraph::from_edges(c + 1, star).unwrap();
            let forbidden = vec![false; c + 1];
            let sel = exact_blocker_search(&g, vid(0), &forbidden, k, &search_config()).unwrap();
            assert_eq!(sel.stats.rounds as u64, combinations(c, k), "c={c}, k={k}");
            assert_eq!(sel.estimated_spread, Some((1 + c - k) as f64));
        }
    }

    #[test]
    fn no_reachable_candidates_returns_empty_selection() {
        let g = DiGraph::from_edges(3, vec![(vid(1), vid(2), 1.0)]).unwrap();
        let sel = exact_blocker_search(&g, vid(0), &[false; 3], 2, &search_config()).unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn budget_capped_at_candidate_count() {
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(1), 1.0)]).unwrap();
        let sel = exact_blocker_search(&g, vid(0), &[false; 2], 5, &search_config()).unwrap();
        assert_eq!(sel.blockers, vec![vid(1)]);
    }

    #[test]
    fn invalid_inputs() {
        let g = funnel_graph();
        assert!(matches!(
            exact_blocker_search(&g, vid(0), &[false; 8], 0, &search_config()),
            Err(IminError::ZeroBudget)
        ));
        assert!(exact_blocker_search(&g, vid(50), &[false; 8], 1, &search_config()).is_err());
        assert!(matches!(
            exact_blocker_search_multi(&g, &[], &[false; 8], 1, &search_config()),
            Err(IminError::EmptySeedSet)
        ));
        // A wrong-length forbidden mask is an error, not a panic.
        assert!(matches!(
            exact_blocker_search(&g, vid(0), &[false; 3], 1, &search_config()),
            Err(IminError::Diffusion(_))
        ));
    }

    #[test]
    fn multi_seed_search_covers_every_seed_component() {
        // Two disjoint chains: 0 -> 1 -> 2 and 3 -> 4 -> 5; with one
        // blocker per seed the optimum cuts both chains at the neck.
        let g = DiGraph::from_edges(
            6,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(3), vid(4), 1.0),
                (vid(4), vid(5), 1.0),
            ],
        )
        .unwrap();
        let sel =
            exact_blocker_search_multi(&g, &[vid(0), vid(3)], &[false; 6], 2, &search_config())
                .unwrap();
        let mut blockers = sel.blockers.clone();
        blockers.sort_unstable();
        assert_eq!(blockers, vec![vid(1), vid(4)]);
        assert!((sel.estimated_spread.unwrap() - 2.0).abs() < 1e-9);
    }
}
