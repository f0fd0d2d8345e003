//! Integration tests pinning the repository to the numbers the paper states
//! for its running example (Figure 1, Examples 1–4, Table III).

use imin_core::decrease::{decrease_es_computation, DecreaseConfig};
use imin_core::{Algorithm, AlgorithmConfig, ImninProblem};
use imin_datasets::toy::{figure1_expected_decreases, figure1_graph, FIGURE1_EXPECTED_SPREAD, V};
use imin_diffusion::montecarlo::MonteCarloEstimator;

fn toy_problem() -> ImninProblem {
    let (graph, seed) = figure1_graph();
    ImninProblem::new(&graph, vec![seed]).expect("toy problem")
}

#[test]
fn example1_expected_spread_is_7_66() {
    let problem = toy_problem();
    // Exact evaluation.
    let exact = problem.evaluate_spread_exact(&[]).unwrap();
    assert!((exact - FIGURE1_EXPECTED_SPREAD).abs() < 1e-9);
    // Monte-Carlo evaluation converges to the same value.
    let mcs = problem.evaluate_spread(&[], 60_000, 3).unwrap();
    assert!(
        (mcs - FIGURE1_EXPECTED_SPREAD).abs() < 0.05,
        "MCS estimate {mcs} too far from 7.66"
    );
}

#[test]
fn example1_blocking_v5_leaves_spread_3() {
    let problem = toy_problem();
    let spread = problem.evaluate_spread_exact(&[V(5)]).unwrap();
    assert!((spread - 3.0).abs() < 1e-9);
    let v2 = problem.evaluate_spread_exact(&[V(2)]).unwrap();
    assert!((v2 - 6.66).abs() < 1e-9);
}

#[test]
fn example2_dominator_tree_estimates_match_true_decreases() {
    // Algorithm 2's sampled estimate of Δ[u] must converge to the exact
    // decreases listed in Example 2 (Δ(v5) = 4.66, Δ(v9) = 1.11, ...).
    let (graph, seed) = figure1_graph();
    let estimate = decrease_es_computation(
        &graph,
        seed,
        &vec![false; graph.num_vertices()],
        &DecreaseConfig {
            theta: 80_000,
            threads: 2,
            seed: 99,
        },
    )
    .unwrap();
    for (v, expected) in figure1_expected_decreases() {
        assert!(
            (estimate.delta[v.index()] - expected).abs() < 0.05,
            "Δ({v}) estimate {} too far from {expected}",
            estimate.delta[v.index()]
        );
    }
    assert!((estimate.average_reached - FIGURE1_EXPECTED_SPREAD).abs() < 0.05);
}

#[test]
fn table3_greedy_and_outneighbors_and_gr() {
    let problem = toy_problem();
    let config = AlgorithmConfig::fast_for_tests().with_theta(4_000);

    // Greedy (AG) with b = 1 blocks v5 → spread 3.
    let ag1 = problem
        .solve(Algorithm::AdvancedGreedy, 1, &config)
        .unwrap();
    assert_eq!(ag1.blockers, vec![V(5)]);
    let ag1_spread = problem.evaluate_spread_exact(&ag1.blockers).unwrap();
    assert!((ag1_spread - 3.0).abs() < 1e-9);

    // Greedy with b = 2 reaches spread 2 (v5 plus v2 or v4).
    let ag2 = problem
        .solve(Algorithm::AdvancedGreedy, 2, &config)
        .unwrap();
    let ag2_spread = problem.evaluate_spread_exact(&ag2.blockers).unwrap();
    assert!((ag2_spread - 2.0).abs() < 1e-9);

    // OutNeighbors with b = 2 blocks {v2, v4} → spread 1.
    let on2 = problem.solve(Algorithm::OutNeighbors, 2, &config).unwrap();
    let mut on2_sorted = on2.blockers.clone();
    on2_sorted.sort_unstable();
    assert_eq!(on2_sorted, vec![V(2), V(4)]);

    // GreedyReplace achieves the best of both: 3 at b = 1, 1 at b = 2.
    let gr1 = problem.solve(Algorithm::GreedyReplace, 1, &config).unwrap();
    assert_eq!(gr1.blockers, vec![V(5)]);
    let gr2 = problem.solve(Algorithm::GreedyReplace, 2, &config).unwrap();
    let gr2_spread = problem.evaluate_spread_exact(&gr2.blockers).unwrap();
    assert!((gr2_spread - 1.0).abs() < 1e-9);
}

#[test]
fn exact_search_confirms_v5_is_optimal_for_budget_1() {
    let problem = toy_problem();
    let config = AlgorithmConfig::fast_for_tests().with_mcs_rounds(2_000);
    let exact = problem.solve(Algorithm::Exact, 1, &config).unwrap();
    assert_eq!(exact.blockers, vec![V(5)]);
}

#[test]
fn baseline_greedy_agrees_with_advanced_greedy_on_the_toy_graph() {
    let problem = toy_problem();
    let bg = problem
        .solve(
            Algorithm::BaselineGreedy,
            1,
            &AlgorithmConfig::fast_for_tests().with_mcs_rounds(3_000),
        )
        .unwrap();
    assert_eq!(bg.blockers, vec![V(5)]);
    // And the Monte-Carlo estimator itself matches the exact spread.
    let (graph, seed) = figure1_graph();
    let est = MonteCarloEstimator::new(40_000)
        .with_seed(5)
        .expected_spread(&graph, &[seed])
        .unwrap();
    assert!(est.is_consistent_with(FIGURE1_EXPECTED_SPREAD, 0.05));
}
