//! The toy graph of Figure 1.
//!
//! The paper's running example: nine vertices `v1..v9` with seed `v1`.
//! All propagation probabilities are 1 except `p(v5, v8) = 0.5`,
//! `p(v9, v8) = 0.2` and `p(v8, v7) = 0.1`. The paper derives:
//!
//! * `E({v1}, G) = 7.66` (Example 1),
//! * blocking `v5` leaves a spread of 3; blocking `v2` or `v4` leaves 6.66,
//! * the per-vertex spread decreases of Example 2
//!   (Δ(v5) = 4.66, Δ(v9) = 1.11, Δ(v8) = 0.66, Δ(v7) = 0.06,
//!   Δ(v2) = Δ(v3) = Δ(v4) = Δ(v6) = 1),
//! * Table III: Greedy picks {v5} (spread 3) then {v5, v2 or v4} (spread 2);
//!   OutNeighbors picks {v2, v4} (spread 1 for b = 2);
//!   GreedyReplace achieves the best of both.
//!
//! Paper vertex `v_i` is vertex id `i - 1` here; [`V`] converts.

use imin_graph::{DiGraph, VertexId};

/// Maps a 1-based paper vertex label (`v1`..`v9`) to the 0-based vertex id.
#[allow(non_snake_case)]
pub fn V(paper_label: usize) -> VertexId {
    assert!((1..=9).contains(&paper_label), "the toy graph has v1..v9");
    VertexId::new(paper_label - 1)
}

/// The exact expected spread of the unblocked toy graph (Example 1).
pub const FIGURE1_EXPECTED_SPREAD: f64 = 7.66;

/// Builds the Figure-1 toy graph and returns it together with its seed
/// (`v1`).
pub fn figure1_graph() -> (DiGraph, VertexId) {
    let edges = vec![
        (V(1), V(2), 1.0),
        (V(1), V(4), 1.0),
        (V(2), V(5), 1.0),
        (V(4), V(5), 1.0),
        (V(5), V(3), 1.0),
        (V(5), V(6), 1.0),
        (V(5), V(9), 1.0),
        (V(5), V(8), 0.5),
        (V(9), V(8), 0.2),
        (V(8), V(7), 0.1),
    ];
    let graph = DiGraph::from_edges(9, edges).expect("the toy graph is well-formed");
    (graph, V(1))
}

/// The spread decrease of blocking each vertex, as derived in Example 2,
/// returned as `(vertex, decrease)` pairs for `v2..v9`.
pub fn figure1_expected_decreases() -> Vec<(VertexId, f64)> {
    vec![
        (V(2), 1.0),
        (V(3), 1.0),
        (V(4), 1.0),
        (V(5), 4.66),
        (V(6), 1.0),
        (V(7), 0.06),
        (V(8), 0.66),
        (V(9), 1.11),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_diffusion::exact::{exact_activation_probabilities, exact_expected_spread};

    #[test]
    fn structure_matches_the_paper() {
        let (g, seed) = figure1_graph();
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(seed, V(1));
        // The seed's out-neighbours are v2 and v4 (Example 3).
        assert_eq!(g.out_neighbors(V(1)), &[V(2).raw(), V(4).raw()]);
        assert_eq!(g.edge_probability(V(5), V(8)), Some(0.5));
        assert_eq!(g.edge_probability(V(9), V(8)), Some(0.2));
        assert_eq!(g.edge_probability(V(8), V(7)), Some(0.1));
    }

    #[test]
    fn activation_probabilities_match_example_1() {
        let (g, seed) = figure1_graph();
        let probs = exact_activation_probabilities(&g, &[seed], None).unwrap();
        // v2..v6 and v9 are certainly activated.
        for label in [2, 3, 4, 5, 6, 9] {
            assert!((probs[V(label).index()] - 1.0).abs() < 1e-12, "v{label}");
        }
        assert!((probs[V(8).index()] - 0.6).abs() < 1e-12);
        assert!((probs[V(7).index()] - 0.06).abs() < 1e-12);
        let spread: f64 = probs.iter().sum();
        assert!((spread - FIGURE1_EXPECTED_SPREAD).abs() < 1e-9);
    }

    #[test]
    fn blocking_spreads_match_example_1_and_table_3() {
        let (g, seed) = figure1_graph();
        let spread_with = |blocked_labels: &[usize]| {
            let mut mask = vec![false; 9];
            for &l in blocked_labels {
                mask[V(l).index()] = true;
            }
            exact_expected_spread(&g, &[seed], Some(&mask)).unwrap()
        };
        assert!((spread_with(&[5]) - 3.0).abs() < 1e-9);
        assert!((spread_with(&[2]) - 6.66).abs() < 1e-9);
        assert!((spread_with(&[4]) - 6.66).abs() < 1e-9);
        assert!((spread_with(&[2, 4]) - 1.0).abs() < 1e-9);
        assert!((spread_with(&[5, 2]) - 2.0).abs() < 1e-9);
        assert!((spread_with(&[5, 4]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spread_function_is_not_supermodular_theorem_2() {
        // Theorem 2's counterexample: X = {v3}, Y = {v2, v3}, x = v4.
        let (g, seed) = figure1_graph();
        let f = |labels: &[usize]| {
            let mut mask = vec![false; 9];
            for &l in labels {
                mask[V(l).index()] = true;
            }
            exact_expected_spread(&g, &[seed], Some(&mask)).unwrap()
        };
        let fx = f(&[3]);
        let fy = f(&[2, 3]);
        let fxx = f(&[3, 4]);
        let fyx = f(&[2, 3, 4]);
        assert!((fx - 6.66).abs() < 1e-9);
        assert!((fy - 5.66).abs() < 1e-9);
        assert!((fxx - 5.66).abs() < 1e-9);
        assert!((fyx - 1.0).abs() < 1e-9);
        // Supermodularity would require fxx - fx ≤ fyx - fy; here it fails.
        assert!(fxx - fx > fyx - fy);
    }

    #[test]
    fn expected_decreases_match_example_2() {
        let (g, seed) = figure1_graph();
        let base = exact_expected_spread(&g, &[seed], None).unwrap();
        for (v, expected) in figure1_expected_decreases() {
            let mut mask = vec![false; 9];
            mask[v.index()] = true;
            let blocked = exact_expected_spread(&g, &[seed], Some(&mask)).unwrap();
            assert!(
                (base - blocked - expected).abs() < 1e-9,
                "decrease of {v}: got {} expected {expected}",
                base - blocked
            );
        }
    }

    #[test]
    #[should_panic(expected = "v1..v9")]
    fn label_range_is_checked() {
        let _ = V(10);
    }
}
