//! IMIN under the general triggering model (§V-E).
//!
//! The paper notes that its sampling + dominator-tree machinery is agnostic
//! to *how* the live-edge samples are drawn: any triggering model — IC and
//! LT being the canonical instances — yields sampled graphs on which
//! Algorithms 2–4 run unchanged. This module provides thin wrappers that
//! plug a [`TriggeringModel`] into the generic `*_with` entry points, plus a
//! spread evaluator for the resulting blocker sets.

use crate::advanced_greedy::advanced_greedy_with;
use crate::greedy_replace::greedy_replace_with;
use crate::sampler::TriggeringSampler;
use crate::types::{AlgorithmConfig, BlockerSelection};
use crate::Result;
use imin_diffusion::triggering::{triggering_expected_spread, TriggeringModel};
use imin_graph::{DiGraph, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AdvancedGreedy under an arbitrary triggering model.
pub fn advanced_greedy_triggering<M: TriggeringModel + Clone>(
    model: &M,
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    let sampler = TriggeringSampler(model.clone());
    advanced_greedy_with(&sampler, graph, source, forbidden, budget, config)
}

/// GreedyReplace under an arbitrary triggering model.
pub fn greedy_replace_triggering<M: TriggeringModel + Clone>(
    model: &M,
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    let sampler = TriggeringSampler(model.clone());
    greedy_replace_with(&sampler, graph, source, forbidden, budget, config)
}

/// Evaluates a blocker set under a triggering model by repeated live-edge
/// sampling (the triggering analogue of Monte-Carlo evaluation).
pub fn evaluate_triggering_spread<M: TriggeringModel>(
    model: &M,
    graph: &DiGraph,
    seeds: &[VertexId],
    blockers: &[VertexId],
    samples: usize,
    seed: u64,
) -> Result<f64> {
    let mut mask = vec![false; graph.num_vertices()];
    for &b in blockers {
        if b.index() < mask.len() {
            mask[b.index()] = true;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(triggering_expected_spread(
        graph,
        model,
        seeds,
        Some(&mask),
        samples,
        &mut rng,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_diffusion::triggering::{IcTriggering, LtTriggering};

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
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

    fn cfg() -> AlgorithmConfig {
        AlgorithmConfig::fast_for_tests().with_theta(300)
    }

    #[test]
    fn ic_triggering_matches_plain_advanced_greedy() {
        let g = hub_graph();
        let sel =
            advanced_greedy_triggering(&IcTriggering, &g, vid(0), &[false; 6], 1, &cfg()).unwrap();
        assert_eq!(sel.blockers, vec![vid(1)]);
    }

    #[test]
    fn lt_triggering_produces_valid_blockers_and_reduces_spread() {
        let g = hub_graph();
        let sel =
            greedy_replace_triggering(&LtTriggering, &g, vid(0), &[false; 6], 2, &cfg()).unwrap();
        assert_eq!(sel.len(), 2);
        let before =
            evaluate_triggering_spread(&LtTriggering, &g, &[vid(0)], &[], 4_000, 3).unwrap();
        let after =
            evaluate_triggering_spread(&LtTriggering, &g, &[vid(0)], &sel.blockers, 4_000, 3)
                .unwrap();
        assert!(
            after < before,
            "blocking must reduce the LT spread ({after} vs {before})"
        );
    }

    #[test]
    fn evaluation_ignores_out_of_range_blockers_gracefully() {
        let g = hub_graph();
        let spread =
            evaluate_triggering_spread(&IcTriggering, &g, &[vid(0)], &[vid(50)], 500, 1).unwrap();
        assert!((spread - 6.0).abs() < 1e-9);
    }
}
