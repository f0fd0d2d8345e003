//! Estimation of the expected-spread decrease of every candidate blocker
//! (Algorithm 2, `DecreaseESComputation`).
//!
//! For each of θ live-edge samples rooted at the seed, the dominator tree of
//! the sample is built with Lengauer–Tarjan and the size of the subtree
//! rooted at `u` — which equals `σ→u(s, g)` by Theorem 6 — is accumulated
//! into `Δ[u]`. After θ samples, `Δ[u]/θ` is an unbiased estimate of the
//! spread decrease caused by blocking `u` (Theorem 4), with the
//! concentration guarantee of Theorem 5.
//!
//! One pass therefore prices *every* candidate blocker simultaneously,
//! instead of one Monte-Carlo evaluation per candidate as in the baseline.
//!
//! The pass is the kernel of [`crate::pool`], fed here by freshly drawn
//! samples instead of a resident pool's realisations: every sample is
//! rooted at a *virtual root* with one deterministic edge per seed, so a
//! single seed and a whole seed set take the same path, and seeds earn no
//! credit. The root draws no coins, so a one-seed estimate is the one the
//! source-rooted sampler gives. Sums are `u64`: they add integer subtree
//! sizes far below 2⁵³, so converting them once per pass loses nothing.
//!
//! ## Allocation discipline
//!
//! The `budget × θ` inner loop — sample, dominator tree, subtree sizes,
//! accumulate — runs entirely out of a [`DecreaseWorkspace`]: one
//! [`crate::sampler::CompactSample`] arena, one dominator-tree workspace
//! and one subtree-size buffer per worker thread, all reused across
//! samples *and* across greedy rounds. After the first few samples have
//! grown the buffers to the cascade high-water mark, drawing a sample and
//! pricing every candidate allocates nothing.

use crate::pool::{vertex_credit, PoolWorkspace, Sampled};
use crate::sampler::{IcLiveEdgeSampler, SpreadSampler};
use crate::{IminError, Result};
use imin_graph::{DiGraph, VertexId};

/// The output of Algorithm 2.
#[derive(Clone, Debug, Default)]
pub struct DecreaseEstimate {
    /// `delta[u]` — estimated decrease of expected spread if `u` were
    /// blocked, for every vertex of the graph (0 for blocked vertices,
    /// unreachable vertices and the source).
    pub delta: Vec<f64>,
    /// Average number of vertices reached per sample — an estimate of the
    /// current expected spread `E({s}, G[V \ B])` that falls out of the same
    /// samples for free.
    pub average_reached: f64,
    /// Number of samples drawn (θ).
    pub samples: usize,
}

impl DecreaseEstimate {
    /// The eligible candidate with the largest estimated decrease.
    ///
    /// Considers every vertex for which `eligible` returns `true` — even
    /// those whose estimate is zero, matching the paper's greedy loop, which
    /// always blocks *some* vertex while budget remains. Ties are broken
    /// towards the smaller vertex id, so the choice is deterministic.
    /// Returns `None` only when no vertex at all is eligible.
    pub fn best_candidate<F: Fn(VertexId) -> bool>(&self, eligible: F) -> Option<VertexId> {
        let mut best: Option<(f64, VertexId)> = None;
        for (i, &d) in self.delta.iter().enumerate() {
            let v = VertexId::new(i);
            if !eligible(v) {
                continue;
            }
            match best {
                None => best = Some((d, v)),
                Some((bd, _)) if d > bd => best = Some((d, v)),
                _ => {}
            }
        }
        best.map(|(_, v)| v)
    }
}

/// Configuration of the estimator: number of samples, parallelism and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecreaseConfig {
    /// Number of sampled graphs θ.
    pub theta: usize,
    /// Worker threads. Samples are split across threads, each drawing from
    /// its own RNG stream derived from `seed`, so the estimate depends on
    /// the thread count but is deterministic for each: per-thread sums are
    /// integers, merged exactly.
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for DecreaseConfig {
    fn default() -> Self {
        DecreaseConfig {
            theta: 10_000,
            threads: imin_diffusion::montecarlo::default_threads(),
            seed: 0xA11CE,
        }
    }
}

/// Reusable state for [`decrease_es_computation_in`] and
/// [`decrease_es_multi_in`] — the kernel's one workspace type, kept alive
/// across greedy rounds so that the whole `budget × θ` loop of Algorithms 3
/// and 4 allocates nothing in steady state.
pub type DecreaseWorkspace = PoolWorkspace;

/// Algorithm 2 with the default IC live-edge sampler.
///
/// One-shot convenience over [`decrease_es_computation_in`] that allocates a
/// fresh [`DecreaseWorkspace`]; callers in a greedy loop should hold a
/// workspace and call the `_in` variant so buffers are reused across rounds.
///
/// # Errors
/// Returns an error if θ is zero, the source is out of range or blocked, or
/// the blocked mask has the wrong length.
pub fn decrease_es_computation(
    graph: &DiGraph,
    source: VertexId,
    blocked: &[bool],
    config: &DecreaseConfig,
) -> Result<DecreaseEstimate> {
    decrease_es_computation_in(
        &IcLiveEdgeSampler,
        graph,
        source,
        blocked,
        config,
        &mut DecreaseWorkspace::new(),
    )
}

/// Algorithm 2, drawing every scratch buffer from `workspace`.
///
/// # Errors
/// Returns an error if θ is zero, the source is out of range or blocked, or
/// the blocked mask has the wrong length.
pub fn decrease_es_computation_in<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    source: VertexId,
    blocked: &[bool],
    config: &DecreaseConfig,
    workspace: &mut DecreaseWorkspace,
) -> Result<DecreaseEstimate> {
    let n = graph.num_vertices();
    if config.theta == 0 {
        return Err(IminError::ZeroSamples);
    }
    if source.index() >= n {
        return Err(IminError::SeedOutOfRange {
            vertex: source.index(),
            num_vertices: n,
        });
    }
    if blocked.len() != n {
        return Err(IminError::Diffusion(
            imin_diffusion::DiffusionError::MaskLengthMismatch {
                mask_len: blocked.len(),
                num_vertices: n,
            },
        ));
    }
    if blocked[source.index()] {
        return Err(IminError::Diffusion(
            imin_diffusion::DiffusionError::BlockedSeed {
                vertex: source.index(),
            },
        ));
    }
    decrease_es_multi_in(sampler, graph, &[source], blocked, config, workspace)
}

/// Algorithm 2 for a whole seed set, drawing every scratch buffer from
/// `workspace`.
///
/// Seeds are canonicalised (sorted, deduplicated) and every sample is
/// rooted at a virtual root with one deterministic edge per seed — the
/// re-rooting construction of [`crate::pool`], applied at sampling time.
/// `estimate.delta[u]` is 0 for seeds, blocked vertices and unreachable
/// vertices; `estimate.average_reached` counts every seed as active.
///
/// # Errors
/// Returns an error if θ is zero, the seed set is empty, a seed is out of
/// range or blocked, or the blocked mask has the wrong length.
pub fn decrease_es_multi_in<S: SpreadSampler + ?Sized>(
    sampler: &S,
    graph: &DiGraph,
    seeds: &[VertexId],
    blocked: &[bool],
    config: &DecreaseConfig,
    workspace: &mut DecreaseWorkspace,
) -> Result<DecreaseEstimate> {
    let n = graph.num_vertices();
    if config.theta == 0 {
        return Err(IminError::ZeroSamples);
    }
    if blocked.len() != n {
        return Err(IminError::Diffusion(
            imin_diffusion::DiffusionError::MaskLengthMismatch {
                mask_len: blocked.len(),
                num_vertices: n,
            },
        ));
    }
    workspace.stage_seeds(n, seeds, Some(blocked))?;
    let source = Sampled {
        sampler,
        graph,
        blocked,
        theta: config.theta,
        seed: config.seed,
    };
    let mut estimate = DecreaseEstimate::default();
    vertex_credit(&source, config.threads, workspace, &mut estimate);
    Ok(estimate)
}

/// The number of samples Theorem 5 prescribes for an `(ε, n^{-l})`
/// estimation guarantee when the true decrease is at least `opt_lower_bound`:
/// `θ ≥ l (2 + ε) n ln n / (ε² · OPT)`.
///
/// The bound is conservative (it is a worst-case Chernoff bound); the
/// empirical study of Figure 5 shows θ = 10⁴ already saturates quality on
/// all eight datasets.
pub fn sample_bound(n: usize, epsilon: f64, l: f64, opt_lower_bound: f64) -> usize {
    assert!(epsilon > 0.0 && opt_lower_bound > 0.0 && l > 0.0);
    let n_f = n as f64;
    (l * (2.0 + epsilon) * n_f * n_f.ln() / (epsilon * epsilon * opt_lower_bound)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_diffusion::montecarlo::MonteCarloEstimator;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// 0 -> 1 -> {2, 3}, all probability 1: blocking 1 removes 3 vertices.
    fn deterministic_tree() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    fn cfg(theta: usize) -> DecreaseConfig {
        DecreaseConfig {
            theta,
            threads: 1,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_graph_gives_exact_subtree_sizes() {
        let g = deterministic_tree();
        let est = decrease_es_computation(&g, vid(0), &[false; 4], &cfg(16)).unwrap();
        assert_eq!(est.samples, 16);
        assert!((est.average_reached - 4.0).abs() < 1e-12);
        assert!((est.delta[1] - 3.0).abs() < 1e-12);
        assert!((est.delta[2] - 1.0).abs() < 1e-12);
        assert!((est.delta[3] - 1.0).abs() < 1e-12);
        assert_eq!(est.delta[0], 0.0, "the source is never a candidate");
        assert_eq!(est.best_candidate(|v| v != vid(0)), Some(vid(1)));
    }

    #[test]
    fn estimates_match_monte_carlo_decrease_on_probabilistic_graph() {
        // Diamond with probabilistic edges.
        let g = DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 0.6),
                (vid(0), vid(2), 0.4),
                (vid(1), vid(3), 0.7),
                (vid(2), vid(3), 0.5),
            ],
        )
        .unwrap();
        let est = decrease_es_computation(
            &g,
            vid(0),
            &[false; 4],
            &DecreaseConfig {
                theta: 60_000,
                threads: 1,
                seed: 7,
            },
        )
        .unwrap();
        let mcs = MonteCarloEstimator::new(60_000)
            .with_seed(9)
            .with_threads(1);
        for v in 1..4 {
            let expected = mcs
                .spread_decrease(&g, &[vid(0)], &[false; 4], vid(v))
                .unwrap();
            assert!(
                (est.delta[v] - expected).abs() < 0.03,
                "vertex {v}: dominator estimate {} vs MCS {expected}",
                est.delta[v]
            );
        }
        // The free spread estimate is also accurate: E = 1 + .6 + .4 + (1-(1-.42)(1-.2)).
        let spread = mcs.expected_spread_value(&g, &[vid(0)], None).unwrap();
        assert!((est.average_reached - spread).abs() < 0.03);
    }

    #[test]
    fn parallel_execution_is_deterministic_and_close_to_sequential() {
        let g = imin_graph::generators::erdos_renyi(80, 0.05, 0.3, 3).unwrap();
        let blocked = vec![false; 80];
        let par_cfg = DecreaseConfig {
            theta: 4_000,
            threads: 4,
            seed: 11,
        };
        let a = decrease_es_computation(&g, vid(0), &blocked, &par_cfg).unwrap();
        let b = decrease_es_computation(&g, vid(0), &blocked, &par_cfg).unwrap();
        assert_eq!(a.delta, b.delta, "same config ⇒ identical output");
        let seq = decrease_es_computation(
            &g,
            vid(0),
            &blocked,
            &DecreaseConfig {
                theta: 4_000,
                threads: 1,
                seed: 11,
            },
        )
        .unwrap();
        // Different RNG stream split, but statistically the same estimates.
        for v in 0..80 {
            assert!(
                (a.delta[v] - seq.delta[v]).abs() < 0.6,
                "vertex {v}: parallel {} vs sequential {}",
                a.delta[v],
                seq.delta[v]
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        let g = imin_graph::generators::erdos_renyi(60, 0.08, 0.4, 9).unwrap();
        let blocked = vec![false; 60];
        let mut ws = DecreaseWorkspace::new();
        for threads in [1usize, 3] {
            for round in 0..3u64 {
                let cfg = DecreaseConfig {
                    theta: 500,
                    threads,
                    seed: 100 + round,
                };
                let reused = decrease_es_computation_in(
                    &IcLiveEdgeSampler,
                    &g,
                    vid(0),
                    &blocked,
                    &cfg,
                    &mut ws,
                )
                .unwrap();
                let fresh = decrease_es_computation(&g, vid(0), &blocked, &cfg).unwrap();
                assert_eq!(
                    reused.delta, fresh.delta,
                    "threads={threads} round={round}: reused workspace must not change results"
                );
                assert_eq!(reused.average_reached, fresh.average_reached);
            }
        }
    }

    #[test]
    fn multi_seed_estimator_counts_every_seed_and_credits_no_seed() {
        // Two disjoint chains: 0 -> 1 -> 2 and 3 -> 4, all deterministic.
        let g = DiGraph::from_edges(
            5,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(3), vid(4), 1.0),
            ],
        )
        .unwrap();
        let mut ws = DecreaseWorkspace::new();
        let est = decrease_es_multi_in(
            &IcLiveEdgeSampler,
            &g,
            &[vid(3), vid(0), vid(3)], // unsorted, duplicated: canonicalised
            &[false; 5],
            &cfg(8),
            &mut ws,
        )
        .unwrap();
        assert!((est.average_reached - 5.0).abs() < 1e-12);
        assert!((est.delta[1] - 2.0).abs() < 1e-12);
        assert!((est.delta[2] - 1.0).abs() < 1e-12);
        assert!((est.delta[4] - 1.0).abs() < 1e-12);
        assert_eq!(est.delta[0], 0.0, "seeds earn no credit");
        assert_eq!(est.delta[3], 0.0, "seeds earn no credit");
        // Parallel execution of the multi-seed path is deterministic.
        let par = DecreaseConfig {
            theta: 64,
            threads: 3,
            seed: 5,
        };
        let a = decrease_es_multi_in(
            &IcLiveEdgeSampler,
            &g,
            &[vid(0), vid(3)],
            &[false; 5],
            &par,
            &mut ws,
        )
        .unwrap();
        let b = decrease_es_multi_in(
            &IcLiveEdgeSampler,
            &g,
            &[vid(0), vid(3)],
            &[false; 5],
            &par,
            &mut DecreaseWorkspace::new(),
        )
        .unwrap();
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.average_reached, b.average_reached);
    }

    #[test]
    fn single_seed_multi_call_is_bit_identical_to_the_classic_path() {
        let g = imin_graph::generators::erdos_renyi(70, 0.06, 0.4, 21).unwrap();
        let blocked = vec![false; 70];
        for threads in [1usize, 3] {
            let cfg = DecreaseConfig {
                theta: 600,
                threads,
                seed: 17,
            };
            let multi = decrease_es_multi_in(
                &IcLiveEdgeSampler,
                &g,
                &[vid(0)],
                &blocked,
                &cfg,
                &mut DecreaseWorkspace::new(),
            )
            .unwrap();
            let single = decrease_es_computation(&g, vid(0), &blocked, &cfg).unwrap();
            assert_eq!(multi.delta, single.delta, "threads={threads}");
            assert_eq!(multi.average_reached, single.average_reached);
        }
    }

    #[test]
    fn multi_seed_estimator_rejects_bad_requests() {
        let g = deterministic_tree();
        let mut ws = DecreaseWorkspace::new();
        assert!(matches!(
            decrease_es_multi_in(&IcLiveEdgeSampler, &g, &[], &[false; 4], &cfg(4), &mut ws),
            Err(IminError::EmptySeedSet)
        ));
        assert!(matches!(
            decrease_es_multi_in(
                &IcLiveEdgeSampler,
                &g,
                &[vid(9)],
                &[false; 4],
                &cfg(4),
                &mut ws
            ),
            Err(IminError::SeedOutOfRange { .. })
        ));
        let mut blocked = vec![false; 4];
        blocked[1] = true;
        assert!(matches!(
            decrease_es_multi_in(
                &IcLiveEdgeSampler,
                &g,
                &[vid(0), vid(1)],
                &blocked,
                &cfg(4),
                &mut ws
            ),
            Err(IminError::ForbiddenSeedOverlap { vertex: 1 })
        ));
        assert!(decrease_es_multi_in(
            &IcLiveEdgeSampler,
            &g,
            &[vid(0)],
            &[false; 2],
            &cfg(4),
            &mut ws
        )
        .is_err());
        assert!(matches!(
            decrease_es_multi_in(
                &IcLiveEdgeSampler,
                &g,
                &[vid(0)],
                &[false; 4],
                &cfg(0),
                &mut ws
            ),
            Err(IminError::ZeroSamples)
        ));
    }

    #[test]
    fn blocked_vertices_have_zero_delta_and_shrink_spread() {
        let g = deterministic_tree();
        let mut blocked = vec![false; 4];
        blocked[1] = true;
        let est = decrease_es_computation(&g, vid(0), &blocked, &cfg(8)).unwrap();
        assert_eq!(est.delta[1], 0.0);
        assert_eq!(est.delta[2], 0.0);
        assert!((est.average_reached - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = deterministic_tree();
        assert!(matches!(
            decrease_es_computation(&g, vid(0), &[false; 4], &cfg(0)),
            Err(IminError::ZeroSamples)
        ));
        assert!(decrease_es_computation(&g, vid(9), &[false; 4], &cfg(4)).is_err());
        assert!(decrease_es_computation(&g, vid(0), &[false; 2], &cfg(4)).is_err());
        let mut blocked = vec![false; 4];
        blocked[0] = true;
        assert!(decrease_es_computation(&g, vid(0), &blocked, &cfg(4)).is_err());
    }

    #[test]
    fn best_candidate_respects_eligibility_and_ties() {
        let est = DecreaseEstimate {
            delta: vec![5.0, 2.0, 2.0, 0.0],
            average_reached: 1.0,
            samples: 1,
        };
        assert_eq!(est.best_candidate(|_| true), Some(vid(0)));
        assert_eq!(est.best_candidate(|v| v != vid(0)), Some(vid(1)));
        assert_eq!(
            est.best_candidate(|v| v == vid(3)),
            Some(vid(3)),
            "a zero-estimate candidate is still returned"
        );
        assert_eq!(est.best_candidate(|_| false), None);
    }

    #[test]
    fn theorem5_sample_bound_is_monotone() {
        let loose = sample_bound(1000, 0.5, 1.0, 10.0);
        let tight = sample_bound(1000, 0.1, 1.0, 10.0);
        assert!(tight > loose);
        let bigger_opt = sample_bound(1000, 0.5, 1.0, 100.0);
        assert!(bigger_opt < loose);
        let more_conf = sample_bound(1000, 0.5, 2.0, 10.0);
        assert!(more_conf > loose);
    }

    #[test]
    #[should_panic]
    fn sample_bound_rejects_nonpositive_epsilon() {
        let _ = sample_bound(10, 0.0, 1.0, 1.0);
    }
}
