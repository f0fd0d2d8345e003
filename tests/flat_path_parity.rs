//! Exact-parity tests for the arena-backed sampling→dominator hot path.
//!
//! The flattening of `CompactSample` (CSR arena) and the reusable
//! `DomTreeWorkspace` are pure representation changes: for a fixed seed they
//! must produce **bit-identical** estimates — and therefore byte-identical
//! blocker selections — to a reference implementation built from the
//! pre-flattening pieces (nested `Vec<Vec<u32>>` adjacency fed to
//! `dominator_tree_from_adjacency`) and to the brute-force
//! `naive_immediate_dominators` oracle.

use imin_core::advanced_greedy::advanced_greedy;
use imin_core::decrease::{decrease_es_computation, DecreaseConfig, DecreaseEstimate};
use imin_core::pool::{pooled_advanced_greedy_in, pooled_greedy_replace_in};
use imin_core::sampler::{CompactSample, IcLiveEdgeSampler, SpreadSampler};
use imin_core::{AlgorithmConfig, PoolWorkspace, SamplePool};
use imin_diffusion::live_edge::sample_live_edges_indexed;
use imin_diffusion::ProbabilityModel;
use imin_domtree::dominator_tree_from_adjacency;
use imin_domtree::naive::naive_immediate_dominators;
use imin_graph::{generators, DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn vid(i: usize) -> VertexId {
    VertexId::new(i)
}

/// Rebuilds the nested adjacency the sampler produced before the CSR arena.
fn nested_adjacency(sample: &CompactSample) -> Vec<Vec<u32>> {
    (0..sample.num_reached() as u32)
        .map(|l| sample.neighbors(l).to_vec())
        .collect()
}

/// Reference `DecreaseESComputation`: identical sampling stream, but the
/// dominator trees come from the nested-adjacency compatibility shim. Any
/// divergence from `decrease_es_computation` would mean the arena changed
/// the numbers, not just the layout.
fn reference_decrease_nested(
    graph: &DiGraph,
    source: VertexId,
    blocked: &[bool],
    config: &DecreaseConfig,
) -> DecreaseEstimate {
    assert_eq!(config.threads, 1, "the reference is sequential");
    let n = graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut sample = CompactSample::new(n);
    let mut delta_sum = vec![0.0f64; n];
    let mut reached_sum = 0.0f64;
    for _ in 0..config.theta {
        IcLiveEdgeSampler.sample(graph, source, blocked, &mut rng, &mut sample);
        let reached = sample.num_reached();
        reached_sum += reached as f64;
        if reached <= 1 {
            continue;
        }
        let adjacency = nested_adjacency(&sample);
        let dt = dominator_tree_from_adjacency(&adjacency, vid(0));
        let sizes = dt.subtree_sizes();
        let globals = sample.vertices();
        for local in 1..reached {
            delta_sum[globals[local] as usize] += sizes[local] as f64;
        }
    }
    let inv = 1.0 / config.theta as f64;
    DecreaseEstimate {
        delta: delta_sum.iter().map(|d| d * inv).collect(),
        average_reached: reached_sum * inv,
        samples: config.theta,
    }
}

/// Reference estimator whose per-sample dominators come from the cubic
/// brute-force oracle (Definition 5 verbatim).
fn reference_decrease_naive(
    graph: &DiGraph,
    source: VertexId,
    blocked: &[bool],
    config: &DecreaseConfig,
) -> DecreaseEstimate {
    assert_eq!(config.threads, 1, "the reference is sequential");
    let n = graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut sample = CompactSample::new(n);
    let mut delta_sum = vec![0.0f64; n];
    let mut reached_sum = 0.0f64;
    for _ in 0..config.theta {
        IcLiveEdgeSampler.sample(graph, source, blocked, &mut rng, &mut sample);
        let reached = sample.num_reached();
        reached_sum += reached as f64;
        if reached <= 1 {
            continue;
        }
        // Materialise the sample as a DiGraph for the oracle.
        let edges: Vec<(VertexId, VertexId, f64)> = (0..reached as u32)
            .flat_map(|l| {
                sample
                    .neighbors(l)
                    .iter()
                    .map(move |&t| (VertexId::from_raw(l), VertexId::from_raw(t), 1.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let sample_graph = DiGraph::from_edges(reached, edges).unwrap();
        let idom = naive_immediate_dominators(&sample_graph, vid(0));
        // Subtree sizes straight from the idom chains.
        let mut sizes = vec![0u64; reached];
        for v in 0..reached {
            if v != 0 && idom[v].is_none() {
                continue; // unreachable inside the sample cannot happen, but stay total
            }
            let mut cur = v;
            loop {
                sizes[cur] += 1;
                match idom[cur] {
                    Some(d) => cur = d.index(),
                    None => break,
                }
            }
        }
        let globals = sample.vertices();
        for local in 1..reached {
            delta_sum[globals[local] as usize] += sizes[local] as f64;
        }
    }
    let inv = 1.0 / config.theta as f64;
    DecreaseEstimate {
        delta: delta_sum.iter().map(|d| d * inv).collect(),
        average_reached: reached_sum * inv,
        samples: config.theta,
    }
}

/// Replicates the greedy loop of `advanced_greedy` on top of an arbitrary
/// estimator, so selections can be compared blocker by blocker.
fn reference_greedy<F>(
    graph: &DiGraph,
    source: VertexId,
    budget: usize,
    config: &AlgorithmConfig,
    estimator: F,
) -> Vec<VertexId>
where
    F: Fn(&DiGraph, VertexId, &[bool], &DecreaseConfig) -> DecreaseEstimate,
{
    let n = graph.num_vertices();
    let mut blocked = vec![false; n];
    let mut blockers = Vec::new();
    for round in 0..budget {
        let cfg = DecreaseConfig {
            theta: config.theta,
            threads: 1,
            seed: config.seed.wrapping_add(round as u64),
        };
        let estimate = estimator(graph, source, &blocked, &cfg);
        let chosen = estimate.best_candidate(|v| v != source && !blocked[v.index()]);
        let Some(chosen) = chosen else { break };
        blocked[chosen.index()] = true;
        blockers.push(chosen);
    }
    blockers
}

fn parity_config(theta: usize) -> AlgorithmConfig {
    AlgorithmConfig::fast_for_tests()
        .with_theta(theta)
        .with_threads(1)
}

fn toy_hub() -> DiGraph {
    DiGraph::from_edges(
        6,
        vec![
            (vid(0), vid(1), 1.0),
            (vid(1), vid(2), 1.0),
            (vid(1), vid(3), 1.0),
            (vid(1), vid(4), 0.6),
            (vid(0), vid(5), 0.7),
            (vid(5), vid(4), 0.5),
        ],
    )
    .unwrap()
}

#[test]
fn flat_estimates_are_bit_identical_to_nested_reference() {
    let wc = ProbabilityModel::WeightedCascade;
    let graphs = [
        toy_hub(),
        wc.apply(&generators::preferential_attachment(200, 3, false, 1.0, 7).unwrap())
            .unwrap(),
        wc.apply(&generators::erdos_renyi(120, 0.04, 1.0, 21).unwrap())
            .unwrap(),
    ];
    for (gi, graph) in graphs.iter().enumerate() {
        let n = graph.num_vertices();
        let blocked = vec![false; n];
        let cfg = DecreaseConfig {
            theta: 400,
            threads: 1,
            seed: 0xFEED + gi as u64,
        };
        let flat = decrease_es_computation(graph, vid(0), &blocked, &cfg).unwrap();
        let reference = reference_decrease_nested(graph, vid(0), &blocked, &cfg);
        // Bitwise equality: identical samples, identical trees, identical
        // summation order.
        assert_eq!(flat.delta, reference.delta, "graph {gi}: delta diverged");
        assert_eq!(
            flat.average_reached, reference.average_reached,
            "graph {gi}: spread estimate diverged"
        );
    }
}

#[test]
fn advanced_greedy_selection_is_identical_to_nested_reference() {
    let wc = ProbabilityModel::WeightedCascade;
    let graphs = [
        toy_hub(),
        wc.apply(&generators::preferential_attachment(150, 2, false, 1.0, 11).unwrap())
            .unwrap(),
    ];
    for (gi, graph) in graphs.iter().enumerate() {
        let config = parity_config(300);
        let budget = 4;
        let flat = advanced_greedy(
            graph,
            vid(0),
            &vec![false; graph.num_vertices()],
            budget,
            &config,
        )
        .unwrap();
        let reference = reference_greedy(graph, vid(0), budget, &config, |g, s, b, c| {
            reference_decrease_nested(g, s, b, c)
        });
        assert_eq!(
            flat.blockers, reference,
            "graph {gi}: blocker selections diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Resident-pool determinism (PR 3): the pooled path must be byte-identical
// across worker-thread counts — a *stronger* contract than the classic
// estimator, whose per-thread RNG streams make its output depend on the
// thread count. Sample realisations are fixed per index, and subtree
// credits accumulate in integers, so any sharding yields the same answer.
// ---------------------------------------------------------------------------

/// The pool's stored realisations must match the nested-vector reference
/// sampler of the diffusion crate draw for draw: same indexed seed, same
/// coin order, same live edges.
#[test]
fn pool_realisations_match_the_indexed_live_edge_sampler() {
    let graph = ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(180, 3, false, 1.0, 31).unwrap())
        .unwrap();
    let pool = SamplePool::build_with_threads(&graph, 12, 555, 4).unwrap();
    for i in 0..12 {
        let nested = sample_live_edges_indexed(&graph, 555, i as u64);
        let (offsets, targets) = pool.sample_csr(i);
        for u in 0..graph.num_vertices() {
            let slice = &targets[offsets[u] as usize..offsets[u + 1] as usize];
            assert_eq!(slice, nested[u].as_slice(), "sample {i}, vertex {u}");
        }
    }
}

/// Same `(graph, θ, pool_seed, query)` ⇒ byte-identical blocker sets at 1,
/// 2 and 8 worker threads, all equal to the sequential seed-path — for both
/// pool-backed algorithms and for multi-seed queries.
#[test]
fn pooled_selections_are_byte_identical_across_thread_counts() {
    let graph = ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(300, 3, true, 1.0, 13).unwrap())
        .unwrap();
    let n = graph.num_vertices();
    let forbidden = vec![false; n];
    let seed_sets: [&[VertexId]; 2] = [&[vid(0)], &[vid(2), vid(9)]];
    // The sequential seed-path: pool built and queried with one thread.
    let pool_seq = SamplePool::build_with_threads(&graph, 500, 99, 1).unwrap();
    let ws = &mut PoolWorkspace::new();
    for seeds in seed_sets {
        let ag_ref = pooled_advanced_greedy_in(&pool_seq, seeds, &forbidden, 4, 1, ws).unwrap();
        let gr_ref =
            pooled_greedy_replace_in(&pool_seq, &graph, seeds, &forbidden, 3, 1, ws).unwrap();
        for threads in [2usize, 8] {
            // Both the pool build *and* the query run at `threads`.
            let pool = SamplePool::build_with_threads(&graph, 500, 99, threads).unwrap();
            let ag = pooled_advanced_greedy_in(&pool, seeds, &forbidden, 4, threads, ws).unwrap();
            assert_eq!(
                ag.blockers, ag_ref.blockers,
                "AG seeds={seeds:?} threads={threads}"
            );
            assert_eq!(ag.estimated_spread, ag_ref.estimated_spread);
            let gr =
                pooled_greedy_replace_in(&pool, &graph, seeds, &forbidden, 3, threads, ws).unwrap();
            assert_eq!(
                gr.blockers, gr_ref.blockers,
                "GR seeds={seeds:?} threads={threads}"
            );
            assert_eq!(gr.estimated_spread, gr_ref.estimated_spread);
        }
    }
}

#[test]
fn advanced_greedy_selection_is_identical_to_naive_oracle() {
    // The oracle is cubic per sample, so toy sizes and a small θ — but the
    // comparison is exact: same samples, dominators from first principles.
    let graphs = [
        toy_hub(),
        ProbabilityModel::WeightedCascade
            .apply(&generators::erdos_renyi(30, 0.12, 1.0, 5).unwrap())
            .unwrap(),
    ];
    for (gi, graph) in graphs.iter().enumerate() {
        let config = parity_config(60);
        let budget = 3;
        let flat = advanced_greedy(
            graph,
            vid(0),
            &vec![false; graph.num_vertices()],
            budget,
            &config,
        )
        .unwrap();
        let reference = reference_greedy(graph, vid(0), budget, &config, |g, s, b, c| {
            reference_decrease_naive(g, s, b, c)
        });
        assert_eq!(
            flat.blockers, reference,
            "graph {gi}: flat path diverged from the naive-dominator oracle"
        );
    }
}
