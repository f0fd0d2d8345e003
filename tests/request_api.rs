//! The unified `ContainmentRequest` / `BlockerSolver` API: builder
//! validation, byte-identical parity between the legacy free-function
//! shims and the solver registry, and multi-seed agreement between the
//! `Fresh` and `Pooled` backends on a large graph.

use imin_core::advanced_greedy::advanced_greedy;
use imin_core::baseline_greedy::baseline_greedy;
use imin_core::exact_blocker::{exact_blocker_search, ExactSearchConfig, SpreadEvaluator};
use imin_core::greedy_replace::greedy_replace;
use imin_core::heuristics::{
    degree_blockers, out_degree_blockers, out_neighbor_blockers, pagerank_blockers, random_blockers,
};
use imin_core::{
    AlgorithmConfig, AlgorithmKind, BlockerSelection, ContainmentRequest, ForbiddenSet, IminError,
    SamplePool, SketchPool,
};
use imin_diffusion::ProbabilityModel;
use imin_graph::{generators, DiGraph, VertexId};

fn vid(i: usize) -> VertexId {
    VertexId::new(i)
}

/// A ~300-vertex weighted-cascade graph: probabilistic, multi-threaded
/// sampling takes different RNG streams per thread, so shim parity across
/// thread counts is a real test, not a tautology.
fn wc_graph() -> DiGraph {
    let topology = generators::preferential_attachment(300, 3, true, 1.0, 41).unwrap();
    ProbabilityModel::WeightedCascade.apply(&topology).unwrap()
}

fn assert_same_selection(
    kind: AlgorithmKind,
    threads: usize,
    a: &BlockerSelection,
    b: &BlockerSelection,
) {
    assert_eq!(
        a.blockers, b.blockers,
        "{kind:?} (threads={threads}): blockers diverged"
    );
    assert_eq!(
        a.estimated_spread, b.estimated_spread,
        "{kind:?} (threads={threads}): spread estimates diverged"
    );
    assert_eq!(a.stats.rounds, b.stats.rounds, "{kind:?}: rounds diverged");
    assert_eq!(
        a.stats.samples_drawn, b.stats.samples_drawn,
        "{kind:?}: sample counts diverged"
    );
}

#[test]
fn builder_rejects_every_malformed_request() {
    let g = wc_graph();
    let ok = ContainmentRequest::builder(&g)
        .seed(vid(0))
        .budget(2)
        .fresh(50, 1, 1)
        .build();
    assert!(ok.is_ok());
    assert!(matches!(
        ContainmentRequest::builder(&g).seed(vid(0)).build(),
        Err(IminError::ZeroBudget)
    ));
    assert!(matches!(
        ContainmentRequest::builder(&g).budget(1).build(),
        Err(IminError::EmptySeedSet)
    ));
    assert!(matches!(
        ContainmentRequest::builder(&g)
            .seed(vid(g.num_vertices() + 7))
            .budget(1)
            .build(),
        Err(IminError::SeedOutOfRange { .. })
    ));
    assert!(matches!(
        ContainmentRequest::builder(&g)
            .seeds([vid(3), vid(1), vid(3)])
            .budget(1)
            .build(),
        Err(IminError::DuplicateSeed { vertex: 3 })
    ));
    // θ = 0 builds fine (rank-only heuristics never sample) and surfaces
    // as ZeroSamples only from solvers that do.
    let zero_theta = ContainmentRequest::builder(&g)
        .seed(vid(0))
        .budget(1)
        .fresh(0, 1, 1)
        .build()
        .unwrap();
    assert!(AlgorithmKind::OutDegree
        .solver()
        .solve(&g, &zero_theta)
        .is_ok());
    assert!(matches!(
        AlgorithmKind::AdvancedGreedy
            .solver()
            .solve(&g, &zero_theta),
        Err(IminError::ZeroSamples)
    ));
    assert!(matches!(
        ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(1)
            .forbid_mask(vec![false; 7])
            .build(),
        Err(IminError::Diffusion(_))
    ));
    let mut overlap = vec![false; g.num_vertices()];
    overlap[5] = true;
    assert!(matches!(
        ContainmentRequest::builder(&g)
            .seeds([vid(0), vid(5)])
            .budget(1)
            .forbid_mask(overlap)
            .build(),
        Err(IminError::ForbiddenSeedOverlap { vertex: 5 })
    ));
    assert!(matches!(
        ForbiddenSet::from_vertices(4, &[vid(9)]),
        Err(IminError::InvalidBlocker { .. })
    ));
}

#[test]
fn fresh_shims_are_byte_identical_to_the_request_api() {
    let g = wc_graph();
    let n = g.num_vertices();
    let source = vid(0);
    let mut forbidden = vec![false; n];
    forbidden[7] = true;
    let budget = 3;
    for threads in [1usize, 2, 8] {
        let config = AlgorithmConfig::fast_for_tests()
            .with_theta(300)
            .with_mcs_rounds(150)
            .with_threads(threads)
            .with_seed(0xFEED);
        let request = ContainmentRequest::builder(&g)
            .seed(source)
            .budget(budget)
            .forbid_mask(forbidden.clone())
            .fresh_from(&config)
            .build()
            .unwrap();
        let cases: Vec<(AlgorithmKind, BlockerSelection)> = vec![
            (
                AlgorithmKind::AdvancedGreedy,
                advanced_greedy(&g, source, &forbidden, budget, &config).unwrap(),
            ),
            (
                AlgorithmKind::GreedyReplace,
                greedy_replace(&g, source, &forbidden, budget, &config).unwrap(),
            ),
            (
                AlgorithmKind::Random,
                random_blockers(&g, source, &forbidden, budget, config.seed).unwrap(),
            ),
            (
                AlgorithmKind::OutDegree,
                out_degree_blockers(&g, source, &forbidden, budget).unwrap(),
            ),
            (
                AlgorithmKind::Degree,
                degree_blockers(&g, source, &forbidden, budget).unwrap(),
            ),
            (
                AlgorithmKind::OutNeighbors,
                out_neighbor_blockers(&g, source, &forbidden, budget, &config).unwrap(),
            ),
            (
                AlgorithmKind::PageRank,
                pagerank_blockers(&g, source, &forbidden, budget).unwrap(),
            ),
        ];
        for (kind, legacy) in cases {
            let solved = kind.solver().solve(&g, &request).unwrap();
            assert_same_selection(kind, threads, &legacy, &solved);
        }
    }
}

#[test]
fn baseline_and_exact_shims_are_byte_identical_to_the_request_api() {
    // Both are simulation-heavy, so they run on a smaller instance.
    let topology = generators::preferential_attachment(60, 2, false, 1.0, 13).unwrap();
    let g = ProbabilityModel::WeightedCascade.apply(&topology).unwrap();
    let source = vid(0);
    let forbidden = vec![false; g.num_vertices()];
    let budget = 2;
    for threads in [1usize, 2] {
        let config = AlgorithmConfig::fast_for_tests()
            .with_theta(100)
            .with_mcs_rounds(200)
            .with_threads(threads)
            .with_seed(77);
        let request = ContainmentRequest::builder(&g)
            .seed(source)
            .budget(budget)
            .forbid_mask(forbidden.clone())
            .fresh_from(&config)
            .build()
            .unwrap();
        let legacy_bg = baseline_greedy(&g, source, &forbidden, budget, &config).unwrap();
        let solved_bg = AlgorithmKind::BaselineGreedy
            .solver()
            .solve(&g, &request)
            .unwrap();
        assert_same_selection(
            AlgorithmKind::BaselineGreedy,
            threads,
            &legacy_bg,
            &solved_bg,
        );

        let legacy_exact = exact_blocker_search(
            &g,
            source,
            &forbidden,
            budget,
            &ExactSearchConfig {
                evaluator: SpreadEvaluator::MonteCarlo {
                    rounds: config.mcs_rounds,
                },
                threads: config.threads,
                seed: config.seed,
                ..Default::default()
            },
        )
        .unwrap();
        let solved_exact = AlgorithmKind::Exact.solver().solve(&g, &request).unwrap();
        assert_same_selection(AlgorithmKind::Exact, threads, &legacy_exact, &solved_exact);
    }
}

/// A ≥10k-vertex planted graph with only deterministic (p = 1) edges: three
/// seeds feed 30 gateways whose fan-outs all differ, so every greedy round
/// has a unique argmax, the estimator is exact on both backends, and
/// `Fresh` and `Pooled` answers must coincide *exactly* for the same θ and
/// seed — the multi-seed acceptance bar of the unified API.
fn planted_gateway_graph() -> (DiGraph, Vec<VertexId>, Vec<VertexId>) {
    const SEEDS: usize = 3;
    const GATEWAYS: usize = 30;
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let gateway = |i: usize| vid(SEEDS + i);
    let mut next = SEEDS + GATEWAYS;
    for s in 0..SEEDS {
        for i in 0..GATEWAYS {
            edges.push((vid(s), gateway(i), 1.0));
        }
    }
    for i in 0..GATEWAYS {
        let leaves = 100 + 20 * i; // all fan-outs distinct
        for _ in 0..leaves {
            edges.push((gateway(i), vid(next), 1.0));
            next += 1;
        }
    }
    let n = next;
    assert!(n >= 10_000, "planted graph must have at least 10k vertices");
    let graph = DiGraph::from_edges(n, edges).unwrap();
    let seeds = (0..SEEDS).map(vid).collect();
    let gateways = (0..GATEWAYS).map(gateway).collect();
    (graph, seeds, gateways)
}

#[test]
fn multi_seed_selections_are_identical_on_fresh_and_pooled_backends() {
    let (graph, seeds, gateways) = planted_gateway_graph();
    let theta = 4usize;
    let seed = 2023u64;
    let budget = 5usize;
    let pool = SamplePool::build_with_threads(&graph, theta, seed, 4).unwrap();
    for kind in [AlgorithmKind::AdvancedGreedy, AlgorithmKind::GreedyReplace] {
        let mut reference: Option<BlockerSelection> = None;
        for threads in [1usize, 8] {
            let fresh = ContainmentRequest::builder(&graph)
                .seeds(seeds.iter().copied())
                .budget(budget)
                .fresh(theta, seed, threads)
                .build()
                .unwrap();
            let fresh_sel = kind.solver().solve(&graph, &fresh).unwrap();
            let pooled = ContainmentRequest::builder(&graph)
                .seeds(seeds.iter().copied())
                .budget(budget)
                .pooled_with_threads(&pool, threads)
                .build()
                .unwrap();
            let pooled_sel = kind.solver().solve(&graph, &pooled).unwrap();
            assert_eq!(
                fresh_sel.blockers, pooled_sel.blockers,
                "{kind:?} (threads={threads}): Fresh and Pooled selections diverged"
            );
            assert_eq!(
                fresh_sel.estimated_spread, pooled_sel.estimated_spread,
                "{kind:?} (threads={threads}): spread estimates diverged"
            );
            // Every pick is one of the planted gateways (never a seed or a
            // leaf), in strictly decreasing fan-out order for AG.
            for b in &fresh_sel.blockers {
                assert!(gateways.contains(b), "{kind:?} picked non-gateway {b}");
            }
            if kind == AlgorithmKind::AdvancedGreedy {
                let expected: Vec<VertexId> = gateways.iter().rev().take(budget).copied().collect();
                assert_eq!(fresh_sel.blockers, expected, "largest fan-outs first");
            }
            // Thread count never changes the answer on either backend.
            match &reference {
                None => reference = Some(fresh_sel),
                Some(prev) => {
                    assert_eq!(
                        prev.blockers, fresh_sel.blockers,
                        "{kind:?}: thread variance"
                    )
                }
            }
        }
    }
}

#[test]
fn registry_round_trips_and_rejects_unknown_names() {
    for &kind in AlgorithmKind::all() {
        assert_eq!(kind.name().parse::<AlgorithmKind>().unwrap(), kind);
        assert_eq!(kind.label().parse::<AlgorithmKind>().unwrap(), kind);
        assert_eq!(kind.solver().kind(), kind);
    }
    assert!(matches!(
        "warp-drive".parse::<AlgorithmKind>(),
        Err(IminError::UnknownAlgorithm { .. })
    ));
}

/// Remaining (blocked) spread of a fixed blocker set, measured on the
/// forward sample pool — the ground truth both backends are judged by.
fn forward_blocked_spread(pool: &SamplePool, seeds: &[VertexId], blockers: &[VertexId]) -> f64 {
    let mut blocked = vec![false; pool.num_vertices()];
    for b in blockers {
        blocked[b.index()] = true;
    }
    imin_core::pool::with_pool_workspace(|ws| {
        imin_core::pool::pooled_decrease_in(pool, seeds, &blocked, 4, ws)
    })
    .unwrap()
    .average_reached
}

#[test]
fn sketch_greedy_matches_forward_greedy_on_the_planted_gateway_graph() {
    // Every edge is deterministic, so a reverse sketch from root r is the
    // exact set of vertices that reach r and the only estimation noise is
    // root sampling. Sketch-greedy must recover (near-)optimal gateways
    // and its blocked spread — measured on the *forward* pool — must sit
    // within 5% of AdvancedGreedy's.
    let (graph, seeds, gateways) = planted_gateway_graph();
    let budget = 5usize;
    let fwd_pool = SamplePool::build_with_threads(&graph, 4, 2023, 4).unwrap();
    let spool = SketchPool::build_with_threads(&graph, 20_000, 2023, 4).unwrap();

    let ag = {
        let request = ContainmentRequest::builder(&graph)
            .seeds(seeds.iter().copied())
            .budget(budget)
            .pooled_with_threads(&fwd_pool, 4)
            .build()
            .unwrap();
        AlgorithmKind::AdvancedGreedy
            .solver()
            .solve(&graph, &request)
            .unwrap()
    };

    let mut reference: Option<BlockerSelection> = None;
    for threads in [1usize, 2, 8] {
        let request = ContainmentRequest::builder(&graph)
            .seeds(seeds.iter().copied())
            .budget(budget)
            .sketch_pooled(&spool, threads)
            .build()
            .unwrap();
        let sel = AlgorithmKind::RisGreedy
            .solver()
            .solve(&graph, &request)
            .unwrap();
        for b in &sel.blockers {
            assert!(gateways.contains(b), "sketch-greedy picked non-gateway {b}");
        }
        match &reference {
            None => reference = Some(sel),
            Some(prev) => {
                assert_eq!(
                    prev.blockers, sel.blockers,
                    "sketch selection varies with thread count ({threads})"
                );
                assert_eq!(
                    prev.estimated_spread, sel.estimated_spread,
                    "sketch spread estimate varies with thread count ({threads})"
                );
            }
        }
    }
    let sketch = reference.unwrap();

    let ag_spread = forward_blocked_spread(&fwd_pool, &seeds, &ag.blockers);
    let sketch_spread = forward_blocked_spread(&fwd_pool, &seeds, &sketch.blockers);
    assert!(
        sketch_spread <= ag_spread * 1.05,
        "sketch blocked spread {sketch_spread:.1} not within 5% of AG {ag_spread:.1}"
    );
}

#[test]
fn sketch_greedy_blocked_spread_tracks_forward_greedy_on_weighted_cascade() {
    // A probabilistic mid-size instance: both the forward pool and the
    // sketch pool carry sampling noise, so we compare blocked-spread
    // quality (on the shared forward pool) rather than exact selections.
    let topology = generators::preferential_attachment(2_000, 3, true, 1.0, 97).unwrap();
    let graph = ProbabilityModel::WeightedCascade.apply(&topology).unwrap();
    let seeds = [vid(0), vid(1), vid(2)];
    let budget = 8usize;
    let fwd_pool = SamplePool::build_with_threads(&graph, 2_000, 7, 4).unwrap();

    let forward_best = [AlgorithmKind::AdvancedGreedy, AlgorithmKind::GreedyReplace]
        .into_iter()
        .map(|kind| {
            let request = ContainmentRequest::builder(&graph)
                .seeds(seeds)
                .budget(budget)
                .pooled_with_threads(&fwd_pool, 4)
                .build()
                .unwrap();
            let sel = kind.solver().solve(&graph, &request).unwrap();
            forward_blocked_spread(&fwd_pool, &seeds, &sel.blockers)
        })
        .fold(f64::INFINITY, f64::min);

    // Fresh sketch backend (pool built inside the solver) and all thread
    // counts must agree bit-for-bit with the pooled sketch backend.
    let spool = SketchPool::build_with_threads(&graph, 30_000, 7, 4).unwrap();
    let mut reference: Option<BlockerSelection> = None;
    for threads in [1usize, 2, 8] {
        let pooled = ContainmentRequest::builder(&graph)
            .seeds(seeds)
            .budget(budget)
            .sketch_pooled(&spool, threads)
            .build()
            .unwrap();
        let sel = AlgorithmKind::RisGreedy
            .solver()
            .solve(&graph, &pooled)
            .unwrap();
        let fresh = ContainmentRequest::builder(&graph)
            .seeds(seeds)
            .budget(budget)
            .sketch(30_000, 7, threads)
            .build()
            .unwrap();
        let fresh_sel = AlgorithmKind::RisGreedy
            .solver()
            .solve(&graph, &fresh)
            .unwrap();
        assert_eq!(
            sel.blockers, fresh_sel.blockers,
            "threads={threads}: fresh and pooled sketch selections diverged"
        );
        match &reference {
            None => reference = Some(sel),
            Some(prev) => assert_eq!(
                prev.blockers, sel.blockers,
                "threads={threads}: sketch selection varies with thread count"
            ),
        }
    }
    let sketch = reference.unwrap();
    let sketch_spread = forward_blocked_spread(&fwd_pool, &seeds, &sketch.blockers);
    assert!(
        sketch_spread <= forward_best * 1.05,
        "sketch blocked spread {sketch_spread:.1} not within 5% of best forward {forward_best:.1}"
    );
}

#[test]
fn simulation_algorithms_reject_the_pooled_backend() {
    let g = wc_graph();
    let pool = SamplePool::build(&g, 16, 1).unwrap();
    let request = ContainmentRequest::builder(&g)
        .seed(vid(0))
        .budget(2)
        .pooled(&pool)
        .build()
        .unwrap();
    for kind in [AlgorithmKind::BaselineGreedy, AlgorithmKind::Exact] {
        assert!(matches!(
            kind.solver().solve(&g, &request),
            Err(IminError::BackendUnsupported { .. })
        ));
    }
}
