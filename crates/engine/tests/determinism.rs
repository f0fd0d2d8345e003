//! Engine-level determinism: the same `(graph, θ, pool_seed, query)` must
//! produce **byte-identical** blocker sets no matter how many worker
//! threads the engine uses or how many callers ask at once — 1, 2 and 8
//! threads all equal the serial 1-thread answers.
//!
//! This is the contract that makes the resident pool safe to scale: samples
//! are fixed per index ([`imin_diffusion::live_edge::indexed_sample_seed`])
//! and subtree credits are accumulated in integers, so thread count can
//! never leak into an answer.

use imin_engine::{AlgorithmKind, Query, SharedEngine};
use imin_graph::{generators, VertexId};
use std::sync::Barrier;

fn wc_graph(n: usize, seed: u64) -> imin_graph::DiGraph {
    imin_diffusion::ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
        .unwrap()
}

fn primed(threads: usize) -> SharedEngine {
    let engine = SharedEngine::new().with_threads(threads);
    engine.load_graph(wc_graph(400, 77), "pa-400/WC".into());
    engine.ensure_pool(600, 1234).unwrap();
    engine
}

fn queries() -> Vec<Query> {
    vec![
        Query {
            seeds: vec![VertexId::new(0)],
            budget: 5,
            algorithm: AlgorithmKind::AdvancedGreedy,
            intervention: imin_core::Intervention::BlockVertices,
        },
        Query {
            seeds: vec![VertexId::new(3), VertexId::new(11)],
            budget: 4,
            algorithm: AlgorithmKind::AdvancedGreedy,
            intervention: imin_core::Intervention::BlockVertices,
        },
        Query {
            seeds: vec![VertexId::new(0)],
            budget: 3,
            algorithm: AlgorithmKind::GreedyReplace,
            intervention: imin_core::Intervention::BlockVertices,
        },
        Query {
            seeds: vec![VertexId::new(7), VertexId::new(2), VertexId::new(7)],
            budget: 4,
            algorithm: AlgorithmKind::GreedyReplace,
            intervention: imin_core::Intervention::BlockVertices,
        },
    ]
}

#[test]
fn blocker_sets_are_byte_identical_at_1_2_and_8_threads() {
    let sequential = primed(1);
    let reference: Vec<_> = queries()
        .iter()
        .map(|q| sequential.query(q).unwrap())
        .collect();
    for threads in [2usize, 8] {
        let engine = primed(threads);
        for (query, expected) in queries().iter().zip(&reference) {
            let result = engine.query(query).unwrap();
            assert_eq!(
                result.blockers, expected.blockers,
                "threads={threads}, query {query:?}: blocker sets diverged"
            );
            // f64 spreads must also be bit-identical, not merely close:
            // integer accumulators divided by the same θ.
            assert_eq!(
                result.estimated_spread, expected.estimated_spread,
                "threads={threads}, query {query:?}: spreads diverged"
            );
        }
    }
}

#[test]
fn pool_rebuild_with_the_same_seed_reproduces_answers() {
    let engine = primed(4);
    let query = &queries()[0];
    let first = engine.query(query).unwrap();
    // A POOL matching the resident (θ, seed) is a no-op: the cache survives.
    engine.ensure_pool(600, 1234).unwrap();
    assert!(engine.query(query).unwrap().from_cache);
    // Force a genuine rebuild (different seed), then return to the original
    // (θ, seed): the from-scratch pool must reproduce the answers
    // bit-for-bit without any cache help.
    engine.ensure_pool(600, 9).unwrap();
    engine.ensure_pool(600, 1234).unwrap();
    let again = engine.query(query).unwrap();
    assert!(!again.from_cache);
    assert_eq!(first.blockers, again.blockers);
    assert_eq!(first.estimated_spread, again.estimated_spread);
}

#[test]
fn batched_queries_match_single_queries_across_thread_counts() {
    let reference = primed(1);
    let expected: Vec<_> = queries()
        .iter()
        .map(|q| reference.query(q).unwrap())
        .collect();
    for threads in [2usize, 8] {
        // The batch is one caller per question, released together so the
        // questions compute in parallel against the shared pool.
        let engine = primed(threads);
        let batch = queries();
        let barrier = Barrier::new(batch.len());
        let answers: Vec<_> = std::thread::scope(|scope| {
            let callers: Vec<_> = batch
                .iter()
                .map(|query| {
                    let (engine, barrier) = (&engine, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        engine.query(query).unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for ((result, expected), query) in answers.iter().zip(&expected).zip(&batch) {
            assert_eq!(
                result.blockers, expected.blockers,
                "threads={threads}, query {query:?}"
            );
            assert_eq!(result.estimated_spread, expected.estimated_spread);
        }
    }
}
