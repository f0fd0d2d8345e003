//! Resident engine: load a network once, build the sample pool once, then
//! answer a stream of containment questions interactively fast.
//!
//! This is the in-process face of what `imin-serve` exposes over TCP: the
//! θ live-edge realisations depend only on the graph and the diffusion
//! model, so they are materialised a single time and every query — any
//! seed set, any budget, any pool-capable algorithm of the
//! [`imin_engine::AlgorithmKind`] registry — only pays for re-rooting them.
//!
//! Run with:
//! ```text
//! cargo run --release --example resident_engine
//! ```

use imin_engine::{AlgorithmKind, Query, SharedEngine};
use std::time::Instant;

fn main() {
    // 1. A synthetic social network under the weighted-cascade model.
    let topology = imin_graph::generators::preferential_attachment(5_000, 4, true, 1.0, 42)
        .expect("graph generation");
    let graph = imin_diffusion::ProbabilityModel::WeightedCascade
        .apply(&topology)
        .expect("probability assignment");
    println!(
        "network: {} users, {} follow edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Prime the engine: one graph load, one pool build.
    let engine = SharedEngine::new();
    engine.load_graph(graph, "pa-5000/WC".into());
    let theta = 2_000;
    let (info, _) = engine.ensure_pool(theta, 7).expect("pool build");
    println!(
        "pool: θ={} realisations, {} live edges, {:.1} MiB, built in {:?} on {} thread(s)",
        info.theta,
        info.live_edges,
        info.memory_bytes as f64 / (1024.0 * 1024.0),
        info.build_time,
        info.threads
    );

    // 3. A stream of questions against the same resident pool: different
    //    rumour sources, different budgets, any algorithm the registry
    //    names — the engine dispatches every query through the one
    //    `AlgorithmKind` registry, so the paper's greedies and the cheap
    //    heuristics share a call shape.
    let questions = [
        ("advanced", vec![0u32], 10),
        ("replace", vec![1, 17], 5),
        ("outdegree", vec![1, 17], 5), // heuristic baseline for the same ask
        ("advanced", vec![42], 8),
        ("advanced", vec![0], 10), // repeat → cache hit
    ];
    for (name, seeds, budget) in questions {
        let algorithm: AlgorithmKind = name.parse().expect("registered algorithm");
        let query = Query {
            seeds: seeds
                .iter()
                .map(|&s| imin_graph::VertexId::from_raw(s))
                .collect(),
            budget,
            algorithm,
            intervention: imin_core::Intervention::BlockVertices,
        };
        let result = engine.query(&query).expect("query");
        println!(
            "seeds={seeds:?} budget={budget} alg={algorithm}: {} blockers, spread≈{:.1}, {:?}{}",
            result.blockers.len(),
            result.estimated_spread.unwrap_or(f64::NAN),
            result.elapsed,
            if result.from_cache {
                " (cache hit)"
            } else {
                ""
            }
        );
    }

    // 4. A batch is one thread per question: the engine is shared, so the
    //    distinct questions compute in parallel against the one pool.
    let batch: Vec<Query> = (0..6)
        .map(|i| Query {
            seeds: vec![imin_graph::VertexId::new(100 + i)],
            budget: 5,
            algorithm: AlgorithmKind::AdvancedGreedy,
            intervention: imin_core::Intervention::BlockVertices,
        })
        .collect();
    let start = Instant::now();
    let ok = std::thread::scope(|scope| {
        let callers: Vec<_> = batch
            .iter()
            .map(|query| scope.spawn(|| engine.query(query).is_ok()))
            .collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("query thread"))
            .filter(|&answered| answered)
            .count()
    });
    println!(
        "batch: {ok}/{} queries answered in {:?} ({:.1} queries/sec)",
        batch.len(),
        start.elapsed(),
        batch.len() as f64 / start.elapsed().as_secs_f64()
    );

    let stats = engine.stats();
    println!(
        "engine stats: {} queries, {} cache hits, {} cached entries",
        stats.queries,
        stats.cache_hits,
        engine.cache_entries()
    );
}
