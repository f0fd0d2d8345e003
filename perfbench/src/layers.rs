//! The in-process half of a traced run: one timed call into each crate's
//! public functions, on the same graph and pool sizes the workloads use.

use crate::check::reference_graph;
use crate::trace::Tracer;
use crate::workload::{Stream, Workload, LOAD_LINE, POOL_SEED};
use crate::Metrics;
use imin_core::pool::{pooled_decrease_in, PoolWorkspace};
use imin_core::{
    snapshot, AlgorithmKind, BlockerSelection, ContainmentRequest, Intervention, SamplePool,
    SketchPool,
};
use imin_domtree::DomTreeWorkspace;
use imin_engine::protocol::parse_request;
use imin_engine::{Query, RestoreMode, SharedEngine};
use imin_graph::{DiGraph, VertexId};
use imin_obs::{span, Phase, PhaseBreakdown};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// Query phases reported per layer, with their metric names.
pub const PHASES: [(Phase, &str); 6] = [
    (Phase::Decode, "phase.decode_ms"),
    (Phase::Bfs, "phase.bfs_ms"),
    (Phase::DomTree, "phase.domtree_ms"),
    (Phase::Credit, "phase.credit_ms"),
    (Phase::Select, "phase.select_ms"),
    (Phase::Cover, "phase.cover_ms"),
];

/// Question pairs the layer calls use (the first four of the stream).
const PAIRS: usize = 4;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    crate::quantile(values, 0.5)
}

fn solve_forward(
    graph: &DiGraph,
    pool: &SamplePool,
    seeds: &[VertexId],
    budget: usize,
    algorithm: AlgorithmKind,
    intervention: Intervention,
    threads: usize,
) -> BlockerSelection {
    let request = ContainmentRequest::builder(graph)
        .seeds(seeds.iter().copied())
        .budget(budget)
        .intervention(intervention)
        .pooled_with_threads(pool, threads)
        .build()
        .expect("pooled request");
    algorithm
        .solver()
        .solve(graph, &request)
        .expect("pooled solve")
}

/// Runs `f` with the obs phase span armed and adds its phases to `acc`.
fn with_phases<R>(acc: &mut PhaseBreakdown, f: impl FnOnce() -> R) -> R {
    span::begin();
    let result = f();
    let phases = span::take();
    for (phase, _) in PHASES {
        acc.add_us(phase, phases.get(phase));
    }
    result
}

/// One `pooled_decrease_in` pass per pair on one thread; the median in ms.
fn estimator_pass_ms(
    tracer: &mut Tracer,
    name: &str,
    pool: &SamplePool,
    pairs: &[Vec<VertexId>],
) -> f64 {
    let blocked = vec![false; pool.num_vertices()];
    let mut workspace = PoolWorkspace::new();
    let times: Vec<f64> = pairs
        .iter()
        .map(|seeds| {
            let (estimate, t) = tracer.time(name, |_| {
                pooled_decrease_in(pool, seeds, &blocked, 1, &mut workspace)
                    .expect("estimator pass")
            });
            black_box(estimate.average_reached);
            ms(t)
        })
        .collect();
    median(&times)
}

/// One realisation's cascade from the seeds, relabelled compactly: vertex 0
/// is a virtual root with an edge to every seed.
struct Cascade {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// Stages the θ cascades of one question once, so the dominator-tree
/// timing covers Lengauer–Tarjan alone.
fn stage_cascades(pool: &SamplePool, seeds: &[VertexId]) -> Vec<Cascade> {
    let mut local = vec![u32::MAX; pool.num_vertices()];
    let mut order: Vec<u32> = Vec::new();
    (0..pool.theta())
        .map(|idx| {
            let (offsets, targets) = pool.sample_csr(idx);
            order.clear();
            for s in seeds {
                if local[s.index()] == u32::MAX {
                    local[s.index()] = order.len() as u32 + 1;
                    order.push(s.raw());
                }
            }
            let mut cascade = Cascade {
                offsets: vec![0, order.len() as u32],
                targets: (1..=order.len() as u32).collect(),
            };
            let mut head = 0;
            while head < order.len() {
                let u = order[head] as usize;
                head += 1;
                for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                    if local[v as usize] == u32::MAX {
                        local[v as usize] = order.len() as u32 + 1;
                        order.push(v);
                    }
                    cascade.targets.push(local[v as usize]);
                }
                cascade.offsets.push(cascade.targets.len() as u32);
            }
            for &v in &order {
                local[v as usize] = u32::MAX;
            }
            cascade
        })
        .collect()
}

/// Times every layer and returns the per-layer metrics, plus the
/// in-process phase means used where a workload's own replies report none.
pub fn measure(
    stream: &Stream,
    tracer: &mut Tracer,
    tmp: &Path,
) -> Result<(Metrics, PhaseBreakdown), String> {
    let threads = imin_diffusion::montecarlo::default_threads();
    let pairs: Vec<Vec<VertexId>> = stream.pairs()[..PAIRS]
        .iter()
        .map(|&(a, b)| {
            let mut seeds = vec![VertexId::new(a as usize), VertexId::new(b as usize)];
            seeds.sort_unstable();
            seeds
        })
        .collect();
    let mut m = Metrics::default();
    let err = |e: imin_core::IminError| e.to_string();

    // imin-graph: the public generator plus WC weights.
    let (graph, t) = tracer.time("layer.graph.gen", |_| reference_graph());
    m.push("graph.gen_s", t.as_secs_f64(), "s");

    // core::intervene: budget 2 on the families pool, same questions for
    // each family, at the server's per-query thread count.
    let theta = Workload::Families.theta();
    let (fpool, _) = tracer.time("layer.pool.build_families", |_| {
        SamplePool::build_with_threads(&graph, theta, POOL_SEED, threads)
    });
    let fpool = fpool.map_err(err)?;
    let families = [
        ("vertex", Intervention::BlockVertices),
        ("edge", Intervention::BlockEdges),
        ("prebunk", Intervention::Prebunk { alpha: 0.2 }),
    ];
    let mut family_ms = [0.0; 3];
    for (slot, (label, intervention)) in families.iter().enumerate() {
        for seeds in &pairs[..2] {
            let (sel, t) = tracer.time(&format!("layer.intervene.{label}"), |_| {
                solve_forward(
                    &graph,
                    &fpool,
                    seeds,
                    2,
                    AlgorithmKind::AdvancedGreedy,
                    *intervention,
                    threads,
                )
            });
            black_box(sel);
            family_ms[slot] += ms(t) / 2.0;
        }
    }
    drop(fpool);
    m.push("intervene.vertex_ms", family_ms[0], "ms");
    m.push("intervene.edge_ms", family_ms[1], "ms");
    m.push("intervene.prebunk_ms", family_ms[2], "ms");
    m.push(
        "intervene.edge_vs_vertex",
        family_ms[1] / family_ms[0],
        "ratio",
    );
    m.push(
        "intervene.prebunk_vs_vertex",
        family_ms[2] / family_ms[0],
        "ratio",
    );

    // core::pool sampling.
    let theta = Workload::VertexDistinct.theta();
    let (pool, t) = tracer.time("layer.pool.build", |_| {
        SamplePool::build_with_threads(&graph, theta, POOL_SEED, threads)
    });
    let pool = pool.map_err(err)?;
    m.push("pool.build_s", t.as_secs_f64(), "s");
    m.push("pool.bytes_mb", mib(pool.memory_bytes()), "MB");
    m.push("pool.live_edges", pool.total_live_edges() as f64, "count");

    // core::pool estimator on the raw arena.
    m.push(
        "estimator.pass_raw_ms",
        estimator_pass_ms(tracer, "layer.estimator.raw", &pool, &pairs),
        "ms",
    );

    // core greedies: pooled budget-8 solves on one thread, with the phase
    // span armed so the same calls give the in-process phase split.
    let mut phases = PhaseBreakdown::new();
    let mut greedy = |tracer: &mut Tracer, name: &str, kind: AlgorithmKind| {
        let times: Vec<f64> = pairs[..2]
            .iter()
            .map(|seeds| {
                let (sel, t) = tracer.time(name, |_| {
                    with_phases(&mut phases, || {
                        solve_forward(
                            &graph,
                            &pool,
                            seeds,
                            8,
                            kind,
                            Intervention::BlockVertices,
                            1,
                        )
                    })
                });
                black_box(sel);
                ms(t)
            })
            .collect();
        median(&times)
    };
    let ag = greedy(tracer, "layer.select.ag", AlgorithmKind::AdvancedGreedy);
    let gr = greedy(tracer, "layer.select.gr", AlgorithmKind::GreedyReplace);
    m.push("select.ag_ms", ag, "ms");
    m.push("select.gr_ms", gr, "ms");
    let forward_solves = 4;

    // imin-domtree: Lengauer–Tarjan over θ cascades staged once.
    let cascades = tracer
        .time("layer.domtree.stage", |_| stage_cascades(&pool, &pairs[0]))
        .0;
    let mut workspace = DomTreeWorkspace::new();
    let lt: Vec<f64> = (0..3)
        .map(|_| {
            let (reached, t) = tracer.time("layer.domtree.lt", |_| {
                cascades
                    .iter()
                    .map(|c| {
                        let n = c.offsets.len() - 1;
                        workspace
                            .compute_csr(n, &c.offsets, &c.targets, VertexId::new(0))
                            .num_reachable()
                    })
                    .sum::<usize>()
            });
            black_box(reached);
            ms(t)
        })
        .collect();
    m.push("domtree.lt_ms", median(&lt), "ms");
    drop(cascades);

    // core::arena: compress the raw pool.
    let (compressed, t) = tracer.time("layer.arena.compress", |_| pool.compress(&graph, threads));
    let compressed = compressed.map_err(err)?;
    drop(pool);
    m.push("arena.compress_s", t.as_secs_f64(), "s");
    m.push("arena.ratio", compressed.compression_ratio(), "ratio");
    m.push(
        "estimator.pass_compressed_ms",
        estimator_pass_ms(tracer, "layer.estimator.compressed", &compressed, &pairs),
        "ms",
    );

    // core::snapshot: save the compressed pool, read it back both ways.
    let path = tmp.join("layers.iminsnap");
    let (summary, t) = tracer.time("layer.snapshot.save", |_| {
        snapshot::save_snapshot(&path, &graph, &compressed, "perfbench")
    });
    let summary = summary.map_err(err)?;
    drop(compressed);
    m.push("snapshot.save_s", t.as_secs_f64(), "s");
    m.push(
        "snapshot.bytes_mb",
        mib(summary.bytes_written as usize),
        "MB",
    );
    let (loaded, t) = tracer.time("layer.snapshot.load", |_| snapshot::load_snapshot(&path));
    drop(loaded.map_err(err)?);
    m.push("snapshot.load_s", t.as_secs_f64(), "s");
    let (mapped, t) = tracer.time("layer.snapshot.map", |_| snapshot::map_snapshot(&path));
    let mapped = mapped.map_err(err)?;
    m.push("snapshot.map_s", t.as_secs_f64(), "s");
    m.push(
        "estimator.pass_mapped_ms",
        estimator_pass_ms(tracer, "layer.estimator.mapped", &mapped.pool, &pairs),
        "ms",
    );
    drop(mapped);

    // imin-obs: vertex-distinct questions through SharedEngine, cache off,
    // phase observability on vs off in ABBA order after one warm-up answer
    // (which pays the mapped pages' first touch).
    let engine = SharedEngine::new().with_cache_capacity(0);
    engine
        .restore_snapshot_with(&path, RestoreMode::Map)
        .map_err(|e| e.to_string())?;
    let (mut on, mut off) = (0.0, 0.0);
    for (k, seeds) in pairs.iter().enumerate() {
        let query = Query {
            seeds: seeds.clone(),
            budget: 8,
            algorithm: if k % 2 == 0 {
                AlgorithmKind::AdvancedGreedy
            } else {
                AlgorithmKind::GreedyReplace
            },
            intervention: Intervention::BlockVertices,
        };
        tracer.time("layer.obs.warm", |_| {
            black_box(engine.query(&query).is_ok())
        });
        for enabled in [true, false, false, true, true, false, false, true] {
            engine.set_observability(enabled);
            let (answer, t) = tracer.time(
                if enabled {
                    "layer.obs.on"
                } else {
                    "layer.obs.off"
                },
                |_| engine.query(&query),
            );
            black_box(answer.map_err(|e| e.to_string())?);
            *(if enabled { &mut on } else { &mut off }) += ms(t);
        }
    }
    drop(engine);
    let _ = std::fs::remove_file(&path);
    m.push("obs.overhead_pct", (on / off - 1.0) * 100.0, "%");

    // core::ris: sketch build and cover.
    let theta_r = Workload::SketchHot.theta();
    let (sketch, t) = tracer.time("layer.ris.build", |_| {
        SketchPool::build_with_threads(&graph, theta_r, POOL_SEED, threads)
    });
    let sketch = sketch.map_err(err)?;
    m.push("ris.build_s", t.as_secs_f64(), "s");
    m.push("ris.bytes_mb", mib(sketch.memory_bytes()), "MB");
    let cover_before = phases.get(Phase::Cover);
    let times: Vec<f64> = pairs
        .iter()
        .map(|seeds| {
            let request = ContainmentRequest::builder(&graph)
                .seeds(seeds.iter().copied())
                .budget(8)
                .sketch_pooled(&sketch, threads)
                .build()
                .expect("sketch request");
            let (sel, t) = tracer.time("layer.ris.select", |_| {
                with_phases(&mut phases, || {
                    AlgorithmKind::RisGreedy.solver().solve(&graph, &request)
                })
            });
            black_box(sel.expect("sketch solve"));
            ms(t)
        })
        .collect();
    m.push("ris.select_ms", median(&times), "ms");
    drop(sketch);
    let cover_us = (phases.get(Phase::Cover) - cover_before) as f64 / PAIRS as f64;

    // Phase means per query: forward phases over the greedy solves, cover
    // over the sketch solves.
    let mut mean = PhaseBreakdown::new();
    for (phase, _) in PHASES {
        mean.set(phase, phases.get(phase) / forward_solves);
    }
    mean.set(Phase::Cover, cover_us.round() as u64);

    // imin-engine shared engine: a computed ris-greedy answer, then hits.
    let engine = SharedEngine::new();
    engine.load_graph(graph, LOAD_LINE.to_string());
    engine
        .ensure_sketch_pool(theta_r, POOL_SEED)
        .map_err(|e| e.to_string())?;
    let (mut compute, mut hit) = (Vec::new(), Vec::new());
    for seeds in &pairs {
        let query = Query {
            seeds: seeds.clone(),
            budget: 8,
            algorithm: AlgorithmKind::RisGreedy,
            intervention: Intervention::BlockVertices,
        };
        let (answer, t) = tracer.time("layer.engine.compute", |_| engine.query(&query));
        black_box(answer.map_err(|e| e.to_string())?);
        compute.push(ms(t));
        for _ in 0..50 {
            let (answer, t) = tracer.time("layer.engine.hit", |_| engine.query(&query));
            black_box(answer.map_err(|e| e.to_string())?);
            hit.push(t.as_secs_f64() * 1e6);
        }
    }
    m.push("engine.compute_ms", median(&compute), "ms");
    m.push("engine.hit_us", median(&hit), "us");

    // imin-engine protocol: parse_request over the workload's own lines.
    let workload = stream.workload();
    let mut lines = vec![LOAD_LINE.to_string(), workload.pool_line()];
    lines.extend((0..stream.len().unwrap_or(2_000).min(2_000)).map(|i| stream.line(i)));
    let rounds = 5;
    let (_, t) = tracer.time("layer.protocol.parse", |_| {
        for _ in 0..rounds {
            for line in &lines {
                black_box(parse_request(black_box(line)).is_ok());
            }
        }
    });
    m.push(
        "protocol.parse_us",
        t.as_secs_f64() * 1e6 / (rounds * lines.len()) as f64,
        "us",
    );

    Ok((m, mean))
}
