//! PR 9 reverse-sketch head-to-head: the `Sketch` backend must buy its
//! keep against the resident forward pool.
//!
//! Builds one WC reference graph (50k vertices by default; `IMIN_PR9_N`
//! scales it up to the 1M-vertex configuration of the paper's large runs),
//! then materialises **both** estimator backends side by side:
//!
//! * the forward live-edge [`SamplePool`] at θ forward samples — the
//!   backend AdvancedGreedy / GreedyReplace re-root per query, and the
//!   ground truth every selection is judged by;
//! * the reverse-reachable [`SketchPool`] at θ_r sketches — the backend
//!   `ris-greedy` covers with CELF.
//!
//! Measures and emits `BENCH_PR9.json` (`IMIN_BENCH_OUT` overrides the
//! directory): build wall-clock, resident bytes, per-query selection
//! latency, and blocked-spread quality — the spread that *remains* after
//! applying each algorithm's blockers, always evaluated on the forward
//! pool so the comparison cannot be gamed by the sketch estimator grading
//! its own homework.
//!
//! Asserts (full preset; the smoke preset only checks the harness):
//!
//! * **build time** — sketch pool builds in ≤ 0.5× the forward pool's
//!   wall-clock;
//! * **resident bytes** — sketch pool occupies ≤ 0.5× the forward pool's
//!   raw (uncompressed-equivalent) bytes;
//! * **quality** — mean sketch-greedy blocked spread within 5% of mean
//!   AdvancedGreedy blocked spread;
//! * **determinism** — sketch selections bit-identical at 1, 2 and 8
//!   threads, for every question.
//!
//! Knobs (env): `IMIN_PR9_N`, `IMIN_PR9_THETA`, `IMIN_PR9_THETA_R`,
//! `IMIN_PR9_QUERIES`, `IMIN_PR9_SMOKE=1` (small preset).
//!
//! Run with: `cargo run --release -p imin-bench --bin bench_pr9`

use imin_core::pool::{pooled_decrease_in, with_pool_workspace};
use imin_core::{AlgorithmKind, BlockerSelection, ContainmentRequest, SamplePool, SketchPool};
use imin_diffusion::ProbabilityModel;
use imin_graph::{generators, DiGraph, VertexId};
use std::io::Write;
use std::time::Instant;

struct Cfg {
    n: usize,
    theta: usize,
    theta_r: usize,
    queries: usize,
    budget: usize,
    smoke: bool,
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Cfg {
    fn from_env() -> Cfg {
        let smoke = std::env::var("IMIN_PR9_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        // θ_r is deliberately generous: reverse WC sketches are tiny
        // (expected size is the mean in-reachability, a small constant),
        // so 20 sketches per forward sample still undercuts the forward
        // pool on both build time and bytes by a wide margin.
        let (n, theta, theta_r, queries) = if smoke {
            (3_000, 300, 6_000, 4)
        } else {
            (50_000, 10_000, 200_000, 8)
        };
        Cfg {
            n: env_num("IMIN_PR9_N", n),
            theta: env_num("IMIN_PR9_THETA", theta),
            theta_r: env_num("IMIN_PR9_THETA_R", theta_r),
            queries: env_num("IMIN_PR9_QUERIES", queries),
            budget: 8,
            smoke,
        }
    }
}

/// A globally-distinct two-seed derivation, so the quality comparison
/// averages over genuinely different questions.
fn distinct_seeds(n: usize, k: u64) -> Vec<VertexId> {
    let id = k.wrapping_mul(1_000_000_007);
    let a = (id.wrapping_mul(2_654_435_761) % n as u64) as usize;
    let mut b = (a + 1 + (id as usize % (n - 1))) % n;
    if b == a {
        b = (a + 1) % n;
    }
    vec![VertexId::new(a), VertexId::new(b)]
}

/// Remaining (blocked) spread of a selection, on the forward pool.
fn forward_blocked_spread(pool: &SamplePool, seeds: &[VertexId], blockers: &[VertexId]) -> f64 {
    let mut blocked = vec![false; pool.num_vertices()];
    for b in blockers {
        blocked[b.index()] = true;
    }
    with_pool_workspace(|ws| pooled_decrease_in(pool, seeds, &blocked, 4, ws))
        .expect("forward evaluation")
        .average_reached
}

fn solve_pooled(
    graph: &DiGraph,
    pool: &SamplePool,
    kind: AlgorithmKind,
    seeds: &[VertexId],
    budget: usize,
) -> (BlockerSelection, f64) {
    let request = ContainmentRequest::builder(graph)
        .seeds(seeds.iter().copied())
        .budget(budget)
        .pooled_with_threads(pool, 4)
        .build()
        .expect("pooled request");
    let start = Instant::now();
    let sel = kind.solver().solve(graph, &request).expect("pooled solve");
    (sel, start.elapsed().as_secs_f64())
}

fn solve_sketch(
    graph: &DiGraph,
    pool: &SketchPool,
    seeds: &[VertexId],
    budget: usize,
    threads: usize,
) -> (BlockerSelection, f64) {
    let request = ContainmentRequest::builder(graph)
        .seeds(seeds.iter().copied())
        .budget(budget)
        .sketch_pooled(pool, threads)
        .build()
        .expect("sketch request");
    let start = Instant::now();
    let sel = AlgorithmKind::RisGreedy
        .solver()
        .solve(graph, &request)
        .expect("sketch solve");
    (sel, start.elapsed().as_secs_f64())
}

fn main() {
    let cfg = Cfg::from_env();
    eprintln!(
        "bench_pr9: n={} theta={} theta_r={} queries={} smoke={}",
        cfg.n, cfg.theta, cfg.theta_r, cfg.queries, cfg.smoke
    );

    eprintln!("building the WC reference graph …");
    let graph: DiGraph = ProbabilityModel::WeightedCascade
        .apply(
            &generators::preferential_attachment(cfg.n, 4, true, 1.0, 20230227).expect("topology"),
        )
        .expect("WC weights");
    let edges = graph.num_edges();

    // ---- Build both backends ----------------------------------------------
    eprintln!("building the forward pool (theta={}) …", cfg.theta);
    let start = Instant::now();
    let fwd = SamplePool::build_with_threads(&graph, cfg.theta, 7, 4).expect("forward pool");
    let fwd_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let fwd_raw_bytes = fwd.raw_equivalent_bytes();
    eprintln!(
        "forward pool: {fwd_build_ms:.0}ms, {} resident bytes ({fwd_raw_bytes} raw-equivalent)",
        fwd.memory_bytes()
    );

    eprintln!("building the sketch pool (theta_r={}) …", cfg.theta_r);
    let start = Instant::now();
    let sketch = SketchPool::build_with_threads(&graph, cfg.theta_r, 7, 4).expect("sketch pool");
    let sketch_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let sketch_bytes = sketch.memory_bytes();
    eprintln!(
        "sketch pool: {sketch_build_ms:.0}ms, {sketch_bytes} bytes, {} members (avg {:.2}/sketch)",
        sketch.total_members(),
        sketch.avg_sketch_size()
    );

    let build_ratio = sketch_build_ms / fwd_build_ms;
    let bytes_ratio = sketch_bytes as f64 / fwd_raw_bytes as f64;

    // ---- Per-question head-to-head ----------------------------------------
    let mut ag_spreads = Vec::new();
    let mut gr_spreads = Vec::new();
    let mut ris_spreads = Vec::new();
    let mut unblocked = Vec::new();
    let mut ag_secs = Vec::new();
    let mut gr_secs = Vec::new();
    let mut ris_secs = Vec::new();
    for k in 0..cfg.queries as u64 {
        let seeds = distinct_seeds(cfg.n, k);
        let (ag, t_ag) = solve_pooled(
            &graph,
            &fwd,
            AlgorithmKind::AdvancedGreedy,
            &seeds,
            cfg.budget,
        );
        let (gr, t_gr) = solve_pooled(
            &graph,
            &fwd,
            AlgorithmKind::GreedyReplace,
            &seeds,
            cfg.budget,
        );
        let (ris, t_ris) = solve_sketch(&graph, &sketch, &seeds, cfg.budget, 4);
        // Determinism gate: every question, bit-identical at 1/2/8 threads.
        for threads in [1usize, 2, 8] {
            let (again, _) = solve_sketch(&graph, &sketch, &seeds, cfg.budget, threads);
            assert_eq!(
                ris.blockers, again.blockers,
                "sketch selection diverged at {threads} threads (question {k})"
            );
        }
        let base = forward_blocked_spread(&fwd, &seeds, &[]);
        let s_ag = forward_blocked_spread(&fwd, &seeds, &ag.blockers);
        let s_gr = forward_blocked_spread(&fwd, &seeds, &gr.blockers);
        let s_ris = forward_blocked_spread(&fwd, &seeds, &ris.blockers);
        eprintln!(
            "q{k}: spread {base:.1} → AG {s_ag:.1} ({:.1}ms) | GR {s_gr:.1} ({:.1}ms) | RIS {s_ris:.1} ({:.1}ms)",
            t_ag * 1e3,
            t_gr * 1e3,
            t_ris * 1e3
        );
        unblocked.push(base);
        ag_spreads.push(s_ag);
        gr_spreads.push(s_gr);
        ris_spreads.push(s_ris);
        ag_secs.push(t_ag);
        gr_secs.push(t_gr);
        ris_secs.push(t_ris);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let quality_ratio = mean(&ris_spreads) / mean(&ag_spreads);
    eprintln!(
        "mean blocked spread: AG {:.2}  GR {:.2}  RIS {:.2} (ratio RIS/AG {quality_ratio:.4})",
        mean(&ag_spreads),
        mean(&gr_spreads),
        mean(&ris_spreads)
    );
    eprintln!(
        "mean selection latency: AG {:.1}ms  GR {:.1}ms  RIS {:.1}ms  |  build {build_ratio:.3}× bytes {bytes_ratio:.3}×",
        mean(&ag_secs) * 1e3,
        mean(&gr_secs) * 1e3,
        mean(&ris_secs) * 1e3
    );

    // The acceptance gates are defined at the benchmark scale; the smoke
    // preset (tiny graph, tiny pools) only proves the harness runs.
    let (max_build, max_bytes, max_quality) = if cfg.smoke {
        (2.0, 1.0, 1.25)
    } else {
        (0.5, 0.5, 1.05)
    };
    assert!(
        build_ratio <= max_build,
        "sketch build {build_ratio:.3}× exceeds the {max_build}× bound"
    );
    assert!(
        bytes_ratio <= max_bytes,
        "sketch bytes {bytes_ratio:.3}× exceeds the {max_bytes}× bound"
    );
    assert!(
        quality_ratio <= max_quality,
        "sketch blocked-spread ratio {quality_ratio:.4} exceeds the {max_quality} bound"
    );

    // ---- Emit BENCH_PR9.json ----------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_PR9.json");
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 9,\n");
    json.push_str("  \"benchmark\": \"sketch_vs_forward_backend\",\n");
    json.push_str("  \"description\": \"reverse-reachable sketch pool (ris-greedy/CELF) vs resident forward live-edge pool (AdvancedGreedy/GreedyReplace): build wall-clock, resident bytes, selection latency and blocked-spread quality, all selections judged on the forward pool (bench_pr9, in-process)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {}, \"edges\": {edges} }},\n",
        cfg.n
    ));
    json.push_str(&format!(
        "  \"queries\": {},\n  \"budget\": {},\n  \"smoke\": {},\n",
        cfg.queries, cfg.budget, cfg.smoke
    ));
    json.push_str(&format!(
        "  \"forward\": {{ \"theta\": {}, \"build_ms\": {fwd_build_ms:.1}, \"resident_bytes\": {}, \"raw_equivalent_bytes\": {fwd_raw_bytes}, \"mean_select_ms\": {:.3} }},\n",
        cfg.theta,
        fwd.memory_bytes(),
        mean(&ag_secs) * 1e3
    ));
    json.push_str(&format!(
        "  \"sketch\": {{ \"theta_r\": {}, \"build_ms\": {sketch_build_ms:.1}, \"resident_bytes\": {sketch_bytes}, \"members\": {}, \"avg_sketch_size\": {:.3}, \"mean_select_ms\": {:.3} }},\n",
        cfg.theta_r,
        sketch.total_members(),
        sketch.avg_sketch_size(),
        mean(&ris_secs) * 1e3
    ));
    json.push_str(&format!(
        "  \"ratios\": {{ \"build\": {build_ratio:.4}, \"bytes\": {bytes_ratio:.4}, \"blocked_spread_ris_over_ag\": {quality_ratio:.4} }},\n"
    ));
    json.push_str(&format!(
        "  \"bounds\": {{ \"build\": {max_build}, \"bytes\": {max_bytes}, \"blocked_spread\": {max_quality} }},\n"
    ));
    json.push_str(&format!(
        "  \"blocked_spread\": {{ \"unblocked\": [{}], \"advanced_greedy\": [{}], \"greedy_replace\": [{}], \"ris_greedy\": [{}] }},\n",
        list(&unblocked),
        list(&ag_spreads),
        list(&gr_spreads),
        list(&ris_spreads)
    ));
    json.push_str(&format!(
        "  \"select_ms\": {{ \"advanced_greedy\": [{}], \"greedy_replace\": [{}], \"ris_greedy\": [{}] }},\n",
        list(&ag_secs.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        list(&gr_secs.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        list(&ris_secs.iter().map(|s| s * 1e3).collect::<Vec<_>>())
    ));
    json.push_str(&format!(
        "  \"determinism\": {{ \"threads\": [1, 2, 8], \"bit_identical_questions\": {} }},\n",
        cfg.queries
    ));
    json.push_str(&format!(
        "  \"methodology\": \"{} globally-distinct two-seed budget-{} questions on one WC graph; both pools share RNG seed 7; every sketch selection re-solved at 1/2/8 threads and asserted bit-identical; blocked spread = average_reached of the forward pool's pooled estimator with the selection applied, so the sketch backend is graded by the forward backend's ground truth, never by its own estimator\"\n",
        cfg.queries, cfg.budget
    ));
    json.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR9.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR9.json");
    println!("wrote {}", path.display());
}
