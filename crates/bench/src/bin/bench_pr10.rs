//! PR 10 intervention-family head-to-head: vertex blocking vs edge
//! blocking vs prebunking on the *same* WC cascades.
//!
//! Builds one WC reference graph and one forward live-edge [`SamplePool`],
//! then sweeps the containment budget for all three intervention families
//! through the same `AdvancedGreedy` solver entry point:
//!
//! * `intervene=vertex` — the paper's vertex blocking (dominator-tree
//!   greedy over the pooled realisations);
//! * `intervene=edge` — live-edge deletion with exact single-feeder
//!   credit, budget counted in edges;
//! * `intervene=prebunk:<alpha>` — per-vertex acceptance rescale with the
//!   deterministic coin-threshold thinning.
//!
//! Every reported spread is the family's *exact* residual spread w.r.t.
//! the shared pool (the estimators are exact by construction, so all three
//! families are judged by the same θ realisations — no estimator grades
//! its own homework with different randomness).
//!
//! Asserts, for every question and every family:
//!
//! * **monotonicity** — blocked spread is non-increasing in budget
//!   (greedy selections are prefix-consistent);
//! * **containment** — every blocked spread ≤ the unblocked baseline;
//! * **determinism** — selections and spreads bit-identical at 1 and 4
//!   threads.
//!
//! Knobs (env): `IMIN_PR10_N`, `IMIN_PR10_THETA`, `IMIN_PR10_QUERIES`,
//! `IMIN_PR10_ALPHA`, `IMIN_PR10_SMOKE=1` (small preset).
//!
//! Run with: `cargo run --release -p imin-bench --bin bench_pr10`

use imin_core::{AlgorithmKind, BlockerSelection, ContainmentRequest, Intervention, SamplePool};
use imin_diffusion::ProbabilityModel;
use imin_graph::{generators, DiGraph, VertexId};
use std::io::Write;
use std::time::Instant;

struct Cfg {
    n: usize,
    theta: usize,
    queries: usize,
    alpha: f64,
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
        let smoke = std::env::var("IMIN_PR10_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let (n, theta, queries) = if smoke {
            (3_000, 300, 3)
        } else {
            (50_000, 10_000, 6)
        };
        Cfg {
            n: env_num("IMIN_PR10_N", n),
            theta: env_num("IMIN_PR10_THETA", theta),
            queries: env_num("IMIN_PR10_QUERIES", queries),
            alpha: env_num("IMIN_PR10_ALPHA", 0.2),
            smoke,
        }
    }
}

const BUDGETS: &[usize] = &[1, 2, 4, 8];

/// The same globally-distinct two-seed derivation as `bench_pr9`.
fn distinct_seeds(n: usize, k: u64) -> Vec<VertexId> {
    let id = k.wrapping_mul(1_000_000_007);
    let a = (id.wrapping_mul(2_654_435_761) % n as u64) as usize;
    let mut b = (a + 1 + (id as usize % (n - 1))) % n;
    if b == a {
        b = (a + 1) % n;
    }
    vec![VertexId::new(a), VertexId::new(b)]
}

fn solve(
    graph: &DiGraph,
    pool: &SamplePool,
    seeds: &[VertexId],
    budget: usize,
    intervention: Intervention,
    threads: usize,
) -> (BlockerSelection, f64) {
    let request = ContainmentRequest::builder(graph)
        .seeds(seeds.iter().copied())
        .budget(budget)
        .intervention(intervention)
        .pooled_with_threads(pool, threads)
        .build()
        .expect("pooled request");
    let start = Instant::now();
    let sel = AlgorithmKind::AdvancedGreedy
        .solver()
        .solve(graph, &request)
        .expect("pooled solve");
    (sel, start.elapsed().as_secs_f64())
}

fn main() {
    let cfg = Cfg::from_env();
    eprintln!(
        "bench_pr10: n={} theta={} queries={} alpha={} smoke={}",
        cfg.n, cfg.theta, cfg.queries, cfg.alpha, cfg.smoke
    );

    eprintln!("building the WC reference graph …");
    let graph: DiGraph = ProbabilityModel::WeightedCascade
        .apply(
            &generators::preferential_attachment(cfg.n, 4, true, 1.0, 20230227).expect("topology"),
        )
        .expect("WC weights");
    let edges = graph.num_edges();

    eprintln!("building the forward pool (theta={}) …", cfg.theta);
    let start = Instant::now();
    let pool = SamplePool::build_with_threads(&graph, cfg.theta, 7, 4).expect("forward pool");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "pool: {build_ms:.0}ms, {} resident bytes",
        pool.memory_bytes()
    );

    let families = [
        ("vertex", Intervention::BlockVertices),
        ("edge", Intervention::BlockEdges),
        ("prebunk", Intervention::Prebunk { alpha: cfg.alpha }),
    ];

    // mean_spread[f][b]: mean residual spread of family f at BUDGETS[b].
    let mut mean_spread = [[0.0f64; 4]; 3];
    let mut mean_ms = [[0.0f64; 4]; 3];
    let mut mean_unblocked = 0.0f64;
    for k in 0..cfg.queries as u64 {
        let seeds = distinct_seeds(cfg.n, k);
        // Budget-1 vertex blocking run once to report the shared baseline:
        // average_reached before any pick equals the unblocked spread, and
        // every family's estimator is exact on the same pool.
        let (probe, _) = solve(
            &graph,
            &pool,
            &seeds,
            1,
            Intervention::Prebunk { alpha: 1.0 },
            4,
        );
        let base = probe.estimated_spread.expect("baseline spread");
        mean_unblocked += base / cfg.queries as f64;
        for (fi, (label, intervention)) in families.iter().enumerate() {
            let mut prev = f64::INFINITY;
            for (bi, &budget) in BUDGETS.iter().enumerate() {
                let (sel, secs) = solve(&graph, &pool, &seeds, budget, *intervention, 4);
                let spread = sel.estimated_spread.expect("exact pooled spread");
                // Determinism gate: bit-identical at 1 thread.
                let (again, _) = solve(&graph, &pool, &seeds, budget, *intervention, 1);
                assert_eq!(
                    (
                        sel.blockers.clone(),
                        sel.blocked_edges.clone(),
                        spread.to_bits()
                    ),
                    (
                        again.blockers,
                        again.blocked_edges,
                        again.estimated_spread.expect("spread").to_bits()
                    ),
                    "{label} selection diverged across thread counts (q{k} b={budget})"
                );
                assert!(
                    spread <= prev + 1e-9,
                    "{label} spread increased with budget (q{k} b={budget}: {spread} > {prev})"
                );
                assert!(
                    spread <= base + 1e-9,
                    "{label} spread exceeds the unblocked baseline (q{k} b={budget})"
                );
                prev = spread;
                mean_spread[fi][bi] += spread / cfg.queries as f64;
                mean_ms[fi][bi] += secs * 1e3 / cfg.queries as f64;
            }
        }
        eprintln!("q{k}: baseline {base:.2} done");
    }

    for (fi, (label, _)) in families.iter().enumerate() {
        eprintln!(
            "{label:>8}: spreads {:?} (budgets {BUDGETS:?})",
            mean_spread[fi].map(|s| (s * 100.0).round() / 100.0)
        );
    }

    // ---- Emit BENCH_PR10.json ---------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_PR10.json");
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 10,\n");
    json.push_str("  \"benchmark\": \"intervention_families_vs_budget\",\n");
    json.push_str("  \"description\": \"blocked spread vs budget for vertex blocking, edge blocking and prebunking, all through AdvancedGreedy on one shared forward pool so every family is judged by the same theta WC realisations (bench_pr10, in-process)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {}, \"edges\": {edges} }},\n",
        cfg.n
    ));
    json.push_str(&format!(
        "  \"theta\": {}, \"queries\": {}, \"alpha\": {}, \"smoke\": {},\n",
        cfg.theta, cfg.queries, cfg.alpha, cfg.smoke
    ));
    json.push_str(&format!(
        "  \"budgets\": [{}],\n",
        BUDGETS
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"mean_unblocked_spread\": {mean_unblocked:.3},\n"
    ));
    json.push_str("  \"mean_blocked_spread\": {\n");
    for (fi, (label, _)) in families.iter().enumerate() {
        let comma = if fi + 1 < families.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{label}\": [{}]{comma}\n",
            list(&mean_spread[fi])
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"mean_select_ms\": {\n");
    for (fi, (label, _)) in families.iter().enumerate() {
        let comma = if fi + 1 < families.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{label}\": [{}]{comma}\n",
            list(&mean_ms[fi])
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"methodology\": \"{} globally-distinct two-seed questions on one WC graph; pool RNG seed 7; budgets swept over {:?} for each family through the same AdvancedGreedy entry point; reported spreads are the exact residual average_reached over the shared pool; every selection re-solved at 1 thread and asserted bit-identical; prebunk uses alpha={} and the unblocked baseline is the alpha=1.0 no-op evaluation\"\n",
        cfg.queries, BUDGETS, cfg.alpha
    ));
    json.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR10.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR10.json");
    println!("wrote {}", path.display());
}
