//! The paper's experiments. Each function below regenerates one table or
//! figure of §VI, and [`ARTEFACTS`] names the grids `run_all <name>` runs
//! them on. An artefact writes no file: it hands each finished table to a
//! [`Sink`], and `run_all` prints and writes what it receives.

use crate::{
    algorithms_from_env, draw_seeds, fmt_secs, paper_models, prepare_instance, BenchSettings, Table,
};
use imin_core::exact_blocker::{exact_blocker_search, ExactSearchConfig, SpreadEvaluator};
use imin_core::triggering::{evaluate_triggering_spread, greedy_replace_triggering};
use imin_core::{Algorithm, AlgorithmConfig, ImninProblem};
use imin_datasets::extract::extract_many;
use imin_datasets::toy::{figure1_graph, V};
use imin_datasets::{Dataset, DatasetScale};
use imin_diffusion::triggering::LtTriggering;
use imin_diffusion::ProbabilityModel;
use std::time::Instant;

/// Receives each finished table with the heading line printed above it
/// and its CSV file stem (`run_all` writes `target/experiments/<csv>.csv`).
pub type Sink<'a> = &'a mut dyn FnMut(&str, &str, Table);

/// Runs one artefact's grid, handing each table to the sink.
pub type Run = fn(&BenchSettings, Sink);

/// Every artefact `run_all <name>` regenerates, by name, in paper order.
pub const ARTEFACTS: &[(&str, Run)] = &[
    ("table3_toy", |_, sink| {
        let heading = "== Table III: toy graph of Figure 1 ==";
        sink(heading, "table3_toy", table3_toy())
    }),
    ("table5_exact_tr", |s, sink| {
        let heading = "== Table V: Exact vs GreedyReplace (TR model) ==";
        sink(heading, "table5_exact_tr", exact_vs_gr(tr(s), s))
    }),
    ("table6_exact_wc", |s, sink| {
        let heading = "== Table VI: Exact vs GreedyReplace (WC model) ==";
        sink(heading, "table6_exact_wc", exact_vs_gr(WC, s))
    }),
    ("table7_heuristics", table7_heuristics),
    ("fig5_theta_effectiveness", |s, sink| {
        let heading = "== Figure 5: spread vs number of sampled graphs θ ==";
        let table = theta_sweep(s, &default_thetas(s), 20);
        sink(heading, "fig5_theta_effectiveness", table)
    }),
    // The same sweep as Figure 5: its time column is this figure.
    ("fig6_theta_time", |s, sink| {
        let heading = "== Figure 6: running time vs number of sampled graphs θ ==";
        let table = theta_sweep(s, &default_thetas(s), 20);
        sink(heading, "fig6_theta_time", table)
    }),
    ("fig7_time_tr", |s, sink| {
        let heading = "== Figure 7: time cost of BG / AG / GR (TR model, b = 10) ==";
        sink(heading, "fig7_time_tr", time_comparison(tr(s), s))
    }),
    ("fig8_time_wc", |s, sink| {
        let heading = "== Figure 8: time cost of BG / AG / GR (WC model, b = 10) ==";
        sink(heading, "fig8_time_wc", time_comparison(WC, s))
    }),
    ("fig9_budget", fig9_budget),
    ("fig10_seeds_tr", |s, sink| {
        let heading = "== Figure 10: running time vs number of seeds (TR model) ==";
        let table = seeds_scalability(tr(s), &[1, 10, 100, 1000], s);
        sink(heading, "fig10_seeds_tr", table)
    }),
    ("fig11_seeds_wc", |s, sink| {
        let heading = "== Figure 11: running time vs number of seeds (WC model) ==";
        let table = seeds_scalability(WC, &[1, 10, 100, 1000], s);
        sink(heading, "fig11_seeds_wc", table)
    }),
    ("ext_triggering", |s, sink| {
        let heading = "== Extension (§V-E): GreedyReplace under the LT triggering model ==";
        sink(heading, "ext_triggering", triggering_extension(s))
    }),
];

/// Looks up every name in [`ARTEFACTS`], in order, so that a bad name is
/// refused before anything runs.
///
/// # Errors
/// Names the first unknown argument and lists every valid name.
pub fn artefacts_named(names: &[String]) -> Result<Vec<(&'static str, Run)>, String> {
    names
        .iter()
        .map(|name| {
            let found = ARTEFACTS.iter().find(|(known, _)| known == name);
            found.copied().ok_or_else(|| {
                let valid: Vec<&str> = ARTEFACTS.iter().map(|(known, _)| *known).collect();
                let valid = valid.join(", ");
                format!("unknown artefact `{name}`; valid names: {valid}")
            })
        })
        .collect()
}

const WC: ProbabilityModel = ProbabilityModel::WeightedCascade;

fn tr(settings: &BenchSettings) -> ProbabilityModel {
    ProbabilityModel::Trivalency {
        seed: settings.seed,
    }
}

/// Table VII on every dataset under both models. `IMIN_ALGS` picks the
/// columns by any spelling the [`Algorithm`] registry accepts (default
/// RA / OD / AG / GR, e.g. `IMIN_ALGS=ra,pagerank,degree,gr`), and
/// `IMIN_BUDGETS` the comma-separated budgets (default 20..=100 in steps
/// of 20).
fn table7_heuristics(settings: &BenchSettings, sink: Sink) {
    let algorithms = algorithms_from_env("IMIN_ALGS", TABLE7_DEFAULT_ALGS);
    let budgets: Vec<usize> = std::env::var("IMIN_BUDGETS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![20, 40, 60, 80, 100]);
    let labels = algorithms.iter().map(|a| a.label()).collect::<Vec<_>>();
    for model in paper_models(settings.seed) {
        let m = model.label();
        let heading = format!("== Table VII ({m} model): {} ==", labels.join(" / "));
        let csv = format!("table7_heuristics_{}", m.to_lowercase());
        let table = heuristics_comparison(model, &budgets, &algorithms, settings);
        sink(&heading, &csv, table);
    }
}

/// Figure 9 on the Facebook and DBLP stand-ins under both models.
fn fig9_budget(settings: &BenchSettings, sink: Sink) {
    for model in paper_models(settings.seed) {
        for (dataset, budgets) in [
            (Dataset::Facebook, &[1, 100, 200, 300, 400][..]),
            (Dataset::Dblp, &[1, 20, 40, 60, 80, 100][..]),
        ] {
            let (name, abbrev, m) = (dataset.spec().name, dataset.spec().abbrev, model.label());
            let heading = format!("== Figure 9: running time vs budget ({name} under {m}) ==");
            let csv = format!("fig9_budget_{}_{}", abbrev.to_lowercase(), m.to_lowercase());
            let table = budget_sweep(dataset, model, budgets, settings);
            sink(&heading, &csv, table);
        }
    }
}

/// Table III: the toy graph of Figure 1 — Greedy (AG), OutNeighbors and
/// GreedyReplace for budgets 1 and 2, with exactly computed spreads.
pub fn table3_toy() -> Table {
    let (graph, seed) = figure1_graph();
    let problem = ImninProblem::new(&graph, vec![seed]).expect("toy problem");
    let config = AlgorithmConfig::fast_for_tests().with_theta(2_000);
    let mut table = Table::new(&["algorithm", "b", "blockers", "expected_spread"]);
    for b in [1usize, 2] {
        for (label, algorithm) in [
            ("Greedy", Algorithm::AdvancedGreedy),
            ("OutNeighbors", Algorithm::OutNeighbors),
            ("GreedyReplace", Algorithm::GreedyReplace),
        ] {
            let sel = problem.solve(algorithm, b, &config).expect("toy run");
            let spread = problem
                .evaluate_spread_exact(&sel.blockers, 20)
                .expect("toy evaluation");
            let blockers = sel
                .blockers
                .iter()
                .map(|v| format!("v{}", v.index() + 1))
                .collect::<Vec<_>>()
                .join("+");
            table.add_row(vec![
                label.to_string(),
                b.to_string(),
                blockers,
                format!("{spread:.2}"),
            ]);
        }
    }
    // Sanity anchor from Example 1: blocking v5 leaves a spread of 3.
    let mask_spread = problem
        .evaluate_spread_exact(&[V(5)], 20)
        .expect("toy evaluation");
    table.add_row(vec![
        "paper anchor: block v5".into(),
        "1".into(),
        "v5".into(),
        format!("{mask_spread:.2}"),
    ]);
    table
}

/// Tables V and VI: Exact vs GreedyReplace on ~100-vertex extracts of
/// EmailCore, budgets 1..=4, under the given probability model.
pub fn exact_vs_gr(model: ProbabilityModel, settings: &BenchSettings) -> Table {
    let (topology, _) = Dataset::EmailCore
        .load_or_generate(DatasetScale::Tiny)
        .expect("dataset");
    let graph = model.apply(&topology).expect("probability model");
    let extracts = extract_many(&graph, 3, 60, settings.seed).expect("extraction");
    let config = settings.algorithm_config();
    // Scaled from the soft timeout like `time_comparison`'s budget: the
    // default 120 s keeps the paper-run cap of 500 000 combinations, and a
    // budget whose search space exceeds it is skipped.
    let max_combinations = 500_000 * settings.timeout.as_secs().max(1) / 120;
    let mut table = Table::new(&[
        "b",
        "exact_spread",
        "gr_spread",
        "ratio_%",
        "exact_time_s",
        "gr_time_s",
    ]);
    for b in 1..=4usize {
        let mut exact_spread = 0.0;
        let mut gr_spread = 0.0;
        let mut exact_time = 0.0;
        let mut gr_time = 0.0;
        let mut used = 0usize;
        for extract in &extracts {
            let g = &extract.graph;
            let seeds = draw_seeds(g, 1, settings.seed);
            let problem = match ImninProblem::new(g, seeds.clone()) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let merged = problem.merged();
            let forbidden: Vec<bool> = (0..merged.graph.num_vertices())
                .map(|i| !merged.is_valid_blocker(imin_graph::VertexId::new(i)))
                .collect();
            // Exact search with Monte-Carlo evaluation (the paper's Exact).
            let t0 = Instant::now();
            let exact = exact_blocker_search(
                &merged.graph,
                merged.super_seed,
                &forbidden,
                b,
                &ExactSearchConfig {
                    max_combinations,
                    evaluator: SpreadEvaluator::MonteCarlo {
                        rounds: settings.mcs_rounds.min(500),
                    },
                    threads: config.threads,
                    seed: settings.seed,
                },
            );
            let exact = match exact {
                Ok(sel) => sel,
                Err(_) => continue,
            };
            exact_time += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let gr = problem
                .solve(Algorithm::GreedyReplace, b, &config)
                .expect("GR run");
            gr_time += t1.elapsed().as_secs_f64();
            exact_spread += problem
                .evaluate_spread(&exact.blockers, settings.mcs_rounds, settings.seed)
                .expect("evaluation");
            gr_spread += problem
                .evaluate_spread(&gr.blockers, settings.mcs_rounds, settings.seed)
                .expect("evaluation");
            used += 1;
        }
        if used == 0 {
            continue;
        }
        let (e, g) = (exact_spread / used as f64, gr_spread / used as f64);
        table.add_row(vec![
            b.to_string(),
            format!("{e:.3}"),
            format!("{g:.3}"),
            format!("{:.2}", 100.0 * e / g.max(1e-9)),
            format!("{:.3}", exact_time / used as f64),
            format!("{:.3}", gr_time / used as f64),
        ]);
    }
    table
}

/// Figures 5 and 6: effect of θ on GreedyReplace quality and running time.
/// One row per (dataset, θ) with the evaluated spread and the wall-clock
/// selection time.
pub fn theta_sweep(settings: &BenchSettings, thetas: &[usize], budget: usize) -> Table {
    let mut table = Table::new(&["dataset", "theta", "spread", "time_s"]);
    for &dataset in Dataset::all() {
        let instance = prepare_instance(
            dataset,
            ProbabilityModel::Trivalency {
                seed: settings.seed,
            },
            settings,
        );
        for &theta in thetas {
            let mut s = settings.clone();
            s.theta = theta;
            let run = crate::run_algorithm(&instance, Algorithm::GreedyReplace, budget, &s);
            table.add_row(vec![
                dataset.spec().abbrev.to_string(),
                theta.to_string(),
                format!("{:.3}", run.spread),
                fmt_secs(run.elapsed),
            ]);
        }
    }
    table
}

/// Table VII: expected spread of the given algorithms (default RA / OD /
/// AG / GR) for several budgets on every dataset under one probability
/// model. The algorithm list comes straight from the [`Algorithm`]
/// registry, so callers select columns by name (`IMIN_ALGS`) instead of a
/// hard-coded match.
pub fn heuristics_comparison(
    model: ProbabilityModel,
    budgets: &[usize],
    algorithms: &[Algorithm],
    settings: &BenchSettings,
) -> Table {
    let mut headers = vec!["dataset", "model", "b"];
    headers.extend(algorithms.iter().map(|a| a.label()));
    let mut table = Table::new(&headers);
    for &dataset in Dataset::all() {
        let instance = prepare_instance(dataset, model, settings);
        for &b in budgets {
            let mut cells = vec![
                dataset.spec().abbrev.to_string(),
                instance.model.to_string(),
                b.to_string(),
            ];
            for &algorithm in algorithms {
                let run = crate::run_algorithm(&instance, algorithm, b, settings);
                cells.push(format!("{:.3}", run.spread));
            }
            table.add_row(cells);
        }
    }
    table
}

/// The Table VII default column set: Rand, OutDegree, AdvancedGreedy,
/// GreedyReplace.
pub const TABLE7_DEFAULT_ALGS: &str = "ra,od,ag,gr";

/// Figures 7 and 8: selection time of BG / AG / GR with budget 10.
///
/// BaselineGreedy is only attempted when its estimated cost
/// (`b · n · r` cascade simulations) stays below a threshold derived from
/// the soft timeout; otherwise the row reports `TIMEOUT`, mirroring the
/// ">24h" entries of the paper.
pub fn time_comparison(model: ProbabilityModel, settings: &BenchSettings) -> Table {
    let budget = 10usize;
    let bg_rounds = settings.mcs_rounds.min(500);
    let mut table = Table::new(&["dataset", "model", "BG_time_s", "AG_time_s", "GR_time_s"]);
    for &dataset in Dataset::all() {
        let instance = prepare_instance(dataset, model, settings);
        let n = instance.problem.graph().num_vertices();
        let bg_cell = {
            let estimated_cascades = budget as u64 * n as u64 * bg_rounds as u64;
            let limit = 8_000_000u64 * settings.timeout.as_secs().max(1) / 120;
            if estimated_cascades <= limit {
                let mut s = settings.clone();
                s.mcs_rounds = bg_rounds;
                let run = crate::run_algorithm(&instance, Algorithm::BaselineGreedy, budget, &s);
                format!("{} (r={bg_rounds})", fmt_secs(run.elapsed))
            } else {
                "TIMEOUT".to_string()
            }
        };
        let ag = crate::run_algorithm(&instance, Algorithm::AdvancedGreedy, budget, settings);
        let gr = crate::run_algorithm(&instance, Algorithm::GreedyReplace, budget, settings);
        table.add_row(vec![
            dataset.spec().abbrev.to_string(),
            instance.model.to_string(),
            bg_cell,
            fmt_secs(ag.elapsed),
            fmt_secs(gr.elapsed),
        ]);
    }
    table
}

/// Figure 9: running time of AG and GR as the budget grows, on one dataset.
pub fn budget_sweep(
    dataset: Dataset,
    model: ProbabilityModel,
    budgets: &[usize],
    settings: &BenchSettings,
) -> Table {
    let instance = prepare_instance(dataset, model, settings);
    let mut table = Table::new(&["dataset", "model", "b", "AG_time_s", "GR_time_s"]);
    for &b in budgets {
        let ag = crate::run_algorithm(&instance, Algorithm::AdvancedGreedy, b, settings);
        let gr = crate::run_algorithm(&instance, Algorithm::GreedyReplace, b, settings);
        table.add_row(vec![
            dataset.spec().abbrev.to_string(),
            instance.model.to_string(),
            b.to_string(),
            fmt_secs(ag.elapsed),
            fmt_secs(gr.elapsed),
        ]);
    }
    table
}

/// Figures 10 and 11: GreedyReplace running time as the number of seeds
/// grows (1, 10, 100, 1000), with budget 100.
pub fn seeds_scalability(
    model: ProbabilityModel,
    seed_counts: &[usize],
    settings: &BenchSettings,
) -> Table {
    let budget = 100usize;
    let mut table = Table::new(&["dataset", "model", "num_seeds", "GR_time_s", "spread"]);
    for &dataset in Dataset::all() {
        let (topology, _) = dataset
            .load_or_generate(settings.scale)
            .expect("dataset generation");
        let graph = model.apply(&topology).expect("probability model");
        for &k in seed_counts {
            let k = k.min(graph.num_vertices() / 2);
            let seeds = draw_seeds(&graph, k, settings.seed ^ k as u64);
            let problem = ImninProblem::new(&graph, seeds).expect("problem");
            let config = settings.algorithm_config();
            let start = Instant::now();
            let sel = problem
                .solve(Algorithm::GreedyReplace, budget, &config)
                .expect("GR run");
            let elapsed = start.elapsed();
            let spread = problem
                .evaluate_spread(&sel.blockers, settings.mcs_rounds, settings.seed)
                .expect("evaluation");
            table.add_row(vec![
                dataset.spec().abbrev.to_string(),
                model.label().to_string(),
                k.to_string(),
                fmt_secs(elapsed),
                format!("{spread:.3}"),
            ]);
        }
    }
    table
}

/// §V-E extension: GreedyReplace under the LT triggering model on the toy
/// graph and the EmailCore stand-in, reporting spread before/after blocking.
pub fn triggering_extension(settings: &BenchSettings) -> Table {
    let mut table = Table::new(&["graph", "model", "b", "spread_before", "spread_after"]);
    let config = settings.algorithm_config();
    let mut run = |name: &str,
                   graph: &imin_graph::DiGraph,
                   seed: imin_graph::VertexId,
                   b: usize| {
        let forbidden: Vec<bool> = (0..graph.num_vertices())
            .map(|i| i == seed.index())
            .collect();
        let sel = greedy_replace_triggering(&LtTriggering, graph, seed, &forbidden, b, &config)
            .expect("triggering GR");
        let before =
            evaluate_triggering_spread(&LtTriggering, graph, &[seed], &[], 4_000, settings.seed)
                .expect("evaluation");
        let after = evaluate_triggering_spread(
            &LtTriggering,
            graph,
            &[seed],
            &sel.blockers,
            4_000,
            settings.seed,
        )
        .expect("evaluation");
        table.add_row(vec![
            name.to_string(),
            "LT".to_string(),
            b.to_string(),
            format!("{before:.3}"),
            format!("{after:.3}"),
        ]);
    };
    let (toy, toy_seed) = figure1_graph();
    run("figure1-toy", &toy, toy_seed, 2);
    let (ec, _) = Dataset::EmailCore
        .load_or_generate(DatasetScale::Tiny)
        .expect("dataset");
    let ec = ProbabilityModel::WeightedCascade.apply(&ec).expect("WC");
    let ec_seed = draw_seeds(&ec, 1, settings.seed)[0];
    run("email-core(tiny)", &ec, ec_seed, 10);
    table
}

/// The θ grid of Figures 5 and 6: a tenth of, equal to, and ten times the
/// configured θ.
pub fn default_thetas(settings: &BenchSettings) -> Vec<usize> {
    vec![
        (settings.theta / 10).max(10),
        settings.theta,
        settings.theta * 10,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_settings() -> BenchSettings {
        BenchSettings {
            scale: DatasetScale::Tiny,
            theta: 100,
            mcs_rounds: 150,
            num_seeds: 2,
            timeout: Duration::from_secs(5),
            seed: 11,
        }
    }

    #[test]
    fn toy_table_matches_paper_values() {
        let table = table3_toy();
        let rendered = table.render();
        // GreedyReplace with b = 2 must reach the optimum spread of 1.00.
        assert!(rendered.contains("GreedyReplace"));
        assert!(
            rendered.contains("3.00"),
            "blocking v5 leaves spread 3:\n{rendered}"
        );
        assert!(
            rendered.contains("1.00"),
            "b=2 optimum is spread 1:\n{rendered}"
        );
    }

    #[test]
    fn exact_vs_gr_produces_rows_with_ratio_near_100() {
        let table = exact_vs_gr(ProbabilityModel::WeightedCascade, &tiny_settings());
        let rendered = table.render();
        assert!(
            rendered.lines().count() > 2,
            "no rows produced:\n{rendered}"
        );
    }

    #[test]
    fn triggering_extension_reduces_spread() {
        let table = triggering_extension(&tiny_settings());
        let rendered = table.render();
        assert!(rendered.contains("figure1-toy"));
        assert!(rendered.contains("LT"));
    }

    /// The names of the per-artefact binaries `run_all <name>` replaced.
    const RETIRED_BINARIES: [&str; 12] = [
        "table3_toy",
        "table5_exact_tr",
        "table6_exact_wc",
        "table7_heuristics",
        "fig5_theta_effectiveness",
        "fig6_theta_time",
        "fig7_time_tr",
        "fig8_time_wc",
        "fig9_budget",
        "fig10_seeds_tr",
        "fig11_seeds_wc",
        "ext_triggering",
    ];

    #[test]
    fn artefact_names_are_unique_and_those_of_the_retired_binaries() {
        let mut names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
        let mut retired = RETIRED_BINARIES.to_vec();
        names.sort_unstable();
        names.dedup();
        retired.sort_unstable();
        assert_eq!(names.len(), ARTEFACTS.len(), "duplicate artefact name");
        assert_eq!(names, retired);
    }

    #[test]
    fn names_resolve_in_order_and_an_unknown_one_lists_them_all() {
        let args = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let found = artefacts_named(&args(&["fig9_budget", "table3_toy"])).unwrap();
        let found: Vec<&str> = found.iter().map(|(name, _)| *name).collect();
        assert_eq!(found, ["fig9_budget", "table3_toy"]);
        assert!(artefacts_named(&[]).unwrap().is_empty());

        let err = artefacts_named(&args(&["table3_toy", "no_such_artefact"])).err();
        let err = err.expect("an unknown name is refused");
        assert!(err.contains("`no_such_artefact`"), "{err}");
        for name in RETIRED_BINARIES {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn table3_entry_renders_the_toy_table() {
        let (_, run) = artefacts_named(&["table3_toy".to_string()]).unwrap()[0];
        let mut outputs = Vec::new();
        run(&tiny_settings(), &mut |heading, csv, table| {
            outputs.push((heading.to_string(), csv.to_string(), table.render()))
        });
        let heading = "== Table III: toy graph of Figure 1 ==".to_string();
        let expected = (heading, "table3_toy".to_string(), table3_toy().render());
        assert_eq!(outputs, [expected]);
    }

    #[test]
    fn default_thetas_are_increasing() {
        let t = default_thetas(&tiny_settings());
        assert!(t[0] < t[1] && t[1] < t[2]);
    }
}
