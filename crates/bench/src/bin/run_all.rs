//! Regenerates the paper's evaluation (§VI): paper-style tables on stdout
//! and CSVs under `target/experiments/`.
//!
//! `run_all <artefact>...` runs each named table or figure on its full
//! grid; the names are those of `imin_bench::experiments::ARTEFACTS`, and
//! an unknown one is refused before anything runs. With no argument it
//! runs every experiment in sequence (toy table, exact comparison, θ
//! sweep, heuristics table, timing figures, budget/seed scalability,
//! triggering extension) on smaller budget and seed grids, intended for
//! `IMIN_SCALE=tiny` smoke runs.
//!
//! `IMIN_ALGS` selects the heuristics-table columns by registry name, as
//! in `run_all table7_heuristics`.
use imin_bench::experiments::TABLE7_DEFAULT_ALGS;
use imin_bench::{algorithms_from_env, paper_models, BenchSettings};
use imin_datasets::Dataset;
use imin_diffusion::ProbabilityModel;
fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let artefacts = imin_bench::experiments::artefacts_named(&names).unwrap_or_else(|err| {
        eprintln!("run_all: {err}");
        std::process::exit(2);
    });
    let settings = BenchSettings::from_env();
    if !artefacts.is_empty() {
        for (_, run) in artefacts {
            run(&settings, &mut |heading, csv, table| {
                println!("{heading}");
                table.emit(csv);
            });
        }
        return;
    }
    let algorithms = algorithms_from_env("IMIN_ALGS", TABLE7_DEFAULT_ALGS);
    println!("settings: {settings:?}\n");
    imin_bench::experiments::table3_toy().emit("table3_toy");
    imin_bench::experiments::exact_vs_gr(
        ProbabilityModel::Trivalency {
            seed: settings.seed,
        },
        &settings,
    )
    .emit("table5_exact_tr");
    imin_bench::experiments::exact_vs_gr(ProbabilityModel::WeightedCascade, &settings)
        .emit("table6_exact_wc");
    let thetas = imin_bench::experiments::default_thetas(&settings);
    imin_bench::experiments::theta_sweep(&settings, &thetas, 20).emit("fig5_6_theta");
    for model in paper_models(settings.seed) {
        imin_bench::experiments::heuristics_comparison(
            model,
            &[20, 60, 100],
            &algorithms,
            &settings,
        )
        .emit(&format!(
            "table7_heuristics_{}",
            model.label().to_lowercase()
        ));
        imin_bench::experiments::time_comparison(model, &settings)
            .emit(&format!("fig7_8_time_{}", model.label().to_lowercase()));
        imin_bench::experiments::budget_sweep(
            Dataset::Facebook,
            model,
            &[1, 20, 60, 100],
            &settings,
        )
        .emit(&format!("fig9_budget_f_{}", model.label().to_lowercase()));
        imin_bench::experiments::seeds_scalability(model, &[1, 10, 100], &settings)
            .emit(&format!("fig10_11_seeds_{}", model.label().to_lowercase()));
    }
    imin_bench::experiments::triggering_extension(&settings).emit("ext_triggering");
    println!(
        "all experiment CSVs written under {:?}",
        imin_bench::experiments_dir()
    );
}
