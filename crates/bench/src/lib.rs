//! # imin-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI). Its one binary, `run_all`, runs the artefacts of
//! [`experiments::ARTEFACTS`] by name (`run_all table3_toy`), printing
//! each paper-style table to stdout while also writing a CSV under
//! `target/experiments/`. The dataset stand-ins are described in the
//! `imin_datasets::catalog` docs.
//!
//! ## Knobs (environment variables)
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `IMIN_SCALE` | `tiny`, `bench`, `full`, or a fraction like `0.1` | `bench` |
//! | `IMIN_THETA` | θ, sampled graphs per greedy round | 2000 (tiny: 500) |
//! | `IMIN_MCS_ROUNDS` | Monte-Carlo rounds for evaluation | 2000 |
//! | `IMIN_SEEDS` | number of random misinformation seeds | 10 |
//! | `IMIN_SEED` | base RNG seed for seed sets, TR weights and algorithms | 20230227 |
//! | `IMIN_TIMEOUT_SECS` | per-algorithm-run soft timeout | 120 |
//! | `IMIN_DATA_DIR` | directory with real SNAP edge lists | unset (synthetic) |
//! | `IMIN_ALGS` | Table VII columns, any registry spelling | `ra,od,ag,gr` |
//! | `IMIN_BUDGETS` | Table VII budgets (`table7_heuristics` only) | `20,40,60,80,100` |
//!
//! A knob set to a value it cannot parse is refused, naming the knob and
//! the value, before anything runs (`run_all` exits 2); an empty value
//! counts as unset.
//!
//! The defaults are deliberately smaller than the paper's θ = r = 10⁴ /
//! 24-hour budget so the whole suite finishes on a laptop; pass
//! `IMIN_SCALE=full IMIN_THETA=10000 IMIN_MCS_ROUNDS=10000` to reproduce the
//! paper-scale setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use imin_core::{Algorithm, AlgorithmConfig, ImninProblem};
use imin_datasets::{Dataset, DatasetScale};
use imin_diffusion::ProbabilityModel;
use imin_graph::{DiGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Experiment-wide settings read from the environment.
#[derive(Clone, Debug)]
pub struct BenchSettings {
    /// Dataset scale used for stand-in generation.
    pub scale: DatasetScale,
    /// θ — sampled graphs per round.
    pub theta: usize,
    /// Monte-Carlo rounds for blocker-set evaluation.
    pub mcs_rounds: usize,
    /// Number of misinformation seeds drawn per run.
    pub num_seeds: usize,
    /// Soft per-run timeout: algorithms expected to exceed it are skipped
    /// and reported as `TIMEOUT`, mirroring the paper's ">24h" entries.
    pub timeout: Duration,
    /// Base RNG seed for seed-set selection and algorithms.
    pub seed: u64,
    /// Table VII budgets (`table7_heuristics`).
    pub budgets: Vec<usize>,
}

impl Default for BenchSettings {
    fn default() -> Self {
        BenchSettings::from_env()
    }
}

impl BenchSettings {
    /// Reads settings from the `IMIN_*` environment variables. A value
    /// that does not parse aborts the binary with exit code 2 and a
    /// message naming the knob and the value, instead of silently running
    /// a different experiment.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok()).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    /// Reads settings through `lookup`, which returns a knob's value or
    /// `None` when it is unset; an empty value counts as unset.
    ///
    /// # Errors
    /// A message naming the first knob whose value does not parse, and
    /// the value.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let knob = |name: &str| lookup(name).filter(|value| !value.trim().is_empty());
        let number = |name: &str, default: u64| match knob(name) {
            None => Ok(default),
            Some(value) => value
                .trim()
                .parse()
                .map_err(|_| format!("{name}={value:?} is not a non-negative integer")),
        };
        let scale = match knob("IMIN_SCALE") {
            None => DatasetScale::Bench,
            Some(value) => match value.trim() {
                "tiny" => DatasetScale::Tiny,
                "full" => DatasetScale::Full,
                "bench" => DatasetScale::Bench,
                other => match other.parse::<f64>() {
                    Ok(f) if f > 0.0 && f <= 1.0 => DatasetScale::Scaled(f),
                    _ => {
                        return Err(format!(
                            "IMIN_SCALE={value:?} is not tiny, bench, full or a fraction in (0, 1]"
                        ))
                    }
                },
            },
        };
        let tiny = matches!(scale, DatasetScale::Tiny);
        let budgets = match knob("IMIN_BUDGETS") {
            None => vec![20, 40, 60, 80, 100],
            Some(value) => parse_budgets(&value)
                .map_err(|token| format!("IMIN_BUDGETS={value:?}: {token:?} is not a budget"))?,
        };
        Ok(BenchSettings {
            scale,
            theta: number("IMIN_THETA", if tiny { 500 } else { 2_000 })? as usize,
            mcs_rounds: number("IMIN_MCS_ROUNDS", 2_000)? as usize,
            num_seeds: number("IMIN_SEEDS", 10)? as usize,
            timeout: Duration::from_secs(number("IMIN_TIMEOUT_SECS", 120)?),
            seed: number("IMIN_SEED", 20230227)?,
            budgets,
        })
    }

    /// The [`AlgorithmConfig`] derived from these settings.
    pub fn algorithm_config(&self) -> AlgorithmConfig {
        AlgorithmConfig::default()
            .with_theta(self.theta)
            .with_mcs_rounds(self.mcs_rounds)
            .with_seed(self.seed)
    }
}

/// Parses a comma-separated budget list (`"20, 40,60"`); the error is the
/// first token that is not a non-negative integer.
fn parse_budgets(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|token| token.trim().parse().map_err(|_| token.trim().to_string()))
        .collect()
}

/// Parses a comma-separated algorithm list (`"ra,od,ag,gr"`, any spelling
/// the [`Algorithm`] registry accepts) into algorithm kinds, preserving
/// order.
///
/// # Errors
/// Returns the registry's [`imin_core::IminError::UnknownAlgorithm`] for
/// the first unrecognised name.
pub fn parse_algorithms(spec: &str) -> Result<Vec<Algorithm>, imin_core::IminError> {
    spec.split(',')
        .map(str::trim)
        .filter(|token| !token.is_empty())
        .map(str::parse)
        .collect()
}

/// Reads an algorithm list from the environment variable `var`, falling
/// back to `default`. Every spelling resolves through the one
/// [`Algorithm`] registry; an unknown name aborts the binary with the
/// registry's error (listing every accepted name) instead of silently
/// running the wrong comparison.
pub fn algorithms_from_env(var: &str, default: &str) -> Vec<Algorithm> {
    let spec = std::env::var(var).unwrap_or_else(|_| default.to_string());
    match parse_algorithms(&spec) {
        Ok(algorithms) if !algorithms.is_empty() => algorithms,
        Ok(_) => parse_algorithms(default).expect("default algorithm list is valid"),
        Err(err) => {
            eprintln!("{var}: {err}");
            std::process::exit(2);
        }
    }
}

/// A dataset prepared for one experiment: probability model applied, seeds
/// drawn, problem constructed.
pub struct PreparedInstance {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// The probability-model label (`TR` / `WC`).
    pub model: &'static str,
    /// Whether real SNAP data was used instead of the synthetic stand-in.
    pub real_data: bool,
    /// The ready-to-solve problem instance.
    pub problem: ImninProblem,
}

/// Draws `count` seed vertices with positive out-degree, uniformly at random
/// (the paper "randomly selects 10 vertices as the seeds").
pub fn draw_seeds(graph: &DiGraph, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seeds = Vec::with_capacity(count);
    let mut guard = 0usize;
    while seeds.len() < count && guard < 100 * (count + 1) {
        guard += 1;
        let v = VertexId::new(rng.gen_range(0..graph.num_vertices()));
        if graph.out_degree(v) > 0 && !seeds.contains(&v) {
            seeds.push(v);
        }
    }
    // Fall back to arbitrary vertices if the graph has very few sources.
    let mut next = 0usize;
    while seeds.len() < count && next < graph.num_vertices() {
        let v = VertexId::new(next);
        if !seeds.contains(&v) {
            seeds.push(v);
        }
        next += 1;
    }
    seeds
}

/// Loads (or synthesises) a dataset, applies the probability model and draws
/// the seed set.
pub fn prepare_instance(
    dataset: Dataset,
    model: ProbabilityModel,
    settings: &BenchSettings,
) -> PreparedInstance {
    let (topology, real_data) = dataset
        .load_or_generate(settings.scale)
        .expect("dataset generation cannot fail with valid settings");
    let graph = model
        .apply(&topology)
        .expect("probability models produce valid probabilities");
    let seeds = draw_seeds(&graph, settings.num_seeds, settings.seed ^ 0x5EED);
    let problem = ImninProblem::new(&graph, seeds).expect("seeds are valid by construction");
    PreparedInstance {
        dataset,
        model: model.label(),
        real_data,
        problem,
    }
}

/// The two probability models of §VI-A, with deterministic TR assignment.
pub fn paper_models(seed: u64) -> [ProbabilityModel; 2] {
    [
        ProbabilityModel::Trivalency { seed },
        ProbabilityModel::WeightedCascade,
    ]
}

/// Result of timing a single algorithm run.
#[derive(Clone, Debug)]
pub struct TimedRun {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Selected blockers.
    pub blockers: Vec<VertexId>,
    /// Evaluated expected spread (Monte-Carlo on the original graph).
    pub spread: f64,
    /// Wall-clock selection time.
    pub elapsed: Duration,
}

/// Runs one algorithm and evaluates its blocker set.
pub fn run_algorithm(
    instance: &PreparedInstance,
    algorithm: Algorithm,
    budget: usize,
    settings: &BenchSettings,
) -> TimedRun {
    let config = settings.algorithm_config();
    let start = Instant::now();
    let selection = instance
        .problem
        .solve(algorithm, budget, &config)
        .expect("algorithm run failed");
    let elapsed = start.elapsed();
    let spread = instance
        .problem
        .evaluate_spread(
            &selection.blockers,
            settings.mcs_rounds,
            settings.seed ^ 0xE7A1,
        )
        .expect("evaluation failed");
    TimedRun {
        algorithm: algorithm.label(),
        blockers: selection.blockers,
        spread,
        elapsed,
    }
}

/// Simple fixed-width table printer for paper-style output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and writes it as CSV under
    /// `target/experiments/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        if let Err(err) = self.write_csv(name) {
            eprintln!("warning: could not write CSV for {name}: {err}");
        }
    }

    /// Writes the table as a CSV file and returns its path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = experiments_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_have_sane_defaults() {
        let s = BenchSettings::from_env();
        assert!(s.theta > 0);
        assert!(s.mcs_rounds > 0);
        assert!(s.num_seeds > 0);
        let cfg = s.algorithm_config();
        assert_eq!(cfg.theta, s.theta);
    }

    /// Settings read from a fixed table of knobs, not the process
    /// environment, so tests running in parallel cannot race.
    fn settings(knobs: &[(&str, &str)]) -> Result<BenchSettings, String> {
        let knobs: std::collections::HashMap<String, String> = knobs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        BenchSettings::from_lookup(|name| knobs.get(name).cloned())
    }

    #[test]
    fn knobs_parse_or_are_refused_by_name() {
        let s = settings(&[]).unwrap();
        assert!(matches!(s.scale, DatasetScale::Bench));
        assert_eq!((s.theta, s.mcs_rounds, s.num_seeds), (2_000, 2_000, 10));
        assert_eq!((s.timeout.as_secs(), s.seed), (120, 20230227));
        assert_eq!(s.budgets, vec![20, 40, 60, 80, 100]);
        let s = settings(&[
            ("IMIN_SCALE", "tiny"),
            ("IMIN_MCS_ROUNDS", " 300 "),
            ("IMIN_SEED", "18446744073709551615"),
            ("IMIN_BUDGETS", "20, 40,60"),
            ("IMIN_SEEDS", ""),
        ])
        .unwrap();
        assert!(matches!(s.scale, DatasetScale::Tiny));
        assert_eq!((s.theta, s.mcs_rounds, s.num_seeds), (500, 300, 10));
        assert_eq!((s.seed, s.budgets), (u64::MAX, vec![20, 40, 60]));
        assert!(matches!(
            settings(&[("IMIN_SCALE", "0.25")]).unwrap().scale,
            DatasetScale::Scaled(f) if f == 0.25
        ));
        for (knob, value) in [
            ("IMIN_SCALE", "huge"),
            ("IMIN_SCALE", "1.5"),
            ("IMIN_THETA", "2k"),
            ("IMIN_MCS_ROUNDS", "-1"),
            ("IMIN_SEEDS", "ten"),
            ("IMIN_TIMEOUT_SECS", "1.5"),
            ("IMIN_SEED", "0x5EED"),
            ("IMIN_BUDGETS", "20, 40,x"),
            ("IMIN_BUDGETS", "20,,40"),
        ] {
            let err = settings(&[(knob, value)]).unwrap_err();
            assert!(
                err.contains(knob) && err.contains(value),
                "{knob}={value}: {err}"
            );
        }
    }

    #[test]
    fn seed_drawing_prefers_spreaders() {
        let g = Dataset::EmailCore.generate(DatasetScale::Tiny).unwrap();
        let seeds = draw_seeds(&g, 5, 1);
        assert_eq!(seeds.len(), 5);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 5);
        for &s in &seeds {
            assert!(g.out_degree(s) > 0);
        }
    }

    #[test]
    fn prepare_and_run_a_small_instance() {
        let settings = BenchSettings {
            scale: DatasetScale::Tiny,
            theta: 100,
            mcs_rounds: 100,
            num_seeds: 2,
            timeout: Duration::from_secs(10),
            seed: 3,
            budgets: vec![1],
        };
        let instance = prepare_instance(
            Dataset::EmailCore,
            ProbabilityModel::Trivalency { seed: 1 },
            &settings,
        );
        assert_eq!(instance.model, "TR");
        let run = run_algorithm(&instance, Algorithm::OutDegree, 3, &settings);
        assert_eq!(run.blockers.len(), 3);
        assert!(run.spread >= settings.num_seeds as f64 - 1e-9);
    }

    #[test]
    fn table_rendering_and_csv() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.add_row(vec!["333".into(), "4".into()]);
        let rendered = t.render();
        assert!(rendered.contains("bbbb"));
        assert!(rendered.lines().count() >= 4);
        let path = t.write_csv("unit-test-table").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,bbbb"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn algorithm_lists_resolve_through_the_registry() {
        let algs = parse_algorithms("ra, od ,ag,gr").unwrap();
        assert_eq!(
            algs,
            vec![
                Algorithm::Random,
                Algorithm::OutDegree,
                Algorithm::AdvancedGreedy,
                Algorithm::GreedyReplace
            ]
        );
        assert_eq!(
            parse_algorithms("pagerank,degree").unwrap(),
            vec![Algorithm::PageRank, Algorithm::Degree]
        );
        assert!(parse_algorithms("ra,quantum").is_err());
    }

    #[test]
    fn paper_models_are_tr_and_wc() {
        let models = paper_models(1);
        assert_eq!(models[0].label(), "TR");
        assert_eq!(models[1].label(), "WC");
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
    }
}
