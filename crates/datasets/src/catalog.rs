//! The eight evaluation datasets of Table IV and their synthetic stand-ins.
//!
//! | Dataset | n | m | d_avg | d_max | Type |
//! |---|---|---|---|---|---|
//! | EmailCore | 1,005 | 25,571 | 49.6 | 544 | Directed |
//! | Facebook | 4,039 | 88,234 | 43.7 | 1,045 | Undirected |
//! | Wiki-Vote | 7,115 | 103,689 | 29.1 | 1,167 | Directed |
//! | EmailAll | 265,214 | 420,045 | 3.2 | 7,636 | Directed |
//! | DBLP | 317,080 | 1,049,866 | 6.6 | 343 | Undirected |
//! | Twitter | 81,306 | 1,768,149 | 59.5 | 10,336 | Directed |
//! | Stanford | 281,903 | 2,312,497 | 16.4 | 38,626 | Directed |
//! | Youtube | 1,134,890 | 2,987,624 | 5.3 | 28,754 | Undirected |
//!
//! The SNAP files themselves cannot be redistributed, so every dataset can be
//! **synthesised**: a preferential-attachment graph with the same vertex
//! count, edge count, orientation and a matching heavy-tailed degree skew,
//! generated deterministically from the dataset name. The experiment
//! harness records which source (synthetic or real file) was used.
//!
//! Real data: place the SNAP edge list at `$IMIN_DATA_DIR/<name>.txt`
//! (e.g. `email-core.txt`) and [`Dataset::load_or_generate`] will parse it
//! instead of synthesising.

use imin_graph::builder::SelfLoopPolicy;
use imin_graph::edgelist::{load_edge_list, EdgeListOptions};
use imin_graph::{generators, DiGraph, GraphError};
use std::path::PathBuf;

/// Identifier of one of the paper's eight datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// `email-Eu-core`: EU research-institution e-mail network.
    EmailCore,
    /// `ego-Facebook`: Facebook friendship circles (undirected).
    Facebook,
    /// `wiki-Vote`: Wikipedia adminship votes.
    WikiVote,
    /// `email-EuAll`: full EU e-mail network.
    EmailAll,
    /// `com-DBLP`: DBLP co-authorship network (undirected).
    Dblp,
    /// `ego-Twitter`: Twitter follower circles.
    Twitter,
    /// `web-Stanford`: Stanford web graph.
    Stanford,
    /// `com-Youtube`: Youtube friendships (undirected).
    Youtube,
}

/// How large a stand-in to generate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DatasetScale {
    /// The full Table IV size (up to ~3M edges — generation takes a while
    /// but is perfectly feasible on a laptop).
    Full,
    /// A proportionally shrunk instance with the same average degree and
    /// skew; the factor multiplies the vertex count (e.g. 0.05 = 5%).
    Scaled(f64),
    /// The default benchmark size: every dataset is capped at roughly
    /// 3,000–8,000 vertices while keeping its average degree, so the whole
    /// experiment suite runs in minutes.
    Bench,
    /// A tiny instance (a few hundred vertices) for unit tests.
    Tiny,
}

/// Static description of a dataset (the Table IV row).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Canonical short name used in file names and experiment output.
    pub name: &'static str,
    /// Abbreviation used on the x-axis of the paper's figures
    /// (EC, F, W, EA, D, T, S, Y).
    pub abbrev: &'static str,
    /// Number of vertices in the original dataset.
    pub num_vertices: usize,
    /// Number of edges in the original dataset (undirected edges counted
    /// once, as in Table IV).
    pub num_edges: usize,
    /// Whether the original dataset is directed.
    pub directed: bool,
}

impl Dataset {
    /// All eight datasets in the order of Table IV (by edge count).
    pub fn all() -> &'static [Dataset] {
        &[
            Dataset::EmailCore,
            Dataset::Facebook,
            Dataset::WikiVote,
            Dataset::EmailAll,
            Dataset::Dblp,
            Dataset::Twitter,
            Dataset::Stanford,
            Dataset::Youtube,
        ]
    }

    /// The small datasets on which even the Monte-Carlo baseline finishes.
    pub fn small() -> &'static [Dataset] {
        &[Dataset::EmailCore, Dataset::Facebook, Dataset::WikiVote]
    }

    /// The Table IV row for this dataset.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Dataset::EmailCore => DatasetSpec {
                name: "email-core",
                abbrev: "EC",
                num_vertices: 1_005,
                num_edges: 25_571,
                directed: true,
            },
            Dataset::Facebook => DatasetSpec {
                name: "facebook",
                abbrev: "F",
                num_vertices: 4_039,
                num_edges: 88_234,
                directed: false,
            },
            Dataset::WikiVote => DatasetSpec {
                name: "wiki-vote",
                abbrev: "W",
                num_vertices: 7_115,
                num_edges: 103_689,
                directed: true,
            },
            Dataset::EmailAll => DatasetSpec {
                name: "email-all",
                abbrev: "EA",
                num_vertices: 265_214,
                num_edges: 420_045,
                directed: true,
            },
            Dataset::Dblp => DatasetSpec {
                name: "dblp",
                abbrev: "D",
                num_vertices: 317_080,
                num_edges: 1_049_866,
                directed: false,
            },
            Dataset::Twitter => DatasetSpec {
                name: "twitter",
                abbrev: "T",
                num_vertices: 81_306,
                num_edges: 1_768_149,
                directed: true,
            },
            Dataset::Stanford => DatasetSpec {
                name: "stanford",
                abbrev: "S",
                num_vertices: 281_903,
                num_edges: 2_312_497,
                directed: true,
            },
            Dataset::Youtube => DatasetSpec {
                name: "youtube",
                abbrev: "Y",
                num_vertices: 1_134_890,
                num_edges: 2_987_624,
                directed: false,
            },
        }
    }

    /// Deterministic RNG seed derived from the dataset name.
    fn generation_seed(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.spec().name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Target (n, m) after applying a scale.
    pub fn scaled_size(&self, scale: DatasetScale) -> (usize, usize) {
        let spec = self.spec();
        let (n, m) = (spec.num_vertices as f64, spec.num_edges as f64);
        let factor = match scale {
            DatasetScale::Full => 1.0,
            DatasetScale::Scaled(f) => f.clamp(1e-4, 1.0),
            DatasetScale::Bench => {
                // Cap vertices at ~6000 but never scale *up*.
                (6_000.0 / n).min(1.0)
            }
            DatasetScale::Tiny => (400.0 / n).min(1.0),
        };
        let n_scaled = (n * factor).round().max(50.0) as usize;
        let m_scaled = (m * factor).round().max(100.0) as usize;
        (n_scaled, m_scaled)
    }

    /// Generates the synthetic stand-in at the requested scale.
    ///
    /// The generator is preferential attachment (bidirectional for the
    /// undirected datasets), which reproduces the heavy-tailed degree
    /// distribution the blocking algorithms are sensitive to. All edges get
    /// probability 1.0 — callers apply an `imin_diffusion::ProbabilityModel`
    /// (TR or WC) afterwards, exactly as the paper does.
    pub fn generate(&self, scale: DatasetScale) -> Result<DiGraph, GraphError> {
        let spec = self.spec();
        let (n, m) = self.scaled_size(scale);
        // Edges issued per arriving vertex so the total is close to m
        // (undirected stand-ins get reciprocal edges automatically, and
        // Table IV counts each undirected edge once, so no halving).
        let per_vertex = (m as f64 / n as f64).round().max(1.0) as usize;
        let per_vertex = per_vertex.min(n.saturating_sub(1).max(1));
        generators::preferential_attachment(
            n,
            per_vertex,
            !spec.directed,
            1.0,
            self.generation_seed(),
        )
    }

    /// Path under `IMIN_DATA_DIR` where a real SNAP edge list would live.
    pub fn data_file_path(&self) -> Option<PathBuf> {
        std::env::var_os("IMIN_DATA_DIR")
            .map(|dir| PathBuf::from(dir).join(format!("{}.txt", self.spec().name)))
    }

    /// Loads the real SNAP file if `IMIN_DATA_DIR` points at one, otherwise
    /// generates the synthetic stand-in. Returns the graph and whether real
    /// data was used.
    pub fn load_or_generate(&self, scale: DatasetScale) -> Result<(DiGraph, bool), GraphError> {
        if let Some(path) = self.data_file_path() {
            if path.exists() {
                let options = EdgeListOptions {
                    undirected: !self.spec().directed,
                    default_probability: 1.0,
                    self_loops: SelfLoopPolicy::Drop,
                    compact_ids: true,
                };
                let loaded = load_edge_list(&path, &options)?;
                return Ok((loaded.graph, true));
            }
        }
        Ok((self.generate(scale)?, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_graph::GraphStats;

    #[test]
    fn catalog_matches_table_iv() {
        assert_eq!(Dataset::all().len(), 8);
        let ec = Dataset::EmailCore.spec();
        assert_eq!(ec.num_vertices, 1_005);
        assert_eq!(ec.num_edges, 25_571);
        assert!(ec.directed);
        let yt = Dataset::Youtube.spec();
        assert_eq!(yt.num_vertices, 1_134_890);
        assert!(!yt.directed);
        // Abbreviations are unique.
        let mut abbrevs: Vec<_> = Dataset::all().iter().map(|d| d.spec().abbrev).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 8);
        assert_eq!(Dataset::small().len(), 3);
    }

    #[test]
    fn scaling_respects_caps_and_never_upscales() {
        let (n_full, m_full) = Dataset::EmailCore.scaled_size(DatasetScale::Full);
        assert_eq!(n_full, 1_005);
        assert_eq!(m_full, 25_571);
        let (n_bench, _) = Dataset::Youtube.scaled_size(DatasetScale::Bench);
        assert!(n_bench <= 6_000);
        let (n_bench_small, _) = Dataset::EmailCore.scaled_size(DatasetScale::Bench);
        assert_eq!(n_bench_small, 1_005, "small datasets are not shrunk");
        let (n_tiny, _) = Dataset::Twitter.scaled_size(DatasetScale::Tiny);
        assert!(n_tiny <= 400 + 1);
        let (n_half, m_half) = Dataset::Facebook.scaled_size(DatasetScale::Scaled(0.5));
        assert!((n_half as f64 - 4_039.0 * 0.5).abs() < 2.0);
        assert!((m_half as f64 - 88_234.0 * 0.5).abs() < 2.0);
    }

    #[test]
    fn tiny_stand_ins_have_plausible_structure() {
        for &d in Dataset::all() {
            let g = d.generate(DatasetScale::Tiny).unwrap();
            let stats = GraphStats::compute(&g);
            assert!(stats.num_vertices >= 50, "{d:?}");
            assert!(stats.num_edges > 0, "{d:?}");
            assert!(g.validate().is_ok(), "{d:?}");
            // Heavy-tailed: the max degree is well above the average.
            assert!(
                stats.max_degree as f64 > 2.0 * stats.average_degree,
                "{d:?}: max {} vs avg {}",
                stats.max_degree,
                stats.average_degree
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::WikiVote.generate(DatasetScale::Tiny).unwrap();
        let b = Dataset::WikiVote.generate(DatasetScale::Tiny).unwrap();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        let edges_a: Vec<_> = a.edges().map(|e| (e.source, e.target)).collect();
        let edges_b: Vec<_> = b.edges().map(|e| (e.source, e.target)).collect();
        assert_eq!(edges_a, edges_b);
    }

    #[test]
    fn undirected_stand_ins_are_symmetric() {
        let g = Dataset::Facebook.generate(DatasetScale::Tiny).unwrap();
        for e in g.edges() {
            assert!(g.has_edge(e.target, e.source));
        }
    }

    #[test]
    fn load_or_generate_falls_back_to_synthetic() {
        // IMIN_DATA_DIR is not set in the test environment (or points to a
        // directory without the file), so the synthetic path is exercised.
        let (g, real) = Dataset::EmailCore
            .load_or_generate(DatasetScale::Tiny)
            .unwrap();
        if !real {
            assert!(g.num_vertices() >= 50);
        }
    }
}
