//! Answer checks: every reply's shape, and the probe answers against the
//! same questions solved in-process through `ContainmentRequest`.

use crate::wire::field;
use crate::workload::{Workload, GRAPH_M0, GRAPH_SEED, N, POOL_SEED};
use imin_core::{snapshot, AlgorithmKind, ContainmentRequest, SamplePool, SketchPool};
use imin_diffusion::ProbabilityModel;
use imin_engine::protocol::{parse_request, Request};
use imin_engine::Query;
use imin_graph::{generators, DiGraph};
use std::path::Path;

/// The fields of a `QUERY` reply that must match byte for byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// `blockers=`.
    pub blockers: String,
    /// `edges=`, when present.
    pub edges: Option<String>,
    /// `spread=`.
    pub spread: String,
}

impl Answer {
    /// Reads the answer fields out of a reply line.
    pub fn from_reply(reply: &str) -> Option<Answer> {
        Some(Answer {
            blockers: field(reply, "blockers")?.to_string(),
            edges: field(reply, "edges").map(str::to_string),
            spread: field(reply, "spread")?.to_string(),
        })
    }
}

/// Parses a `QUERY` line the way the server does.
pub fn parse_query(line: &str) -> Query {
    match parse_request(line) {
        Ok(Request::Query { query, .. }) => query,
        other => panic!("benchmark generated a non-query line {line:?}: {other:?}"),
    }
}

/// Checks a reply's shape: `OK`, at most `budget` picks, and edges exactly
/// for edge questions.
pub fn check_shape(line: &str, reply: &str) -> Result<(), String> {
    let query = parse_query(line);
    let bad = |why: &str| Err(format!("{why}: {line:?} answered {reply:?}"));
    if !reply.starts_with("OK ") {
        return bad("not OK");
    }
    let Some(answer) = Answer::from_reply(reply) else {
        return bad("missing blockers= or spread=");
    };
    if answer
        .spread
        .parse::<f64>()
        .map_or(true, |s| !s.is_finite())
    {
        return bad("spread is not a number");
    }
    let count = |list: &str| list.split(',').filter(|s| !s.is_empty()).count();
    let edge_mode = query.intervention == imin_core::Intervention::BlockEdges;
    let picks = match (&answer.edges, edge_mode) {
        (Some(edges), true) if answer.blockers.is_empty() => count(edges),
        (None, false) => count(&answer.blockers),
        _ => return bad("edges= present exactly when intervene=edge"),
    };
    if picks > query.budget {
        return bad("more picks than the budget");
    }
    Ok(())
}

/// Builds the reference graph exactly as the server's `LOAD` does.
pub fn reference_graph() -> DiGraph {
    let topology = generators::preferential_attachment(N as usize, GRAPH_M0, true, 1.0, GRAPH_SEED)
        .expect("reference topology");
    ProbabilityModel::WeightedCascade
        .apply(&topology)
        .expect("weighted-cascade probabilities")
}

/// The estimator a workload's server answers from.
pub enum Backend {
    /// A forward sample pool (built, or mapped from the snapshot).
    Forward(SamplePool),
    /// A reverse-sketch pool.
    Sketch(SketchPool),
}

/// An in-process replica of the server's resident state.
pub struct Reference {
    graph: DiGraph,
    backend: Backend,
    threads: usize,
}

impl Reference {
    /// Builds the state the workload's set-up builds on the server: the
    /// same graph and pool seed, or the very snapshot file for `restart`.
    pub fn build(workload: Workload, snapshot_path: &Path) -> Result<Reference, String> {
        let threads = imin_diffusion::montecarlo::default_threads();
        let (graph, backend) = match workload {
            Workload::Restart => {
                let restored = snapshot::map_snapshot(snapshot_path).map_err(|e| e.to_string())?;
                (restored.graph, Backend::Forward(restored.pool))
            }
            Workload::SketchHot => {
                let graph = reference_graph();
                let pool =
                    SketchPool::build_with_threads(&graph, workload.theta(), POOL_SEED, threads)
                        .map_err(|e| e.to_string())?;
                (graph, Backend::Sketch(pool))
            }
            Workload::VertexDistinct | Workload::Families => {
                let graph = reference_graph();
                let pool =
                    SamplePool::build_with_threads(&graph, workload.theta(), POOL_SEED, threads)
                        .map_err(|e| e.to_string())?;
                (graph, Backend::Forward(pool))
            }
        };
        Ok(Reference {
            graph,
            backend,
            threads,
        })
    }

    /// Solves one `QUERY` line in-process and renders the answer fields the
    /// way the server's reply does.
    pub fn answer(&self, line: &str) -> Result<Answer, String> {
        let query = parse_query(line);
        let mut seeds = query.seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        let request = ContainmentRequest::builder(&self.graph)
            .seeds(seeds)
            .budget(query.budget)
            .intervention(query.intervention);
        let request = match (&self.backend, query.algorithm) {
            (Backend::Sketch(pool), AlgorithmKind::RisGreedy) => {
                request.sketch_pooled(pool, self.threads)
            }
            (Backend::Forward(pool), kind) if kind != AlgorithmKind::RisGreedy => {
                request.pooled_with_threads(pool, self.threads)
            }
            _ => return Err(format!("no resident backend for {line:?}")),
        };
        let request = request.build().map_err(|e| e.to_string())?;
        let selection = query
            .algorithm
            .solver()
            .solve(&self.graph, &request)
            .map_err(|e| e.to_string())?;
        let join = |items: Vec<String>| items.join(",");
        let edges = (!selection.blocked_edges.is_empty()).then(|| {
            join(
                selection
                    .blocked_edges
                    .iter()
                    .map(|(u, v)| format!("{}-{}", u.raw(), v.raw()))
                    .collect(),
            )
        });
        Ok(Answer {
            blockers: join(
                selection
                    .blockers
                    .iter()
                    .map(|b| b.raw().to_string())
                    .collect(),
            ),
            edges,
            spread: selection
                .estimated_spread
                .map_or_else(|| "nan".into(), |s| format!("{s:.6}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_checked_per_family() {
        let vertex = "QUERY ic seeds=1,2 budget=2 alg=advanced";
        let edge = "QUERY ic seeds=1,2 budget=2 intervene=edge";
        assert!(check_shape(vertex, "OK blockers=3,4 spread=9.000000 cached=false").is_ok());
        assert!(check_shape(vertex, "OK blockers=3,4,5 spread=9.000000").is_err());
        assert!(check_shape(vertex, "ERR busy retry_after_ms=3").is_err());
        assert!(check_shape(vertex, "OK blockers=3 edges=1-3 spread=9.0").is_err());
        assert!(check_shape(edge, "OK blockers= edges=1-3,2-5 spread=9.000000").is_ok());
        assert!(check_shape(edge, "OK blockers=3 spread=9.000000").is_err());
        assert!(check_shape(vertex, "OK blockers=3 spread=nan").is_err());
    }
}
