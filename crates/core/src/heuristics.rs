//! Simple blocker-selection heuristics.
//!
//! The paper compares against two of these directly (Rand and OutDegree,
//! §VI-A / Table VII); the others are natural extensions used in the
//! ablation benchmarks:
//!
//! * [`Rand`] / [`random_blockers`] — Rand (RA): `b` uniform random
//!   non-seed vertices.
//! * [`OutDegree`] / [`out_degree_blockers`] — OutDegree (OD): the `b`
//!   non-seed vertices with the highest out-degree \[11, 12\].
//! * [`Degree`] / [`degree_blockers`] — same but ranked by total degree.
//! * [`OutNeighbors`] / [`out_neighbor_blockers`] — the OutNeighbors
//!   strategy of Example 3: block (up to) `b` out-neighbours of the seeds,
//!   ranked by the dominator-tree estimator.
//! * [`PageRank`] / [`pagerank_blockers`] — the `b` highest-PageRank
//!   non-seed vertices (extension; PageRank is a classic proxy for
//!   structural importance).
//!
//! Every heuristic implements [`BlockerSolver`] over a
//! [`crate::ContainmentRequest`], so multi-seed requests exclude **every**
//! seed from the candidate pool (not just a single source) and the
//! rank-only heuristics run unchanged on either evaluation backend.
//! OutNeighbors prices candidates with the backend it is given — fresh
//! samples or pooled re-rooting — and Rand derives its shuffle from the
//! backend's RNG seed (the pool seed under `Pooled`, so pooled answers stay
//! a pure function of the pool identity). The free functions below are
//! thin single-source shims kept for source compatibility.

use crate::decrease::{decrease_es_multi_in, DecreaseConfig, DecreaseWorkspace};
use crate::pool::{pooled_decrease_in, with_pool_workspace};
use crate::request::{shim_request, shim_request_from_config, ContainmentRequest, EvalBackend};
use crate::sampler::IcLiveEdgeSampler;
use crate::solver::{AlgorithmKind, BlockerSolver};
use crate::types::{AlgorithmConfig, BlockerSelection, SelectionStats};
use crate::Result;
use imin_graph::stats::{vertices_by_degree, vertices_by_out_degree};
use imin_graph::{DiGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Rand (RA) behind the unified request API: `b` vertices chosen uniformly
/// at random among the candidates (neither seeds nor forbidden).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rand;

impl BlockerSolver for Rand {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Random
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        if matches!(request.intervention(), crate::Intervention::BlockEdges) {
            let start = Instant::now();
            let mut edges: Vec<(VertexId, VertexId)> =
                graph.edges().map(|e| (e.source, e.target)).collect();
            let mut rng = StdRng::seed_from_u64(request.backend().rng_seed());
            edges.shuffle(&mut rng);
            edges.truncate(request.budget());
            let mut sel = BlockerSelection::new(Vec::new());
            sel.blocked_edges = edges;
            sel.stats = SelectionStats {
                elapsed: start.elapsed(),
                ..Default::default()
            };
            return Ok(sel);
        }
        // Vertex blocking and prebunking share the pick: `b` uniform random
        // candidates, read as removed or prebunked respectively.
        let start = Instant::now();
        let mut pool: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| request.is_candidate(v))
            .collect();
        let mut rng = StdRng::seed_from_u64(request.backend().rng_seed());
        pool.shuffle(&mut rng);
        pool.truncate(request.budget());
        let mut sel = BlockerSelection::new(pool);
        sel.stats = SelectionStats {
            elapsed: start.elapsed(),
            ..Default::default()
        };
        Ok(sel)
    }
}

/// OutDegree (OD) behind the unified request API: the `b` candidates with
/// the largest out-degree. Backend-independent.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutDegree;

impl BlockerSolver for OutDegree {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::OutDegree
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        if matches!(request.intervention(), crate::Intervention::BlockEdges) {
            let start = Instant::now();
            let mut edges: Vec<(VertexId, VertexId)> =
                graph.edges().map(|e| (e.source, e.target)).collect();
            // Cutting an edge into a high-fan-out vertex removes the one hop
            // that unlocks that fan-out; rank by the target's out-degree,
            // ties towards the lexicographically smaller edge.
            edges.sort_by(|a, b| {
                graph
                    .out_degree(b.1)
                    .cmp(&graph.out_degree(a.1))
                    .then(a.cmp(b))
            });
            edges.truncate(request.budget());
            let mut sel = BlockerSelection::new(Vec::new());
            sel.blocked_edges = edges;
            sel.stats.elapsed = start.elapsed();
            return Ok(sel);
        }
        let start = Instant::now();
        let blockers: Vec<VertexId> = vertices_by_out_degree(graph)
            .into_iter()
            .filter(|&v| request.is_candidate(v))
            .take(request.budget())
            .collect();
        let mut sel = BlockerSelection::new(blockers);
        sel.stats.elapsed = start.elapsed();
        Ok(sel)
    }
}

/// Total-degree variant of the degree heuristic. Backend-independent.
#[derive(Clone, Copy, Debug, Default)]
pub struct Degree;

impl BlockerSolver for Degree {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Degree
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        if matches!(request.intervention(), crate::Intervention::BlockEdges) {
            return Err(crate::IminError::InterventionUnsupported {
                algorithm: self.kind().name(),
                backend: request.backend().label(),
                intervention: "edge",
            });
        }
        let start = Instant::now();
        let blockers: Vec<VertexId> = vertices_by_degree(graph)
            .into_iter()
            .filter(|&v| request.is_candidate(v))
            .take(request.budget())
            .collect();
        let mut sel = BlockerSelection::new(blockers);
        sel.stats.elapsed = start.elapsed();
        Ok(sel)
    }
}

/// OutNeighbors behind the unified request API: block up to `b`
/// out-neighbours of the seeds, ranked by their estimated spread decrease
/// (one Algorithm-2 pass on the request's backend).
#[derive(Clone, Copy, Debug, Default)]
pub struct OutNeighbors;

impl BlockerSolver for OutNeighbors {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::OutNeighbors
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        crate::intervene::require_vertex(
            request.intervention(),
            self.kind().name(),
            request.backend().label(),
        )?;
        let start = Instant::now();
        let blocked = vec![false; graph.num_vertices()];
        let estimate = match *request.backend() {
            EvalBackend::Fresh {
                theta,
                seed,
                threads,
            } => decrease_es_multi_in(
                &IcLiveEdgeSampler,
                graph,
                request.seeds(),
                &blocked,
                &DecreaseConfig {
                    theta,
                    threads,
                    seed,
                },
                &mut DecreaseWorkspace::new(),
            )?,
            EvalBackend::Pooled { pool, threads } => {
                // The deltas come from the pool but the neighbour list from
                // `graph` — a mispaired same-size graph must not slip
                // through and rank one graph's neighbours by another's
                // estimates.
                pool.ensure_matches(graph)?;
                with_pool_workspace(|workspace| {
                    pooled_decrease_in(pool, request.seeds(), &blocked, threads, workspace)
                })?
            }
            ref other => {
                return Err(crate::IminError::BackendUnsupported {
                    algorithm: self.kind().name(),
                    backend: other.label(),
                })
            }
        };
        let mut neighbors: Vec<VertexId> = Vec::new();
        for &s in request.seeds() {
            neighbors.extend(
                graph
                    .out_edges(s)
                    .map(|(v, _)| v)
                    .filter(|&v| request.is_candidate(v)),
            );
        }
        neighbors.sort_unstable();
        neighbors.dedup();
        rank_by_score(&mut neighbors, &estimate.delta);
        neighbors.truncate(request.budget());
        let mut sel = BlockerSelection::new(neighbors);
        sel.stats = SelectionStats {
            samples_drawn: estimate.samples,
            samples_rebuilt: estimate.samples,
            rounds: 1,
            elapsed: start.elapsed(),
            ..Default::default()
        };
        Ok(sel)
    }
}

/// PageRank behind the unified request API: the `b` candidates with the
/// highest PageRank. Backend-independent.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageRank;

impl BlockerSolver for PageRank {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::PageRank
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        if matches!(request.intervention(), crate::Intervention::BlockEdges) {
            return Err(crate::IminError::InterventionUnsupported {
                algorithm: self.kind().name(),
                backend: request.backend().label(),
                intervention: "edge",
            });
        }
        let start = Instant::now();
        let scores = pagerank_scores(graph, 0.85, 30);
        let mut vertices: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| request.is_candidate(v))
            .collect();
        rank_by_score(&mut vertices, &scores);
        vertices.truncate(request.budget());
        let mut sel = BlockerSelection::new(vertices);
        sel.stats.elapsed = start.elapsed();
        Ok(sel)
    }
}

/// Sorts vertices by descending score, breaking ties towards the smaller
/// vertex id so every ranking heuristic is deterministic.
fn rank_by_score(vertices: &mut [VertexId], scores: &[f64]) {
    vertices.sort_by(|a, b| {
        scores[b.index()]
            .partial_cmp(&scores[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.raw().cmp(&b.raw()))
    });
}

/// Rand (RA): `b` vertices chosen uniformly at random among the vertices
/// that are neither forbidden nor the source — the single-source shim over
/// [`Rand`].
pub fn random_blockers(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    seed: u64,
) -> Result<BlockerSelection> {
    let request = shim_request(graph, &[source], forbidden, budget, 1, seed, 1, 1)?;
    Rand.solve(graph, &request)
}

/// OutDegree (OD): the `b` eligible vertices with the largest out-degree —
/// the single-source shim over [`OutDegree`].
pub fn out_degree_blockers(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
) -> Result<BlockerSelection> {
    let request = shim_request(graph, &[source], forbidden, budget, 1, 0, 1, 1)?;
    OutDegree.solve(graph, &request)
}

/// Total-degree variant of the degree heuristic — the single-source shim
/// over [`Degree`].
pub fn degree_blockers(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
) -> Result<BlockerSelection> {
    let request = shim_request(graph, &[source], forbidden, budget, 1, 0, 1, 1)?;
    Degree.solve(graph, &request)
}

/// OutNeighbors: block up to `b` out-neighbours of the source, ranked by
/// their estimated spread decrease (one Algorithm-2 call) — the
/// single-source shim over [`OutNeighbors`].
pub fn out_neighbor_blockers(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
    config: &AlgorithmConfig,
) -> Result<BlockerSelection> {
    let request = shim_request_from_config(graph, &[source], forbidden, budget, config)?;
    OutNeighbors.solve(graph, &request)
}

/// PageRank scores computed by power iteration on the out-link structure
/// (probabilities are ignored; dangling mass is redistributed uniformly).
pub fn pagerank_scores(graph: &DiGraph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0f64;
        for u in graph.vertices() {
            let dout = graph.out_degree(u);
            if dout == 0 {
                dangling += rank[u.index()];
                continue;
            }
            let share = rank[u.index()] / dout as f64;
            for &t in graph.out_neighbors(u) {
                next[t as usize] += share;
            }
        }
        let dangling_share = dangling / n as f64;
        for x in next.iter_mut() {
            *x = (1.0 - damping) * uniform + damping * (*x + dangling_share);
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// PageRank heuristic: the `b` eligible vertices with the highest PageRank
/// — the single-source shim over [`PageRank`].
pub fn pagerank_blockers(
    graph: &DiGraph,
    source: VertexId,
    forbidden: &[bool],
    budget: usize,
) -> Result<BlockerSelection> {
    let request = shim_request(graph, &[source], forbidden, budget, 1, 0, 1, 1)?;
    PageRank.solve(graph, &request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SamplePool;
    use crate::ContainmentRequest;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Seed 0 -> {1, 2}; 1 -> {3, 4, 5}; 2 -> 6. Vertex 1 has the highest
    /// out-degree after the seed.
    fn sample_graph() -> DiGraph {
        DiGraph::from_edges(
            7,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(0), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(1), vid(4), 1.0),
                (vid(1), vid(5), 1.0),
                (vid(2), vid(6), 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn random_is_deterministic_per_seed_and_respects_constraints() {
        let g = sample_graph();
        let forbidden = {
            let mut f = vec![false; 7];
            f[3] = true;
            f
        };
        let a = random_blockers(&g, vid(0), &forbidden, 3, 42).unwrap();
        let b = random_blockers(&g, vid(0), &forbidden, 3, 42).unwrap();
        assert_eq!(a.blockers, b.blockers);
        assert_eq!(a.len(), 3);
        assert!(!a.blockers.contains(&vid(0)));
        assert!(!a.blockers.contains(&vid(3)));
        let c = random_blockers(&g, vid(0), &forbidden, 3, 43).unwrap();
        assert_eq!(c.len(), 3);
        assert!(random_blockers(&g, vid(0), &forbidden, 0, 1).is_err());
    }

    #[test]
    fn out_degree_ranks_the_hub_first() {
        let g = sample_graph();
        let sel = out_degree_blockers(&g, vid(0), &[false; 7], 2).unwrap();
        assert_eq!(sel.blockers[0], vid(1));
        assert_eq!(sel.blockers[1], vid(2));
        // The seed is excluded even though it has the joint-highest degree.
        assert!(!sel.blockers.contains(&vid(0)));
    }

    #[test]
    fn degree_heuristic_counts_in_plus_out() {
        let g = sample_graph();
        let sel = degree_blockers(&g, vid(0), &[false; 7], 1).unwrap();
        assert_eq!(sel.blockers[0], vid(1)); // degree 4 (1 in + 3 out)
    }

    #[test]
    fn out_neighbors_are_ranked_by_estimated_decrease() {
        let g = sample_graph();
        let cfg = AlgorithmConfig::fast_for_tests().with_theta(200);
        let sel = out_neighbor_blockers(&g, vid(0), &[false; 7], 1, &cfg).unwrap();
        // Blocking 1 removes 4 vertices; blocking 2 removes 2.
        assert_eq!(sel.blockers, vec![vid(1)]);
        let both = out_neighbor_blockers(&g, vid(0), &[false; 7], 5, &cfg).unwrap();
        assert_eq!(both.len(), 2, "only two out-neighbours exist");
        assert!(out_neighbor_blockers(&g, vid(9), &[false; 7], 1, &cfg).is_err());
    }

    #[test]
    fn pagerank_scores_sum_to_one_and_favor_sinks_of_mass() {
        let g = sample_graph();
        let scores = pagerank_scores(&g, 0.85, 50);
        let total: f64 = scores.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "PageRank must be a distribution"
        );
        // Leaves fed by the hub outrank the isolated-ish vertex 6's source.
        assert!(scores[3] > scores[6] * 0.5);
        assert!(pagerank_scores(&DiGraph::empty(0), 0.85, 10).is_empty());
    }

    #[test]
    fn pagerank_blockers_respect_constraints() {
        let g = sample_graph();
        let mut forbidden = vec![false; 7];
        forbidden[1] = true;
        let sel = pagerank_blockers(&g, vid(0), &forbidden, 3).unwrap();
        assert_eq!(sel.len(), 3);
        assert!(!sel.blockers.contains(&vid(0)));
        assert!(!sel.blockers.contains(&vid(1)));
    }

    #[test]
    fn multi_seed_requests_exclude_every_seed() {
        let g = sample_graph();
        let seeds = [vid(0), vid(1)];
        let request = ContainmentRequest::builder(&g)
            .seeds(seeds)
            .budget(5)
            .fresh(100, 7, 1)
            .build()
            .unwrap();
        for kind in [
            AlgorithmKind::Random,
            AlgorithmKind::OutDegree,
            AlgorithmKind::Degree,
            AlgorithmKind::OutNeighbors,
            AlgorithmKind::PageRank,
        ] {
            let sel = kind.solver().solve(&g, &request).unwrap();
            for s in seeds {
                assert!(
                    !sel.blockers.contains(&s),
                    "{kind:?} chose seed {s} as a blocker"
                );
            }
        }
    }

    #[test]
    fn out_neighbors_covers_every_seed_on_both_backends() {
        let g = sample_graph();
        // Seeds 0 and 2: candidate out-neighbours are {1, 2, 6} minus seeds.
        let fresh = ContainmentRequest::builder(&g)
            .seeds([vid(0), vid(2)])
            .budget(5)
            .fresh(200, 3, 1)
            .build()
            .unwrap();
        let sel = OutNeighbors.solve(&g, &fresh).unwrap();
        let mut blockers = sel.blockers.clone();
        blockers.sort_unstable();
        assert_eq!(blockers, vec![vid(1), vid(6)]);
        // The deterministic graph makes pooled and fresh estimates exact,
        // so the pooled backend returns the same selection.
        let pool = SamplePool::build(&g, 16, 5).unwrap();
        let pooled = ContainmentRequest::builder(&g)
            .seeds([vid(0), vid(2)])
            .budget(5)
            .pooled_with_threads(&pool, 1)
            .build()
            .unwrap();
        let pooled_sel = OutNeighbors.solve(&g, &pooled).unwrap();
        assert_eq!(pooled_sel.blockers, sel.blockers);
    }
}
