//! Random and structured graph generators.
//!
//! The paper evaluates on eight SNAP social networks (Table IV). Those exact
//! files cannot be redistributed with this repository, so the dataset crate
//! synthesises stand-ins with matching size and degree skew using the
//! generators below (see the `imin_datasets::catalog` docs). The same
//! generators drive the property-based tests and the scaling
//! micro-benchmarks.
//!
//! All generators are deterministic given the `seed` argument, produce
//! simple directed graphs (no parallel edges; self loops dropped) and assign
//! every edge the supplied `probability` — callers typically re-assign
//! probabilities afterwards with the Trivalency or Weighted-Cascade model
//! from `imin-diffusion`.

use crate::{DiGraph, GraphBuilder, GraphError, Result, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vid(i: usize) -> VertexId {
    VertexId::new(i)
}

/// Directed Erdős–Rényi graph `G(n, p_edge)`: every ordered pair `(u, v)`,
/// `u != v`, is an edge independently with probability `p_edge`.
///
/// For sparse graphs (`p_edge` small) the generator uses geometric skipping,
/// so the cost is proportional to the number of generated edges rather than
/// `n²`.
pub fn erdos_renyi(n: usize, p_edge: f64, probability: f64, seed: u64) -> Result<DiGraph> {
    if !(0.0..=1.0).contains(&p_edge) || !p_edge.is_finite() {
        return Err(GraphError::InvalidGeneratorArgument {
            message: format!("edge probability {p_edge} must be in [0, 1]"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    if n == 0 || p_edge == 0.0 {
        return Ok(builder.build());
    }
    let total_pairs = (n as u128) * (n as u128 - 1);
    if p_edge >= 1.0 {
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    builder.add_edge(vid(u), vid(v), probability)?;
                }
            }
        }
        return Ok(builder.build());
    }
    // Geometric skipping over the implicit ordered-pair index space.
    let log_q = (1.0 - p_edge).ln();
    let mut idx: i128 = -1;
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as i128 + 1;
        idx += skip;
        if idx as u128 >= total_pairs {
            break;
        }
        let flat = idx as u128;
        let u = (flat / (n as u128 - 1)) as usize;
        let mut v = (flat % (n as u128 - 1)) as usize;
        if v >= u {
            v += 1; // skip the diagonal
        }
        builder.add_edge(vid(u), vid(v), probability)?;
    }
    Ok(builder.build())
}

/// Preferential-attachment graph (a directed Barabási–Albert variant).
///
/// Vertices arrive one by one; each new vertex issues `edges_per_vertex`
/// out-edges whose targets are chosen proportionally to the targets' current
/// (in-degree + 1). With `bidirectional = true` the reciprocal edge is also
/// added, which mimics the undirected SNAP datasets. The result has a
/// heavy-tailed in-degree distribution — the property that makes the
/// OutDegree heuristic and the greedy algorithms behave as in the paper.
pub fn preferential_attachment(
    n: usize,
    edges_per_vertex: usize,
    bidirectional: bool,
    probability: f64,
    seed: u64,
) -> Result<DiGraph> {
    if n > 0 && edges_per_vertex >= n {
        return Err(GraphError::InvalidGeneratorArgument {
            message: format!("edges_per_vertex ({edges_per_vertex}) must be smaller than n ({n})"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    if n == 0 {
        return Ok(builder.build());
    }
    // `targets` holds one entry per (in-degree + 1) unit of attractiveness,
    // so uniform sampling from it is preferential sampling.
    let mut attractiveness: Vec<u32> = Vec::with_capacity(n * (edges_per_vertex + 1));
    attractiveness.push(0);
    for new in 1..n {
        let k = edges_per_vertex.min(new);
        let mut picked = std::collections::HashSet::with_capacity(k * 2);
        let mut guard = 0usize;
        while picked.len() < k && guard < 50 * (k + 1) {
            guard += 1;
            let t = attractiveness[rng.gen_range(0..attractiveness.len())] as usize;
            if t != new {
                picked.insert(t);
            }
        }
        // If rejection failed to find enough distinct targets (tiny graphs),
        // top up with uniform choices.
        let mut fallback = 0usize;
        while picked.len() < k {
            if fallback != new {
                picked.insert(fallback);
            }
            fallback += 1;
        }
        // Sort for determinism: HashSet iteration order varies per instance
        // and would otherwise leak into the attractiveness sequence.
        let mut picked: Vec<usize> = picked.into_iter().collect();
        picked.sort_unstable();
        for &t in &picked {
            builder.add_edge(vid(new), vid(t), probability)?;
            attractiveness.push(t as u32);
            if bidirectional {
                builder.add_edge(vid(t), vid(new), probability)?;
                attractiveness.push(new as u32);
            }
        }
        attractiveness.push(new as u32);
    }
    Ok(builder.build())
}

/// Directed configuration-model graph with power-law out-degrees.
///
/// Out-degrees are sampled from a discrete power law with the given
/// `exponent` (typical social networks: 2.0–3.0), capped at `max_degree`,
/// then scaled so the expected edge count is close to `target_edges`.
/// Targets are chosen preferentially (proportional to in-degree + 1) so the
/// in-degree distribution is heavy-tailed as well.
pub fn power_law_digraph(
    n: usize,
    target_edges: usize,
    exponent: f64,
    max_degree: usize,
    probability: f64,
    seed: u64,
) -> Result<DiGraph> {
    if n == 0 {
        return Ok(DiGraph::empty(0));
    }
    if exponent <= 1.0 || !exponent.is_finite() {
        return Err(GraphError::InvalidGeneratorArgument {
            message: format!("power-law exponent {exponent} must be > 1"),
        });
    }
    let max_degree = max_degree.max(1).min(n.saturating_sub(1).max(1));
    let mut rng = StdRng::seed_from_u64(seed);

    // Sample raw power-law degrees via inverse transform on a Pareto-like
    // distribution, then rescale to hit the requested edge budget. The raw
    // draw is truncated at `max_degree` *before* the rescale: an untruncated
    // outlier (u near EPSILON gives degrees of ~1e12) would otherwise
    // dominate the sum, drive the scale factor towards zero and leave the
    // generated graph far below the requested edge budget once the outlier
    // itself is clamped.
    let mut degrees: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            u.powf(-1.0 / (exponent - 1.0)).min(max_degree as f64)
        })
        .collect();
    let sum: f64 = degrees.iter().sum();
    let scale = target_edges as f64 / sum;
    let mut total = 0usize;
    let int_degrees: Vec<usize> = degrees
        .iter_mut()
        .map(|d| {
            let scaled = (*d * scale).round() as usize;
            let clamped = scaled.min(max_degree);
            total += clamped;
            clamped
        })
        .collect();

    let mut builder = GraphBuilder::with_capacity(n, total);
    let mut attractiveness: Vec<u32> = (0..n as u32).collect();
    for (u, &d) in int_degrees.iter().enumerate() {
        let mut picked = std::collections::HashSet::with_capacity(d * 2);
        let mut guard = 0usize;
        while picked.len() < d && guard < 20 * (d + 1) {
            guard += 1;
            let t = attractiveness[rng.gen_range(0..attractiveness.len())] as usize;
            if t != u {
                picked.insert(t);
            }
        }
        let mut picked: Vec<usize> = picked.into_iter().collect();
        picked.sort_unstable();
        for &t in &picked {
            builder.add_edge(vid(u), vid(t), probability)?;
            attractiveness.push(t as u32);
        }
    }
    Ok(builder.build())
}

/// Complete directed graph on `n` vertices (every ordered pair, no loops).
pub fn complete(n: usize, probability: f64) -> Result<DiGraph> {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                builder.add_edge(vid(u), vid(v), probability)?;
            }
        }
    }
    Ok(builder.build())
}

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: usize, probability: f64) -> Result<DiGraph> {
    let mut builder = GraphBuilder::new(n);
    for v in 1..n {
        builder.add_edge(vid(v - 1), vid(v), probability)?;
    }
    Ok(builder.build())
}

/// Directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(n: usize, probability: f64) -> Result<DiGraph> {
    let mut builder = GraphBuilder::new(n);
    if n > 1 {
        for v in 1..n {
            builder.add_edge(vid(v - 1), vid(v), probability)?;
        }
        builder.add_edge(vid(n - 1), vid(0), probability)?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::reachable_count;

    #[test]
    fn erdos_renyi_is_deterministic_and_valid() {
        let a = erdos_renyi(200, 0.02, 0.1, 7).unwrap();
        let b = erdos_renyi(200, 0.02, 0.1, 7).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.validate().is_ok());
        // Expected edge count is p * n * (n-1) ≈ 796; allow generous slack.
        let m = a.num_edges() as f64;
        assert!(m > 500.0 && m < 1200.0, "unexpected edge count {m}");
        assert!(erdos_renyi(10, 1.5, 0.1, 0).is_err());
        assert_eq!(erdos_renyi(0, 0.5, 0.1, 0).unwrap().num_vertices(), 0);
        assert_eq!(erdos_renyi(10, 0.0, 0.1, 0).unwrap().num_edges(), 0);
        assert_eq!(erdos_renyi(5, 1.0, 0.1, 0).unwrap().num_edges(), 20);
    }

    #[test]
    fn preferential_attachment_has_heavy_tail() {
        let g = preferential_attachment(500, 3, false, 0.1, 11).unwrap();
        assert!(g.validate().is_ok());
        assert!(g.num_edges() >= 3 * 400);
        // The most attractive vertex should collect far more than the
        // average in-degree.
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        let avg_in = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_in as f64 > 4.0 * avg_in,
            "max in-degree {max_in} not heavy-tailed vs avg {avg_in}"
        );
        assert!(preferential_attachment(3, 5, false, 0.1, 0).is_err());
    }

    #[test]
    fn preferential_attachment_bidirectional_roughly_doubles_edges() {
        let g1 = preferential_attachment(200, 2, false, 0.1, 5).unwrap();
        let g2 = preferential_attachment(200, 2, true, 0.1, 5).unwrap();
        assert!(g2.num_edges() > g1.num_edges());
        // Every edge should have its reverse.
        for e in g2.edges() {
            assert!(g2.has_edge(e.target, e.source));
        }
    }

    #[test]
    fn power_law_hits_edge_budget_roughly() {
        let g = power_law_digraph(1000, 5000, 2.3, 200, 0.1, 17).unwrap();
        assert!(g.validate().is_ok());
        let m = g.num_edges() as f64;
        assert!(
            m > 2500.0 && m < 7500.0,
            "edge count {m} far from target 5000"
        );
        assert!(power_law_digraph(100, 500, 0.9, 50, 0.1, 0).is_err());
        assert_eq!(
            power_law_digraph(0, 0, 2.0, 10, 0.1, 0)
                .unwrap()
                .num_vertices(),
            0
        );
    }

    #[test]
    fn deterministic_structures() {
        let c = complete(4, 1.0).unwrap();
        assert_eq!(c.num_edges(), 12);

        let p = path(5, 1.0).unwrap();
        assert_eq!(p.num_edges(), 4);
        assert_eq!(reachable_count(&p, &[VertexId::new(0)]), 5);

        let cy = cycle(5, 1.0).unwrap();
        assert_eq!(cy.num_edges(), 5);
        assert_eq!(reachable_count(&cy, &[VertexId::new(2)]), 5);
        assert_eq!(cycle(1, 1.0).unwrap().num_edges(), 0);
    }
}
