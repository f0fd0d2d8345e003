//! Intervention families beyond vertex blocking — edge blocking and
//! prebunking against a resident [`SamplePool`].
//!
//! The paper blocks *vertices*; the surrounding literature shows the same
//! pooled-realisation machinery answers two sibling questions:
//!
//! * **Edge blocking** (Zehmakan & Maurya, arXiv 2308.08860): remove `k`
//!   edges instead of vertices. In a stored realisation a removed edge is a
//!   targeted live-edge deletion — and when the deleted edge `(u, v)` is
//!   the *only* live in-edge of `v` among the reached region, deleting it
//!   detaches exactly the vertices dominated by `v`, so the dominator-tree
//!   subtree size prices the edge **exactly** per realisation.
//! * **Prebunking** (Furutani et al., arXiv 2508.01124): a prebunked
//!   vertex keeps transmitting, but *accepts* each incoming activation
//!   only with probability `α`. Under the integer coin-threshold
//!   representation of the pool this is conditional thinning: a stored
//!   live edge into a prebunked vertex survives an `α`-coin drawn from a
//!   deterministic per-(sample, edge) hash stream — untouched realisations
//!   and vertices pay nothing, and `α = 1.0` keeps every edge, making the
//!   estimate byte-identical to no intervention at all.
//!
//! [`Intervention`] is the request-level selector threaded through
//! [`crate::ContainmentRequest`]. Both families share the pooled estimator
//! kernel of [`crate::pool`] with vertex blocking — the same re-rooted BFS
//! over the borrowed arena view, dominator tree and integer credit, hence
//! the same bit-identical-at-any-thread-count contract and the same phase
//! laps in traces. This module only supplies what differs: the edge filter
//! of each family (deleted edges, `α`-coins), and the greedy loops that
//! read the per-edge or per-vertex credit the kernel returns.

use crate::decrease::DecreaseEstimate;
use crate::pool::{
    check_mask_len, pooled_decrease_with, pooled_edge_credit_with, timed_best, with_pool_workspace,
    EdgeFilter, PoolWorkspace, SamplePool,
};
use crate::request::{ContainmentRequest, EvalBackend};
use crate::types::{BlockerSelection, SelectionStats};
use crate::{IminError, Result};
use imin_graph::VertexId;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// What a containment request removes from the cascade: the paper's vertex
/// blocking (the default), edge blocking, or probabilistic prebunking.
///
/// The wire syntax accepted by [`FromStr`] (and printed by `Display`) is
/// the protocol's `intervene=` parameter: `vertex`, `edge`, or
/// `prebunk:<alpha>` with `alpha ∈ [0, 1]`.
///
/// ```
/// use imin_core::Intervention;
///
/// assert_eq!("vertex".parse::<Intervention>().unwrap(), Intervention::BlockVertices);
/// assert_eq!("edge".parse::<Intervention>().unwrap(), Intervention::BlockEdges);
/// assert_eq!(
///     "prebunk:0.25".parse::<Intervention>().unwrap(),
///     Intervention::Prebunk { alpha: 0.25 },
/// );
/// assert!("prebunk:1.5".parse::<Intervention>().is_err());
/// assert_eq!(Intervention::Prebunk { alpha: 0.25 }.to_string(), "prebunk:0.25");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Intervention {
    /// Remove up to `budget` vertices — today's behaviour, byte-identical
    /// to requests that never mention an intervention.
    #[default]
    BlockVertices,
    /// Remove up to `budget` edges: each removal is a targeted live-edge
    /// deletion in every pooled realisation.
    BlockEdges,
    /// Prebunk up to `budget` vertices: each keeps transmitting but accepts
    /// incoming activations only with probability `alpha`.
    Prebunk {
        /// Acceptance probability of a prebunked vertex, in `[0, 1]`.
        /// `alpha = 0.0` is equivalent to vertex blocking; `alpha = 1.0`
        /// is a no-op.
        alpha: f64,
    },
}

impl Intervention {
    /// Short family label used in error payloads and metrics:
    /// `"vertex"`, `"edge"` or `"prebunk"` (without the `α`).
    pub fn family(self) -> &'static str {
        match self {
            Intervention::BlockVertices => "vertex",
            Intervention::BlockEdges => "edge",
            Intervention::Prebunk { .. } => "prebunk",
        }
    }

    /// Validates the parameters of the family (today: `alpha ∈ [0, 1]` and
    /// finite for [`Intervention::Prebunk`]).
    ///
    /// # Errors
    /// Returns [`IminError::InvalidIntervention`] on an out-of-range or
    /// non-finite `alpha`.
    pub fn validate(self) -> Result<()> {
        if let Intervention::Prebunk { alpha } = self {
            if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
                return Err(IminError::InvalidIntervention {
                    spec: self.to_string(),
                    reason: "alpha must be a finite probability in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Intervention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intervention::BlockVertices => f.write_str("vertex"),
            Intervention::BlockEdges => f.write_str("edge"),
            Intervention::Prebunk { alpha } => write!(f, "prebunk:{alpha}"),
        }
    }
}

impl FromStr for Intervention {
    type Err = IminError;

    fn from_str(s: &str) -> Result<Self> {
        let lower = s.trim().to_ascii_lowercase();
        let parsed = match lower.as_str() {
            "vertex" | "vertices" => Intervention::BlockVertices,
            "edge" | "edges" => Intervention::BlockEdges,
            _ => match lower.strip_prefix("prebunk:") {
                Some(alpha) => {
                    let alpha: f64 = alpha.parse().map_err(|_| IminError::InvalidIntervention {
                        spec: s.trim().to_string(),
                        reason: "alpha is not a number",
                    })?;
                    Intervention::Prebunk { alpha }
                }
                None => {
                    return Err(IminError::InvalidIntervention {
                        spec: s.trim().to_string(),
                        reason: "unknown intervention family",
                    })
                }
            },
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

/// `α` scaled to the pool's 2⁵³ integer coin range: an edge into a
/// prebunked vertex survives iff `prebunk_coin(..) >> 11 < threshold`.
/// `α = 1.0` maps to 2⁵³ itself, which every 53-bit draw is strictly below
/// — so full acceptance keeps every edge *exactly* (no boundary case).
fn alpha_threshold(alpha: f64) -> u64 {
    if alpha >= 1.0 {
        1u64 << 53
    } else {
        (alpha * (1u64 << 53) as f64) as u64
    }
}

/// Deterministic per-(sample, edge) coin for prebunk thinning: a
/// splitmix64-style finalizer over the pool seed, the realisation index and
/// the edge endpoints. Pure function of its inputs, so estimates are
/// byte-identical at any thread count and across repeated evaluations.
#[inline]
fn prebunk_coin(pool_seed: u64, sample_idx: u64, src: u32, dst: u32) -> u64 {
    let mut x = pool_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(sample_idx.wrapping_add(1)))
        ^ (((src as u64) << 32) | dst as u64);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Edge blocking: drops the deleted edges. `deleted_src` marks their
/// sources, so only edges leaving such a vertex pay for the set lookup.
struct DeletedEdges<'a> {
    deleted: &'a HashSet<(u32, u32)>,
    deleted_src: &'a [bool],
}

impl EdgeFilter for DeletedEdges<'_> {
    #[inline]
    fn keeps(&self, _sample: usize, u: u32, t: u32) -> bool {
        !(self.deleted_src[u as usize] && self.deleted.contains(&(u, t)))
    }
}

/// Prebunking: a live edge into a prebunked vertex survives only when its
/// `α`-coin for this realisation falls below the acceptance threshold.
struct PrebunkCoins<'a> {
    prebunked: &'a [bool],
    keep_threshold: u64,
    pool_seed: u64,
}

impl<'a> PrebunkCoins<'a> {
    fn new(pool: &SamplePool, prebunked: &'a [bool], alpha: f64) -> Self {
        PrebunkCoins {
            prebunked,
            keep_threshold: alpha_threshold(alpha),
            pool_seed: pool.pool_seed(),
        }
    }
}

impl EdgeFilter for PrebunkCoins<'_> {
    #[inline]
    fn keeps(&self, sample: usize, u: u32, t: u32) -> bool {
        !self.prebunked[t as usize]
            || (prebunk_coin(self.pool_seed, sample as u64, u, t) >> 11) < self.keep_threshold
    }
}

/// Algorithm 2 generalised to prebunking: estimates the spread decrease of
/// every candidate vertex when the vertices of `prebunked` accept incoming
/// activations only with probability `alpha`, by re-rooting the θ stored
/// realisations through the deterministic thinning coins.
///
/// With `alpha = 1.0` the coin keeps every edge, so the returned estimate
/// is byte-identical to [`crate::pool::pooled_decrease`] with nothing
/// blocked — the property test pins this.
///
/// # Errors
/// Returns an error on an empty/out-of-range seed set, a wrong-length
/// `prebunked` mask, or an invalid `alpha`.
pub fn pooled_prebunk_decrease(
    pool: &SamplePool,
    seeds: &[VertexId],
    prebunked: &[bool],
    alpha: f64,
    threads: usize,
) -> Result<DecreaseEstimate> {
    check_mask_len(pool, prebunked)?;
    Intervention::Prebunk { alpha }.validate()?;
    with_pool_workspace(|ws| {
        // A prebunked seed is still a seed: prebunking thins edges, it
        // does not remove the vertex.
        ws.stage_seeds(pool.num_vertices(), seeds, None)?;
        let filter = PrebunkCoins::new(pool, prebunked, alpha);
        Ok(pooled_decrease_with(pool, &filter, threads, ws))
    })
}

/// Greedy edge blocking against a borrowed resident pool: every round
/// prices all live edges by the sole-in-edge dominator credit, deletes the
/// best one from every realisation, and re-evaluates — so the reported
/// `estimated_spread` is exact with respect to the pool, not an
/// accumulation of stale estimates.
///
/// With `seed_first` set (the GreedyReplace-flavoured variant), rounds
/// prefer edges leaving the seed set while any such edge still has positive
/// credit, mirroring Algorithm 4's out-neighbour phase.
///
/// The selection stops early when no remaining edge has positive credit
/// (deleting any edge would change nothing), so fewer than `budget` edges
/// may be returned.
///
/// # Errors
/// Returns an error on a zero budget or an empty/out-of-range seed set.
pub fn pooled_edge_greedy_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    budget: usize,
    threads: usize,
    seed_first: bool,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    if budget == 0 {
        return Err(IminError::ZeroBudget);
    }
    let n = pool.num_vertices();
    let theta = pool.theta();
    let timed = imin_obs::span::active();
    with_pool_workspace(|ws| {
        ws.stage_seeds(n, seeds, None)?;
        let mut deleted: HashSet<(u32, u32)> = HashSet::new();
        let mut deleted_src = vec![false; n];
        let mut blocked_edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(budget);
        let mut stats = SelectionStats::default();
        let mut estimated_spread = None;
        for round in 0..budget {
            let filter = DeletedEdges {
                deleted: &deleted,
                deleted_src: &deleted_src,
            };
            let reached_total = pooled_edge_credit_with(pool, &filter, threads, ws);
            stats.samples_drawn += theta;
            let average_reached = reached_total as f64 / theta as f64;
            let select_start = timed.then(Instant::now);
            let (edge_delta, is_seed) = (ws.edge_credit(), ws.is_seed());
            // Loop-invariant: whether any seed edge still earns credit.
            let seeds_only = seed_first
                && edge_delta
                    .iter()
                    .any(|(e, &d)| is_seed[e.0 as usize] && d > 0);
            // Deterministic argmax whatever the map's iteration order:
            // largest credit first, ties towards the lexicographically
            // smallest edge.
            let mut best: Option<((u32, u32), u64)> = None;
            for (&edge, &delta) in edge_delta {
                if seeds_only && !is_seed[edge.0 as usize] {
                    continue;
                }
                let better = match best {
                    None => delta > 0,
                    Some((b_edge, b_delta)) => {
                        delta > b_delta || (delta == b_delta && edge < b_edge)
                    }
                };
                if better {
                    best = Some((edge, delta));
                }
            }
            if let Some(select_start) = select_start {
                let ns = select_start.elapsed().as_nanos() as u64;
                imin_obs::span::add_ns(imin_obs::Phase::Select, ns);
            }
            let Some(((src, dst), delta)) = best else {
                estimated_spread = Some(average_reached);
                break;
            };
            estimated_spread = Some(average_reached - delta as f64 / theta as f64);
            deleted.insert((src, dst));
            deleted_src[src as usize] = true;
            blocked_edges.push((VertexId::from_raw(src), VertexId::from_raw(dst)));
            stats.rounds = round + 1;
        }
        stats.elapsed = start.elapsed();
        Ok(BlockerSelection {
            blockers: Vec::new(),
            blocked_edges,
            estimated_spread,
            stats,
        })
    })
}

/// Greedy prebunking against a borrowed resident pool: every round prices
/// candidates with [`pooled_prebunk_decrease`] under the prebunk set chosen
/// so far, adds the best one, and finishes with one full evaluation pass so
/// `estimated_spread` reflects the complete intervention (the per-round
/// vertex credits are blocking credits — an upper bound on the prebunk
/// gain whenever `alpha > 0` — so the final pass keeps the report honest).
///
/// With `replace` set (the GreedyReplace-flavoured variant), a reverse
/// replacement sweep revisits each chosen vertex, mirroring Algorithm 4's
/// phase 2 with the same early-termination rule.
///
/// # Errors
/// Returns an error on a zero budget, an empty/out-of-range seed set, a
/// wrong-length forbidden mask, or an invalid `alpha`.
pub fn pooled_prebunk_greedy_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
    alpha: f64,
    threads: usize,
    replace: bool,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    if budget == 0 {
        return Err(IminError::ZeroBudget);
    }
    check_mask_len(pool, forbidden)?;
    Intervention::Prebunk { alpha }.validate()?;
    let n = pool.num_vertices();
    let timed = imin_obs::span::active();
    with_pool_workspace(|ws| {
        ws.stage_seeds(n, seeds, None)?;
        let mut prebunked = vec![false; n];
        let mut chosen_order: Vec<VertexId> = Vec::with_capacity(budget);
        let mut stats = SelectionStats::default();
        let eligible = |v: VertexId, prebunked: &[bool], is_seed: &[bool]| {
            !is_seed[v.index()] && !prebunked[v.index()] && !forbidden[v.index()]
        };
        let pass = |prebunked: &[bool], ws: &mut PoolWorkspace| {
            pooled_decrease_with(
                pool,
                &PrebunkCoins::new(pool, prebunked, alpha),
                threads,
                ws,
            )
        };
        for round in 0..budget {
            let estimate = pass(&prebunked, ws);
            stats.samples_drawn += estimate.samples;
            let chosen = timed_best(&estimate, timed, |v| eligible(v, &prebunked, ws.is_seed()));
            let Some(chosen) = chosen else { break };
            prebunked[chosen.index()] = true;
            chosen_order.push(chosen);
            stats.rounds = round + 1;
        }
        if replace {
            for idx in (0..chosen_order.len()).rev() {
                let u = chosen_order[idx];
                prebunked[u.index()] = false;
                stats.rounds += 1;
                let estimate = pass(&prebunked, ws);
                stats.samples_drawn += estimate.samples;
                let chosen =
                    timed_best(&estimate, timed, |v| eligible(v, &prebunked, ws.is_seed()));
                let Some(chosen) = chosen else {
                    prebunked[u.index()] = true;
                    break;
                };
                prebunked[chosen.index()] = true;
                chosen_order[idx] = chosen;
                if chosen == u {
                    break;
                }
            }
        }
        // One final pass with the complete prebunk set applied: the honest
        // expected spread under the intervention, exact w.r.t. the
        // pool+coins.
        let final_estimate = pass(&prebunked, ws);
        stats.samples_drawn += final_estimate.samples;
        stats.elapsed = start.elapsed();
        Ok(BlockerSelection {
            blockers: chosen_order,
            blocked_edges: Vec::new(),
            estimated_spread: Some(final_estimate.average_reached),
            stats,
        })
    })
}

/// Guard for vertex-only solvers: passes vertex-blocking requests through
/// and rejects the sibling families with the typed unsupported error.
pub(crate) fn require_vertex(
    intervention: Intervention,
    algorithm: &'static str,
    backend: &'static str,
) -> Result<()> {
    match intervention {
        Intervention::BlockVertices => Ok(()),
        other => Err(IminError::InterventionUnsupported {
            algorithm,
            backend,
            intervention: other.family(),
        }),
    }
}

/// Shared non-vertex dispatch for the pooled greedy family
/// (AdvancedGreedy and GreedyReplace): routes edge-blocking and prebunking
/// requests to the pooled selectors above, and rejects every other backend
/// with the typed unsupported error — the fresh and sketch backends answer
/// vertex requests only.
///
/// `replace_flavour` selects the GreedyReplace-shaped variants
/// (`seed_first` edge rounds, prebunk replacement sweep).
///
/// The request's forbidden set is a vertex-level constraint and is ignored
/// by edge blocking: an edge may be cut even when one of its endpoints is
/// protected from *vertex* removal.
pub(crate) fn solve_pooled_intervention(
    algorithm: &'static str,
    request: &ContainmentRequest<'_>,
    replace_flavour: bool,
) -> Result<BlockerSelection> {
    match *request.backend() {
        EvalBackend::Pooled { pool, threads } => match request.intervention() {
            Intervention::BlockEdges => pooled_edge_greedy_in(
                pool,
                request.seeds(),
                request.budget(),
                threads,
                replace_flavour,
            ),
            Intervention::Prebunk { alpha } => pooled_prebunk_greedy_in(
                pool,
                request.seeds(),
                request.forbidden().mask(),
                request.budget(),
                alpha,
                threads,
                replace_flavour,
            ),
            Intervention::BlockVertices => {
                unreachable!("vertex requests take the solver's own path")
            }
        },
        ref other => Err(IminError::InterventionUnsupported {
            algorithm,
            backend: other.label(),
            intervention: request.intervention().family(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pooled_decrease;
    use crate::AlgorithmKind;
    use imin_graph::{generators, DiGraph};

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// 0 -> 1 -> {2, 3}, plus a shortcut 0 -> 3, all probability 1.
    fn diamond() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(0), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    fn wc_pa(n: usize, seed: u64) -> DiGraph {
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
            .unwrap()
    }

    #[test]
    fn intervention_parses_and_round_trips() {
        for (spec, expected) in [
            ("vertex", Intervention::BlockVertices),
            ("VERTEX", Intervention::BlockVertices),
            ("edges", Intervention::BlockEdges),
            ("prebunk:0.5", Intervention::Prebunk { alpha: 0.5 }),
            ("prebunk:1", Intervention::Prebunk { alpha: 1.0 }),
            ("prebunk:0", Intervention::Prebunk { alpha: 0.0 }),
        ] {
            assert_eq!(spec.parse::<Intervention>().unwrap(), expected, "{spec}");
        }
        for bad in [
            "",
            "prebunk",
            "prebunk:",
            "prebunk:x",
            "prebunk:-0.1",
            "prebunk:1.5",
            "prebunk:nan",
            "prebunk:inf",
            "edgy",
            "vertex:0.5",
        ] {
            assert!(
                matches!(
                    bad.parse::<Intervention>(),
                    Err(IminError::InvalidIntervention { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
        let display = Intervention::Prebunk { alpha: 0.125 }.to_string();
        assert_eq!(
            display.parse::<Intervention>().unwrap().to_string(),
            display
        );
    }

    #[test]
    fn edge_greedy_cuts_the_sole_feeder_edge() {
        let g = diamond();
        let pool = SamplePool::build(&g, 8, 3).unwrap();
        // Deleting (1, 2) detaches only 2; (0, 1) detaches 1 and 2 (3 stays
        // reachable via the shortcut). The greedy must take (0, 1) first.
        let sel = pooled_edge_greedy_in(&pool, &[vid(0)], 1, 1, false).unwrap();
        assert_eq!(sel.blocked_edges, vec![(vid(0), vid(1))]);
        assert!(sel.blockers.is_empty());
        // Spread 4.0 before (the seed counts); 2.0 after — seed plus vertex
        // 3, which stays reachable through the shortcut.
        assert_eq!(sel.estimated_spread, Some(2.0));
        // A larger budget keeps cutting until no edge helps any more (the
        // seed's own activation cannot be cut, so spread bottoms out at 1).
        let all = pooled_edge_greedy_in(&pool, &[vid(0)], 4, 1, false).unwrap();
        assert_eq!(all.blocked_edges, vec![(vid(0), vid(1)), (vid(0), vid(3))]);
        assert_eq!(all.estimated_spread, Some(1.0));
    }

    #[test]
    fn edge_greedy_is_thread_count_invariant() {
        let g = wc_pa(300, 11);
        let pool = SamplePool::build(&g, 64, 9).unwrap();
        let one = pooled_edge_greedy_in(&pool, &[vid(0), vid(5)], 4, 1, false).unwrap();
        let four = pooled_edge_greedy_in(&pool, &[vid(0), vid(5)], 4, 4, false).unwrap();
        assert_eq!(one.blocked_edges, four.blocked_edges);
        assert_eq!(one.estimated_spread, four.estimated_spread);
    }

    #[test]
    fn prebunk_alpha_one_is_byte_identical_to_no_intervention() {
        let g = wc_pa(400, 7);
        let pool = SamplePool::build(&g, 128, 21).unwrap();
        let none = vec![false; g.num_vertices()];
        let baseline = pooled_decrease(&pool, &[vid(0), vid(3)], &none, 1).unwrap();
        // Prebunk the whole graph at alpha = 1.0: the coin keeps every
        // edge, so the estimate is byte-identical to no intervention.
        let everyone = vec![true; g.num_vertices()];
        for threads in [1, 4] {
            let thinned =
                pooled_prebunk_decrease(&pool, &[vid(0), vid(3)], &everyone, 1.0, threads).unwrap();
            assert_eq!(
                thinned.average_reached.to_bits(),
                baseline.average_reached.to_bits()
            );
            assert_eq!(thinned.delta.len(), baseline.delta.len());
            for (a, b) in thinned.delta.iter().zip(&baseline.delta) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prebunk_alpha_zero_matches_vertex_blocking_estimates() {
        let g = wc_pa(300, 5);
        let pool = SamplePool::build(&g, 64, 13).unwrap();
        // alpha = 0 never keeps an edge into the treated vertex — exactly a
        // vertex block as far as reachability is concerned.
        let mut mask = vec![false; g.num_vertices()];
        mask[7] = true;
        mask[11] = true;
        let prebunk = pooled_prebunk_decrease(&pool, &[vid(0)], &mask, 0.0, 1).unwrap();
        let blocked = pooled_decrease(&pool, &[vid(0)], &mask, 1).unwrap();
        assert_eq!(
            prebunk.average_reached.to_bits(),
            blocked.average_reached.to_bits()
        );
    }

    #[test]
    fn prebunk_greedy_respects_constraints_and_reports_honest_spread() {
        let g = wc_pa(300, 17);
        let pool = SamplePool::build(&g, 64, 29).unwrap();
        let mut forbidden = vec![false; g.num_vertices()];
        forbidden[2] = true;
        let baseline = pooled_decrease(&pool, &[vid(0)], &vec![false; g.num_vertices()], 1)
            .unwrap()
            .average_reached;
        let sel = pooled_prebunk_greedy_in(&pool, &[vid(0)], &forbidden, 3, 0.3, 1, false).unwrap();
        assert_eq!(sel.blockers.len(), 3);
        assert!(!sel.blockers.contains(&vid(0)), "never the seed");
        assert!(!sel.blockers.contains(&vid(2)), "never a forbidden vertex");
        let spread = sel.estimated_spread.unwrap();
        assert!(
            spread <= baseline,
            "prebunking must not increase the expected spread ({spread} > {baseline})"
        );
        // Thread-count invariance carries over to the full greedy.
        let four =
            pooled_prebunk_greedy_in(&pool, &[vid(0)], &forbidden, 3, 0.3, 4, false).unwrap();
        assert_eq!(four.blockers, sel.blockers);
        assert_eq!(four.estimated_spread, sel.estimated_spread);
    }

    /// Solves one pooled request through the public solver entry point.
    fn solve_family(
        g: &DiGraph,
        pool: &SamplePool,
        seeds: &[VertexId],
        budget: usize,
        algorithm: AlgorithmKind,
        intervention: Intervention,
        threads: usize,
    ) -> BlockerSelection {
        let request = ContainmentRequest::builder(g)
            .seeds(seeds.iter().copied())
            .budget(budget)
            .intervention(intervention)
            .pooled_with_threads(pool, threads)
            .build()
            .unwrap();
        algorithm.solver().solve(g, &request).unwrap()
    }

    /// Everything a selection pins: the picks in order, the bits of the
    /// spread estimate and the round accounting.
    fn fingerprint(sel: &BlockerSelection) -> String {
        let blockers: Vec<u32> = sel.blockers.iter().map(|v| v.raw()).collect();
        let edges: Vec<(u32, u32)> = sel
            .blocked_edges
            .iter()
            .map(|(u, v)| (u.raw(), v.raw()))
            .collect();
        format!(
            "blockers={blockers:?} edges={edges:?} spread={:#018x} rounds={} samples={}",
            sel.estimated_spread.map_or(0, f64::to_bits),
            sel.stats.rounds,
            sel.stats.samples_drawn
        )
    }

    /// FNV-1a over the bits of an estimate's deltas and average.
    fn estimate_digest(est: &DecreaseEstimate) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in est.delta.iter().chain([&est.average_reached]) {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Parity gate for the estimator behind edge blocking and prebunking:
    /// both pooled greedy flavours × every non-vertex family must reproduce
    /// these pinned selections, spreads and round counts on raw and
    /// compressed arenas at 1, 2 and 4 threads, and one prebunk delta
    /// vector must keep its digest. The values were recorded from the
    /// estimator that decoded whole realisations before its BFS.
    #[test]
    fn family_selections_match_their_golden_values() {
        const GOLDEN: [(AlgorithmKind, &str, &str); 8] = [
            (
                AlgorithmKind::AdvancedGreedy,
                "edge",
                "blockers=[] edges=[(2, 43), (40, 250), (2, 38)] spread=0x4042590000000000 rounds=3 samples=768",
            ),
            (
                AlgorithmKind::AdvancedGreedy,
                "prebunk:0",
                "blockers=[0, 4, 14] edges=[] spread=0x40407a0000000000 rounds=3 samples=1024",
            ),
            (
                AlgorithmKind::AdvancedGreedy,
                "prebunk:0.2",
                "blockers=[0, 4, 14] edges=[] spread=0x4041208000000000 rounds=3 samples=1024",
            ),
            (
                AlgorithmKind::AdvancedGreedy,
                "prebunk:1",
                "blockers=[0, 4, 1] edges=[] spread=0x4043ee0000000000 rounds=3 samples=1024",
            ),
            (
                AlgorithmKind::GreedyReplace,
                "edge",
                "blockers=[] edges=[(2, 43), (40, 250), (2, 38)] spread=0x4042590000000000 rounds=3 samples=768",
            ),
            (
                AlgorithmKind::GreedyReplace,
                "prebunk:0",
                "blockers=[0, 4, 14] edges=[] spread=0x40407a0000000000 rounds=4 samples=1280",
            ),
            (
                AlgorithmKind::GreedyReplace,
                "prebunk:0.2",
                "blockers=[0, 4, 14] edges=[] spread=0x4041208000000000 rounds=4 samples=1280",
            ),
            (
                AlgorithmKind::GreedyReplace,
                "prebunk:1",
                "blockers=[0, 4, 1] edges=[] spread=0x4043ee0000000000 rounds=4 samples=1280",
            ),
        ];
        const DELTA_DIGEST: u64 = 0x6587_e665_54cc_0c7a;
        let g = wc_pa(600, 23);
        let raw = SamplePool::build_with_threads(&g, 256, 91, 2).unwrap();
        let compressed = raw.compress(&g, 2).unwrap();
        let seeds = [vid(2), vid(40)];
        for (algorithm, spec, golden) in GOLDEN {
            let intervention: Intervention = spec.parse().unwrap();
            for (arena, pool) in [("raw", &raw), ("compressed", &compressed)] {
                for threads in [1, 2, 4] {
                    let sel = solve_family(&g, pool, &seeds, 3, algorithm, intervention, threads);
                    assert_eq!(
                        fingerprint(&sel),
                        golden,
                        "{} {spec} {arena} threads={threads}",
                        algorithm.name()
                    );
                }
            }
        }
        let mut prebunked = vec![false; g.num_vertices()];
        for v in [0, 1, 5, 9, 17, 33] {
            prebunked[v] = true;
        }
        for pool in [&raw, &compressed] {
            for threads in [1, 4] {
                let est = pooled_prebunk_decrease(pool, &seeds, &prebunked, 0.2, threads).unwrap();
                assert_eq!(estimate_digest(&est), DELTA_DIGEST, "threads={threads}");
            }
        }
    }

    /// GreedyReplace-flavoured edge rounds take a seed's out-edge while one
    /// still earns credit, even when an edge deeper in the cascade detaches
    /// more; AdvancedGreedy takes the deeper edge first.
    #[test]
    fn seed_first_edge_rounds_prefer_the_seed_edges() {
        // 0 -> {1, 2} -> 3 -> 4 -> {5..=10}, all probability 1.
        let mut edges = vec![
            (vid(0), vid(1), 1.0),
            (vid(0), vid(2), 1.0),
            (vid(1), vid(3), 1.0),
            (vid(2), vid(3), 1.0),
            (vid(3), vid(4), 1.0),
        ];
        edges.extend((5..=10).map(|v| (vid(4), vid(v), 1.0)));
        let g = DiGraph::from_edges(11, edges).unwrap();
        let pool = SamplePool::build(&g, 8, 3).unwrap();
        let ag = pooled_edge_greedy_in(&pool, &[vid(0)], 2, 1, false).unwrap();
        assert_eq!(ag.blocked_edges, vec![(vid(3), vid(4)), (vid(0), vid(1))]);
        assert_eq!(ag.estimated_spread, Some(3.0));
        let gr = pooled_edge_greedy_in(&pool, &[vid(0)], 1, 1, true).unwrap();
        assert_eq!(gr.blocked_edges, vec![(vid(0), vid(1))]);
        assert_eq!(gr.estimated_spread, Some(10.0));
        let gr = pooled_edge_greedy_in(&pool, &[vid(0)], 2, 1, true).unwrap();
        assert_eq!(gr.blocked_edges, vec![(vid(0), vid(1)), (vid(0), vid(2))]);
        assert_eq!(gr.estimated_spread, Some(1.0));
    }

    /// The containment gates of the three families, on one shared pool and
    /// through the same AdvancedGreedy entry point: the blocked spread never
    /// grows with the budget, never exceeds the unblocked baseline, and is
    /// bit-identical at 1 and 4 threads.
    #[test]
    fn every_family_contains_monotonically_and_deterministically() {
        let g = wc_pa(1_000, 20_230_227);
        let pool = SamplePool::build_with_threads(&g, 200, 7, 2).unwrap();
        let families = [
            Intervention::BlockVertices,
            Intervention::BlockEdges,
            Intervention::Prebunk { alpha: 0.2 },
        ];
        for seeds in [[vid(3), vid(500)], [vid(17), vid(18)], [vid(250), vid(999)]] {
            let advanced = AlgorithmKind::AdvancedGreedy;
            let no_op = Intervention::Prebunk { alpha: 1.0 };
            let base = solve_family(&g, &pool, &seeds, 1, advanced, no_op, 4)
                .estimated_spread
                .unwrap();
            for intervention in families {
                let mut prev = f64::INFINITY;
                for budget in [1, 2, 4, 8] {
                    let sel = solve_family(&g, &pool, &seeds, budget, advanced, intervention, 4);
                    let again = solve_family(&g, &pool, &seeds, budget, advanced, intervention, 1);
                    assert_eq!(fingerprint(&sel), fingerprint(&again), "{intervention}");
                    let spread = sel.estimated_spread.unwrap();
                    assert!(spread <= prev + 1e-9, "{intervention} b={budget}: grew");
                    assert!(
                        spread <= base + 1e-9,
                        "{intervention} b={budget}: above base"
                    );
                    prev = spread;
                }
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = diamond();
        let pool = SamplePool::build(&g, 4, 1).unwrap();
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[vid(0)], 0, 1, false),
            Err(IminError::ZeroBudget)
        ));
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[], 1, 1, false),
            Err(IminError::EmptySeedSet)
        ));
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[vid(9)], 1, 1, false),
            Err(IminError::SeedOutOfRange { .. })
        ));
        assert!(matches!(
            pooled_prebunk_greedy_in(&pool, &[vid(0)], &[false; 4], 1, 1.5, 1, false),
            Err(IminError::InvalidIntervention { .. })
        ));
        assert!(matches!(
            pooled_prebunk_decrease(&pool, &[vid(0)], &[false; 3], 0.5, 1),
            Err(IminError::Diffusion(_))
        ));
    }
}
