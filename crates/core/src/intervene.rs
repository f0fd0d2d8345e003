//! Intervention families beyond vertex blocking — edge blocking and
//! prebunking against a resident [`SamplePool`].
//!
//! The paper blocks *vertices*; the surrounding literature shows the same
//! pooled-realisation machinery answers two sibling questions:
//!
//! * **Edge blocking** (Zehmakan & Maurya, arXiv 2308.08860): remove `k`
//!   edges instead of vertices. In a stored realisation a removed edge is a
//!   targeted live-edge deletion — and when the deleted edge `(u, v)` is
//!   the only live edge into `v` from outside `v`'s dominator subtree,
//!   deleting it detaches exactly the vertices dominated by `v` (the other
//!   in-edges come from vertices reachable only through `v`), so the
//!   dominator-tree subtree size prices the edge **exactly** per
//!   realisation.
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
//! laps in traces. Their greedy rounds run in the one greedy driver
//! (`greedy.rs`) that vertex blocking uses too. This module only
//! supplies what differs: the edge filter of each family (deleted edges,
//! `α`-coins), the edge pricer, and each family's plan — seed-edge
//! preference for edges, a replacement sweep without an out-neighbour
//! phase and a final evaluation pass for prebunking.

use crate::decrease::DecreaseEstimate;
use crate::greedy::{self, Plan, Priced, Pricer, VertexPricer};
use crate::pool::{
    check_mask_len, edge_credit, vertex_credit, with_pool_workspace, EdgeFilter, PoolWorkspace,
    Rerooted, SamplePool,
};
use crate::types::BlockerSelection;
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
pub(crate) struct DeletedEdges<'a> {
    pub(crate) deleted: &'a HashSet<(u32, u32)>,
    pub(crate) deleted_src: &'a [bool],
}

impl EdgeFilter for DeletedEdges<'_> {
    #[inline]
    fn keeps(&self, _sample: usize, u: u32, t: u32) -> bool {
        !(self.deleted_src[u as usize] && self.deleted.contains(&(u, t)))
    }
}

/// Prebunking: a live edge into a prebunked vertex survives only when its
/// `α`-coin for this realisation falls below the acceptance threshold.
pub(crate) struct PrebunkCoins<'a> {
    prebunked: &'a [bool],
    keep_threshold: u64,
    pool_seed: u64,
}

impl<'a> PrebunkCoins<'a> {
    pub(crate) fn new(pool: &SamplePool, prebunked: &'a [bool], alpha: f64) -> Self {
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
        let mut estimate = DecreaseEstimate::default();
        vertex_credit(&Rerooted { pool, filter }, threads, ws, &mut estimate);
        Ok(estimate)
    })
}

/// Prices edges by their exact dominator credit (see
/// [`crate::pool::edge_credit`]) under the edges deleted so far. Only
/// edges with positive credit are offered, so the greedy stops once no
/// deletion would change anything. Like the vertex pricer it keeps a
/// ledger: deleting `(u, v)` rebuilds only the realisations whose BFS
/// scanned `v`.
struct EdgePricer<'a> {
    pool: &'a SamplePool,
    threads: usize,
    workspace: &'a mut PoolWorkspace,
    deleted: HashSet<(u32, u32)>,
    deleted_src: Vec<bool>,
}

impl<'a> EdgePricer<'a> {
    /// Stages `seeds` into `workspace` and starts the query's ledger.
    fn new(
        pool: &'a SamplePool,
        seeds: &[VertexId],
        threads: usize,
        workspace: &'a mut PoolWorkspace,
    ) -> Result<Self> {
        let n = pool.num_vertices();
        workspace.stage_seeds(n, seeds, None)?;
        workspace.start_ledger();
        Ok(EdgePricer {
            pool,
            threads,
            workspace,
            deleted: HashSet::new(),
            deleted_src: vec![false; n],
        })
    }
}

impl Pricer for EdgePricer<'_> {
    type Candidate = (u32, u32);

    fn price(&mut self) -> Result<Priced> {
        let (deleted, deleted_src) = (&self.deleted, &self.deleted_src);
        let filter = DeletedEdges {
            deleted,
            deleted_src,
        };
        let source = Rerooted {
            pool: self.pool,
            filter,
        };
        Ok(edge_credit(&source, self.threads, self.workspace))
    }

    fn offers(&self, mut visit: impl FnMut((u32, u32), f64)) {
        for (&edge, &credit) in self.workspace.edge_credit() {
            visit(edge, credit as f64);
        }
    }

    fn offer(&self, edge: (u32, u32)) -> Option<f64> {
        let credit = self.workspace.edge_credit().get(&edge);
        credit.map(|&credit| credit as f64)
    }

    fn spread(&self) -> f64 {
        self.workspace.reached() as f64 / self.pool.theta() as f64
    }

    fn spread_after(&self, edge: (u32, u32)) -> f64 {
        let credit = self.workspace.edge_credit()[&edge];
        self.spread() - credit as f64 / self.pool.theta() as f64
    }

    fn set(&mut self, edge: (u32, u32), deleted: bool) {
        if deleted {
            self.deleted.insert(edge);
        } else {
            self.deleted.remove(&edge);
        }
        self.deleted_src[edge.0 as usize] = self.deleted.iter().any(|&(u, _)| u == edge.0);
        self.workspace.mark_changed(edge.1);
    }

    fn selection(picks: Vec<(u32, u32)>) -> BlockerSelection {
        let edge = |(u, v)| (VertexId::from_raw(u), VertexId::from_raw(v));
        BlockerSelection {
            blocked_edges: picks.into_iter().map(edge).collect(),
            ..BlockerSelection::new(Vec::new())
        }
    }
}

/// Greedy edge blocking against a borrowed resident pool: every round
/// prices all live edges by their exact dominator credit, deletes the
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
    let leaves_a_seed = |(u, _): (u32, u32)| seeds.contains(&VertexId::from_raw(u));
    let plan = Plan {
        prefer: seed_first.then_some(&leaves_a_seed as &dyn Fn(_) -> bool),
        ..Plan::advanced()
    };
    with_pool_workspace(|workspace| {
        let mut pricer = EdgePricer::new(pool, seeds, threads, workspace)?;
        greedy::run(&mut pricer, budget, &plan, start)
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
    with_pool_workspace(|workspace| {
        let mut pricer = prebunk_pricer(pool, seeds, forbidden, alpha, threads, workspace)?;
        greedy::run(&mut pricer, budget, &prebunk_plan(replace), start)
    })
}

/// Prices prebunk targets by their blocking credit under the `α`-coins of
/// the vertices prebunked so far, keeping a ledger.
fn prebunk_pricer<'a>(
    pool: &'a SamplePool,
    seeds: &[VertexId],
    forbidden: &'a [bool],
    alpha: f64,
    threads: usize,
    workspace: &'a mut PoolWorkspace,
) -> Result<VertexPricer<'a>> {
    let pass = move |prebunked: &[bool], ws: &mut PoolWorkspace, est: &mut DecreaseEstimate| {
        let filter = PrebunkCoins::new(pool, prebunked, alpha);
        Ok(vertex_credit(&Rerooted { pool, filter }, threads, ws, est))
    };
    let n = pool.num_vertices();
    Ok(VertexPricer::new(workspace, n, seeds, forbidden, Box::new(pass))?.ledgered())
}

/// Prebunking's plan: an optional replacement sweep, then one pass under
/// the final treatment that reports the spread.
fn prebunk_plan<'a>(replace: bool) -> Plan<'a, VertexId> {
    Plan {
        replace,
        final_pass: true,
        ..Plan::advanced()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decrease::{decrease_es_multi_in, DecreaseConfig, DecreaseWorkspace};
    use crate::pool::{pooled_decrease, LEDGER_CAP_BYTES};
    use crate::request::ContainmentRequest;
    use crate::sampler::IcLiveEdgeSampler;
    use crate::triggering::{advanced_greedy_triggering, greedy_replace_triggering};
    use crate::{AlgorithmConfig, AlgorithmKind};
    use imin_diffusion::triggering::LtTriggering;
    use imin_graph::traversal::reachable_count_blocked;
    use imin_graph::{generators, DiGraph};
    use std::collections::BTreeSet;

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
    /// estimator that decoded whole realisations before its BFS; the two
    /// edge rows were re-recorded once, when the edge credit stopped
    /// ignoring in-edges from the target's own dominator subtree (see
    /// `credits_equal_brute_force_deletion_gains`).
    #[test]
    fn family_selections_match_their_golden_values() {
        const GOLDEN: [(AlgorithmKind, &str, &str); 8] = [
            (
                AlgorithmKind::AdvancedGreedy,
                "edge",
                "blockers=[] edges=[(2, 38), (2, 257), (2, 43)] spread=0x4041ed0000000000 rounds=3 samples=768",
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
                "blockers=[] edges=[(2, 38), (2, 257), (2, 43)] spread=0x4041ed0000000000 rounds=3 samples=768",
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
        let raw = SamplePool::build_with_threads(&g, 256, 91, 2)
            .unwrap()
            .raw_copy();
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

    /// Parity gate for every vertex-blocking greedy and the Fresh
    /// estimator, on the graph of the family gate with vertex 4 forbidden:
    /// Fresh AG/GR through the solver (IC, 1 and 3 seeds) and the
    /// triggering shims (LT, 1 seed), one golden per thread count because
    /// a Fresh run splits its RNG stream by worker; pooled AG/GR (1 and 2
    /// seeds), checked on both arenas at 1, 2 and 4 threads; and digests
    /// of Fresh multi-seed estimates. The values were recorded before the
    /// greedy loops shared one driver and the Fresh path the pooled kernel.
    #[test]
    fn vertex_selections_match_their_golden_values() {
        const GOLDEN: [&str; 22] = [
            "fresh advanced seeds=1 threads=1 blockers=[1, 6, 7] edges=[] spread=0x403c4b0000000000 rounds=3 samples=768",
            "fresh advanced seeds=3 threads=1 blockers=[1, 0, 7] edges=[] spread=0x4042138000000000 rounds=3 samples=768",
            "fresh replace seeds=1 threads=1 blockers=[0, 1, 6] edges=[] spread=0x4040550000000000 rounds=5 samples=1280",
            "fresh replace seeds=3 threads=1 blockers=[0, 1, 29] edges=[] spread=0x4043a60000000000 rounds=5 samples=1280",
            "lt AG threads=1 blockers=[29, 1, 9] edges=[] spread=0x4040a60000000000 rounds=3 samples=768",
            "lt GR threads=1 blockers=[0, 7, 1] edges=[] spread=0x40406c8000000000 rounds=4 samples=1024",
            "fresh advanced seeds=1 threads=2 blockers=[0, 1, 7] edges=[] spread=0x403de60000000000 rounds=3 samples=768",
            "fresh advanced seeds=3 threads=2 blockers=[0, 7, 14] edges=[] spread=0x4042910000000000 rounds=3 samples=768",
            "fresh replace seeds=1 threads=2 blockers=[1, 251, 14] edges=[] spread=0x403e250000000000 rounds=6 samples=1536",
            "fresh replace seeds=3 threads=2 blockers=[1, 0, 22] edges=[] spread=0x40422e8000000000 rounds=5 samples=1280",
            "lt AG threads=2 blockers=[0, 6, 1] edges=[] spread=0x4040920000000000 rounds=3 samples=768",
            "lt GR threads=2 blockers=[0, 6, 44] edges=[] spread=0x403fbc0000000000 rounds=5 samples=1280",
            "fresh advanced seeds=1 threads=4 blockers=[0, 1, 6] edges=[] spread=0x403e590000000000 rounds=3 samples=768",
            "fresh advanced seeds=3 threads=4 blockers=[0, 8, 29] edges=[] spread=0x4042970000000000 rounds=3 samples=768",
            "fresh replace seeds=1 threads=4 blockers=[0, 1, 40] edges=[] spread=0x403ce70000000000 rounds=6 samples=1536",
            "fresh replace seeds=3 threads=4 blockers=[0, 1, 6] edges=[] spread=0x4041958000000000 rounds=6 samples=1536",
            "lt AG threads=4 blockers=[0, 1, 6] edges=[] spread=0x4040b80000000000 rounds=3 samples=768",
            "lt GR threads=4 blockers=[0, 14, 1] edges=[] spread=0x4040cd0000000000 rounds=5 samples=1280",
            "pooled advanced seeds=1 blockers=[0, 1, 14] edges=[] spread=0x403c290000000000 rounds=3 samples=768",
            "pooled advanced seeds=2 blockers=[0, 14, 1] edges=[] spread=0x4040a88000000000 rounds=3 samples=768",
            "pooled replace seeds=1 blockers=[0, 1, 14] edges=[] spread=0x403c290000000000 rounds=4 samples=1024",
            "pooled replace seeds=2 blockers=[0, 14, 1] edges=[] spread=0x4040a88000000000 rounds=4 samples=1024",
        ];
        const DIGESTS: [u64; 4] = [
            0xea22_6b19_be51_9e1f,
            0x1e6b_61d1_af70_b7b7,
            0x7064_c40a_71f4_a4d7,
            0x2a89_fa4d_47b6_cb83,
        ];
        let g = wc_pa(600, 23);
        let raw = SamplePool::build_with_threads(&g, 256, 91, 2)
            .unwrap()
            .raw_copy();
        let compressed = raw.compress(&g, 2).unwrap();
        let mut forbidden = vec![false; g.num_vertices()];
        forbidden[4] = true;
        let (one, two, three) = (
            &[vid(2)][..],
            &[vid(2), vid(40)][..],
            &[vid(2), vid(40), vid(77)][..],
        );
        let solve =
            |algorithm: AlgorithmKind, seeds: &[VertexId], pool: Option<&SamplePool>, threads| {
                let builder = ContainmentRequest::builder(&g)
                    .seeds(seeds.iter().copied())
                    .budget(3);
                let builder = builder.forbid_mask(forbidden.clone());
                let request = match pool {
                    Some(pool) => builder.pooled_with_threads(pool, threads),
                    None => builder.fresh(256, 0x5EED, threads),
                };
                fingerprint(
                    &algorithm
                        .solver()
                        .solve(&g, &request.build().unwrap())
                        .unwrap(),
                )
            };
        let label = |algorithm: AlgorithmKind, seeds: &[VertexId]| {
            format!("{} seeds={}", algorithm.name(), seeds.len())
        };
        let greedies = [AlgorithmKind::AdvancedGreedy, AlgorithmKind::GreedyReplace];
        type Shim = fn(
            &LtTriggering,
            &DiGraph,
            VertexId,
            &[bool],
            usize,
            &AlgorithmConfig,
        ) -> Result<BlockerSelection>;
        let lt_shims: [(&str, Shim); 2] = [
            ("AG", advanced_greedy_triggering),
            ("GR", greedy_replace_triggering),
        ];
        let mut actual = Vec::new();
        for threads in [1, 2, 4] {
            for algorithm in greedies {
                for seeds in [one, three] {
                    let fresh = solve(algorithm, seeds, None, threads);
                    actual.push(format!(
                        "fresh {} threads={threads} {fresh}",
                        label(algorithm, seeds)
                    ));
                }
            }
            let config = AlgorithmConfig::fast_for_tests()
                .with_theta(256)
                .with_threads(threads);
            for (name, shim) in lt_shims {
                let sel = shim(&LtTriggering, &g, vid(2), &forbidden, 3, &config).unwrap();
                actual.push(format!("lt {name} threads={threads} {}", fingerprint(&sel)));
            }
        }
        for algorithm in greedies {
            for seeds in [one, two] {
                let reference = solve(algorithm, seeds, Some(&raw), 1);
                for pool in [&raw, &compressed] {
                    for threads in [1, 2, 4] {
                        assert_eq!(solve(algorithm, seeds, Some(pool), threads), reference);
                    }
                }
                actual.push(format!("pooled {} {reference}", label(algorithm, seeds)));
            }
        }
        for (line, golden) in actual.iter().zip(GOLDEN) {
            assert_eq!(line, golden);
        }
        let mut digests = Vec::new();
        for seeds in [one, three] {
            for threads in [1, 3] {
                let config = DecreaseConfig {
                    theta: 256,
                    threads,
                    seed: 0x5EED,
                };
                let mut ws = DecreaseWorkspace::new();
                let est = decrease_es_multi_in(
                    &IcLiveEdgeSampler,
                    &g,
                    seeds,
                    &forbidden,
                    &config,
                    &mut ws,
                );
                digests.push(estimate_digest(&est.unwrap()));
            }
        }
        assert_eq!(digests, DIGESTS);
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

    /// The exact rung of the estimator checks, one realisation per pool
    /// (θ = 1) so every credit is an integer: a vertex's credit is the drop
    /// in reached count when it is blocked (Theorem 6), an edge's credit the
    /// drop when it is deleted, and prebunking at α = 0 is vertex blocking
    /// bit for bit — by brute force on a back-edge cycle and on a
    /// bidirectional WC graph, where deleting an edge into a cycle detaches
    /// the cycle even though the edge is not its target's only live in-edge.
    #[test]
    fn credits_equal_brute_force_deletion_gains() {
        let cycle = [(0, 1), (1, 2), (2, 1), (0, 3)].map(|(u, v)| (vid(u), vid(v), 1.0));
        let cycle = DiGraph::from_edges(4, cycle).unwrap();
        for (g, seeds) in [(cycle, vec![vid(0)]), (wc_pa(60, 3), vec![vid(0), vid(7)])] {
            let n = g.num_vertices();
            let is_seed = |v: usize| seeds.contains(&vid(v));
            let treated: Vec<bool> = (0..n).map(|v| v % 3 == 1 && !is_seed(v)).collect();
            for pool_seed in 0..8 {
                let pool = SamplePool::build(&g, 1, pool_seed).unwrap();
                let (offsets, targets) = pool.sample_csr(0);
                let out = |u: usize| &targets[offsets[u] as usize..offsets[u + 1] as usize];
                let live: Vec<(u32, u32)> = (0..n)
                    .flat_map(|u| out(u).iter().map(move |&t| (u as u32, t)))
                    .collect();
                // Brute force: the realisation without vertex `blocked` and
                // edge `cut`, searched from the seeds.
                let reach = |blocked: Option<usize>, cut: Option<(u32, u32)>| {
                    let kept = live.iter().filter(|&&e| Some(e) != cut);
                    let edges = kept.map(|&(u, v)| (vid(u as usize), vid(v as usize), 1.0));
                    let realisation = DiGraph::from_edges(n, edges).unwrap();
                    let mask: Vec<bool> = (0..n).map(|v| Some(v) == blocked).collect();
                    reachable_count_blocked(&realisation, &seeds, &mask) as u64
                };
                let base = reach(None, None);
                let est = pooled_decrease(&pool, &seeds, &vec![false; n], 1).unwrap();
                for v in (0..n).filter(|&v| !is_seed(v)) {
                    let gain = (base - reach(Some(v), None)) as f64;
                    assert_eq!(est.delta[v], gain, "pool seed {pool_seed}: vertex {v}");
                }
                let credit = with_pool_workspace(|ws| {
                    ws.stage_seeds(n, &seeds, None).unwrap();
                    let (deleted, deleted_src) = (&HashSet::new(), &vec![false; n]);
                    let filter = DeletedEdges {
                        deleted,
                        deleted_src,
                    };
                    edge_credit(
                        &Rerooted {
                            pool: &pool,
                            filter,
                        },
                        1,
                        ws,
                    );
                    ws.edge_credit().clone()
                });
                for &(u, v) in &live {
                    let gain = base - reach(None, Some((u, v)));
                    let got = credit.get(&(u, v)).copied().unwrap_or(0);
                    assert_eq!(got, gain, "pool seed {pool_seed}: edge ({u}, {v})");
                }
                let prebunk = pooled_prebunk_decrease(&pool, &seeds, &treated, 0.0, 1).unwrap();
                let blocked = pooled_decrease(&pool, &seeds, &treated, 1).unwrap();
                assert_eq!(estimate_digest(&prebunk), estimate_digest(&blocked));
            }
        }
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

    /// A pricer that, after every pass, prices the same treatment from
    /// scratch and requires the offers and the spread bit for bit, each
    /// candidate's own offer to agree with them, and the best contender
    /// to be the best offer.
    struct Checked<P: Pricer, R> {
        inner: P,
        treatment: BTreeSet<P::Candidate>,
        reference: R,
        label: String,
    }

    /// A from-scratch pass: the offers and the spread bits under a
    /// treatment.
    type Scored<C> = (Vec<(C, u64)>, u64);

    impl<P, R> Pricer for Checked<P, R>
    where
        P: Pricer,
        R: FnMut(&BTreeSet<P::Candidate>) -> Scored<P::Candidate>,
    {
        type Candidate = P::Candidate;

        fn price(&mut self) -> Result<Priced> {
            let priced = self.inner.price()?;
            let mut offers = Vec::new();
            self.inner
                .offers(|c, score| offers.push((c, score.to_bits())));
            offers.sort_unstable();
            let (mut expected, spread) = (self.reference)(&self.treatment);
            expected.sort_unstable();
            let label = &self.label;
            assert!(offers == expected, "{label}: offers differ from scratch");
            assert_eq!(self.inner.spread().to_bits(), spread, "{label}: spread");
            for &(c, score) in &offers {
                let offer = self.inner.offer(c).map(f64::to_bits);
                assert_eq!(offer, Some(score), "{label}: one offer");
            }
            for &c in &self.treatment {
                assert_eq!(self.inner.offer(c), None, "{label}: a treated offer");
            }
            let (mut best, mut contender) = (None, None);
            self.inner
                .offers(|c, score| greedy::keep_best(&mut best, c, score));
            self.inner
                .contenders(|c, score| greedy::keep_best(&mut contender, c, score));
            let bits = |best: Option<(f64, P::Candidate)>| best.map(|(s, c)| (s.to_bits(), c));
            assert!(bits(contender) == bits(best), "{label}: best contender");
            assert!(priced.rebuilt <= priced.samples, "{label}");
            Ok(priced)
        }

        fn offers(&self, visit: impl FnMut(P::Candidate, f64)) {
            self.inner.offers(visit);
        }

        fn contenders(&self, visit: impl FnMut(P::Candidate, f64)) {
            self.inner.contenders(visit);
        }

        fn offer(&self, c: P::Candidate) -> Option<f64> {
            self.inner.offer(c)
        }

        fn spread(&self) -> f64 {
            self.inner.spread()
        }

        fn spread_after(&self, c: P::Candidate) -> f64 {
            self.inner.spread_after(c)
        }

        fn set(&mut self, c: P::Candidate, treated: bool) {
            if treated {
                self.treatment.insert(c);
            } else {
                self.treatment.remove(&c);
            }
            self.inner.set(c, treated);
        }

        fn selection(picks: Vec<P::Candidate>) -> BlockerSelection {
            P::selection(picks)
        }
    }

    /// Runs `pricer` under `plan` with every pass checked against
    /// `reference`; returns the stats of the selection.
    fn checked_run<P: Pricer>(
        inner: P,
        reference: impl FnMut(&BTreeSet<P::Candidate>) -> Scored<P::Candidate>,
        budget: usize,
        plan: &Plan<'_, P::Candidate>,
        label: String,
    ) -> crate::SelectionStats {
        let mut pricer = Checked {
            inner,
            treatment: BTreeSet::new(),
            reference,
            label,
        };
        greedy::run(&mut pricer, budget, plan, Instant::now())
            .unwrap()
            .stats
    }

    /// Treats the best offer three times, then untreats the three picks
    /// first pick first, with every pass checked against `reference`: an
    /// unpick must bring back whatever any earlier pick cut, which
    /// GreedyReplace's sweep, last pick first, seldom reaches.
    fn checked_unpicks<P: Pricer>(
        inner: P,
        reference: impl FnMut(&BTreeSet<P::Candidate>) -> Scored<P::Candidate>,
        label: String,
    ) {
        let mut pricer = Checked {
            inner,
            treatment: BTreeSet::new(),
            reference,
            label,
        };
        let mut picks = Vec::new();
        for _ in 0..3 {
            pricer.price().unwrap();
            let mut best = None;
            pricer.offers(|c, score| greedy::keep_best(&mut best, c, score));
            let Some((_, c)) = best else { break };
            pricer.set(c, true);
            picks.push(c);
        }
        for c in picks {
            pricer.price().unwrap();
            pricer.set(c, false);
        }
        pricer.price().unwrap();
    }

    /// The vertex offers and spread of a from-scratch estimate: every
    /// vertex but the seeds, the forbidden and the treated ones.
    fn vertex_offers(
        est: &DecreaseEstimate,
        seeds: &[VertexId],
        forbidden: &[bool],
        treated: &BTreeSet<VertexId>,
    ) -> Scored<VertexId> {
        let offers = (0..est.delta.len())
            .map(vid)
            .filter(|v| !seeds.contains(v) && !forbidden[v.index()] && !treated.contains(v))
            .map(|v| (v, est.delta[v.index()].to_bits()))
            .collect();
        (offers, est.average_reached.to_bits())
    }

    /// The ledger gate: every pooled pricer — vertex AdvancedGreedy and
    /// GreedyReplace (whose replacement sweep unblocks vertices), prebunk
    /// at α ∈ {0, 0.2, 1} in both flavours, and both edge flavours — is
    /// driven round by round on raw, compressed and mapped arenas at 1, 2
    /// and 4 threads, and after every pass its ledger-updated offers and
    /// spread must equal a from-scratch pass under the same treatment, bit
    /// for bit; so must a scripted run per family that takes back its
    /// picks first pick first. The ledger must save work on these
    /// questions, every rebuild after a question's first pass must be a
    /// replay of that pass's recorded cascade, and one question whose
    /// ledger outgrows [`LEDGER_CAP_BYTES`] must rebuild every realisation
    /// of every pass from the arena, replay none, and still match.
    #[test]
    fn ledger_rounds_match_from_scratch_passes() {
        let g = wc_pa(600, 23);
        let n = g.num_vertices();
        let raw = SamplePool::build_with_threads(&g, 128, 91, 2)
            .unwrap()
            .raw_copy();
        let compressed = raw.compress(&g, 2).unwrap();
        let path = std::env::temp_dir().join(format!(
            "imin-ledger-parity-{}.iminsnap",
            std::process::id()
        ));
        crate::snapshot::save_snapshot(&path, &g, &raw, "ledger").unwrap();
        let mapped = crate::snapshot::map_snapshot(&path).unwrap().pool;
        let mut forbidden = vec![false; n];
        forbidden[4] = true;
        let (mut drawn, mut rebuilt) = (0, 0);
        let (small, hub) = ([vid(2), vid(40)], [vid(0), vid(77)]);
        for (arena, pool) in [
            ("raw", &raw),
            ("compressed", &compressed),
            ("mapped", &mapped),
        ] {
            for (threads, seeds) in [(1, small), (1, hub), (2, small), (4, hub)] {
                let label = |family: &str| format!("{family} {arena} threads={threads} {seeds:?}");
                let mut stats = Vec::new();
                let blocked = |treated: &BTreeSet<VertexId>| {
                    let mut mask = vec![false; n];
                    treated.iter().for_each(|v| mask[v.index()] = true);
                    let est = pooled_decrease(pool, &seeds, &mask, 1).unwrap();
                    vertex_offers(&est, &seeds, &forbidden, treated)
                };
                for replace in [false, true] {
                    let ws = &mut PoolWorkspace::new();
                    let pricer =
                        VertexPricer::pooled(pool, &seeds, &forbidden, threads, ws).unwrap();
                    let plan = if replace {
                        Plan::replace(pricer.out_neighbours(&g, &seeds))
                    } else {
                        Plan::advanced()
                    };
                    stats.push(checked_run(pricer, blocked, 4, &plan, label("vertex")));
                }
                let ws = &mut PoolWorkspace::new();
                let pricer = VertexPricer::pooled(pool, &seeds, &forbidden, threads, ws).unwrap();
                checked_unpicks(pricer, blocked, label("vertex unpicks"));
                for alpha in [0.0, 0.2, 1.0] {
                    let prebunked = |treated: &BTreeSet<VertexId>| {
                        let mut mask = vec![false; n];
                        treated.iter().for_each(|v| mask[v.index()] = true);
                        let est = pooled_prebunk_decrease(pool, &seeds, &mask, alpha, 1).unwrap();
                        vertex_offers(&est, &seeds, &forbidden, treated)
                    };
                    for replace in [false, true] {
                        let ws = &mut PoolWorkspace::new();
                        let pricer =
                            prebunk_pricer(pool, &seeds, &forbidden, alpha, threads, ws).unwrap();
                        let plan = prebunk_plan(replace);
                        let family = format!("prebunk:{alpha}");
                        stats.push(checked_run(pricer, prebunked, 3, &plan, label(&family)));
                    }
                    let ws = &mut PoolWorkspace::new();
                    let pricer =
                        prebunk_pricer(pool, &seeds, &forbidden, alpha, threads, ws).unwrap();
                    checked_unpicks(
                        pricer,
                        prebunked,
                        label(&format!("prebunk:{alpha} unpicks")),
                    );
                }
                let deleted = |treated: &BTreeSet<(u32, u32)>| {
                    let ws = &mut PoolWorkspace::new();
                    ws.stage_seeds(n, &seeds, None).unwrap();
                    let deleted: HashSet<(u32, u32)> = treated.iter().copied().collect();
                    let mut deleted_src = vec![false; n];
                    deleted
                        .iter()
                        .for_each(|&(u, _)| deleted_src[u as usize] = true);
                    let (deleted, deleted_src) = (&deleted, &deleted_src);
                    let filter = DeletedEdges {
                        deleted,
                        deleted_src,
                    };
                    edge_credit(&Rerooted { pool, filter }, 1, ws);
                    let offers = ws.edge_credit().iter();
                    let offers = offers.map(|(&e, &c)| (e, (c as f64).to_bits())).collect();
                    (
                        offers,
                        (ws.reached() as f64 / pool.theta() as f64).to_bits(),
                    )
                };
                let leaves_a_seed = |(u, _): (u32, u32)| seeds.contains(&VertexId::from_raw(u));
                for seed_first in [false, true] {
                    let plan = Plan {
                        prefer: seed_first.then_some(&leaves_a_seed as &dyn Fn(_) -> bool),
                        ..Plan::advanced()
                    };
                    let ws = &mut PoolWorkspace::new();
                    let pricer = EdgePricer::new(pool, &seeds, threads, ws).unwrap();
                    stats.push(checked_run(pricer, deleted, 3, &plan, label("edge")));
                }
                let ws = &mut PoolWorkspace::new();
                let pricer = EdgePricer::new(pool, &seeds, threads, ws).unwrap();
                checked_unpicks(pricer, deleted, label("edge unpicks"));
                for s in &stats {
                    assert_eq!(
                        s.samples_replayed,
                        s.samples_rebuilt - pool.theta(),
                        "{}: every rebuild after the first pass is a replay",
                        label("")
                    );
                }
                drawn += stats.iter().map(|s| s.samples_drawn).sum::<usize>();
                rebuilt += stats.iter().map(|s| s.samples_rebuilt).sum::<usize>();
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(
            2 * rebuilt < drawn,
            "the ledger must save work: rebuilt {rebuilt} of {drawn}"
        );

        // Every vertex of this deterministic graph is reached in every
        // realisation, so 64 realisations need records for 64 × 19,999
        // credited vertices: over the cap.
        let big = 20_000;
        let edges = (1..big).flat_map(|v| {
            let tree = (vid((v - 1) / 2), vid(v), 1.0);
            let cross = (v >= 4).then(|| (vid(v - 3), vid(v), 1.0));
            std::iter::once(tree).chain(cross)
        });
        let g = DiGraph::from_edges(big, edges).unwrap();
        let pool = SamplePool::build_with_threads(&g, 64, 5, 2).unwrap();
        assert!(64 * (big - 1) * 16 > LEDGER_CAP_BYTES);
        let (seeds, forbidden) = ([vid(0)], vec![false; big]);
        let blocked = |treated: &BTreeSet<VertexId>| {
            let mut mask = vec![false; big];
            treated.iter().for_each(|v| mask[v.index()] = true);
            let est = pooled_decrease(&pool, &seeds, &mask, 2).unwrap();
            vertex_offers(&est, &seeds, &forbidden, treated)
        };
        let ws = &mut PoolWorkspace::new();
        let pricer = VertexPricer::pooled(&pool, &seeds, &forbidden, 2, ws).unwrap();
        let stats = checked_run(pricer, blocked, 2, &Plan::advanced(), "over the cap".into());
        assert_eq!(stats.samples_drawn, 2 * 64);
        assert_eq!(
            stats.samples_rebuilt,
            2 * 64,
            "over the cap, every pass is full"
        );
        assert_eq!(
            stats.samples_replayed, 0,
            "over the cap, nothing is replayed"
        );
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
