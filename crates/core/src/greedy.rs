//! The one greedy driver behind Algorithms 3 and 4, for every backend and
//! intervention family.
//!
//! The paper has one estimator (Algorithm 2) and two greedy shapes on top
//! of it: AdvancedGreedy (Algorithm 3) treats the best-priced candidate
//! each round; GreedyReplace (Algorithm 4) first ranks the seeds'
//! out-neighbours, fills the budget, then revisits its picks in reverse
//! order. [`run`] is that loop over a [`Pricer`] — one estimator pass under
//! the current treatment, and the vertices or edges it prices. What the
//! vertex, edge and prebunk entry points do differently is data: the Fresh
//! sample seeds per call ([`SeedSchedule`]), what `stats.rounds` counts
//! ([`Rounds`]), the out-neighbour phase, the edge family's seed-edge
//! preference, the replacement sweep and prebunking's final pass
//! ([`Plan`]). The edge family stops once no edge earns credit because its
//! pricer offers credited edges only.
//!
//! A pass need not re-price from scratch. [`Pricer::set`] tells the pricer
//! what each pick or replacement changed, and the pooled pricers hand that
//! to the ledger of the kernel (`pool.rs`), so every pass after the first
//! rebuilds only the realisations the change can affect, from the cascades
//! the first pass recorded. [`Priced`] reports the counts:
//! `stats.samples_drawn` keeps counting θ per pass, as the replies'
//! `samples=` always has, `stats.samples_rebuilt` counts the realisations
//! actually rebuilt and `stats.samples_replayed` those rebuilt from a
//! record.
//!
//! Algorithm 4's out-neighbour phase chooses among a handful of listed
//! candidates, so it prices them one by one ([`Pricer::offer`]) instead of
//! scanning every offer of the pass.

use crate::advanced_greedy::fresh_advanced_greedy_with;
use crate::decrease::{decrease_es_multi_in, DecreaseConfig, DecreaseEstimate};
use crate::greedy_replace::fresh_greedy_replace_with;
use crate::intervene::{pooled_edge_greedy_in, pooled_prebunk_greedy_in};
use crate::pool::{pooled_advanced_greedy_in, pooled_greedy_replace_in, with_pool_workspace};
use crate::pool::{vertex_credit, BlockedVertices, PoolWorkspace, Rerooted, SamplePool};
use crate::request::{ContainmentRequest, EvalBackend};
use crate::sampler::{IcLiveEdgeSampler, SpreadSampler};
use crate::types::{BlockerSelection, SelectionStats};
use crate::{AlgorithmKind, IminError, Intervention, Result};
use imin_graph::{DiGraph, VertexId};
use std::time::Instant;

/// The [`crate::BlockerSolver::solve`] of AdvancedGreedy and GreedyReplace:
/// one entry point per backend for vertex blocking, the pooled edge and
/// prebunk greedies for the other families (their GreedyReplace flavour
/// prefers seed edges or sweeps its picks). The forbidden set is a vertex
/// constraint that edge blocking ignores: an edge may be cut even when an
/// endpoint is protected from removal. The fresh and sketch backends
/// answer vertex requests only.
pub(crate) fn solve(
    kind: AlgorithmKind,
    graph: &DiGraph,
    request: &ContainmentRequest<'_>,
) -> Result<BlockerSelection> {
    request.ensure_graph(graph)?;
    let replace = kind == AlgorithmKind::GreedyReplace;
    let (seeds, forbidden) = (request.seeds(), request.forbidden().mask());
    let (budget, sampler) = (request.budget(), &IcLiveEdgeSampler);
    match (request.intervention(), *request.backend()) {
        (
            Intervention::BlockVertices,
            EvalBackend::Fresh {
                theta,
                seed,
                threads,
            },
        ) => {
            if replace {
                fresh_greedy_replace_with(sampler, graph, request, theta, seed, threads)
            } else {
                fresh_advanced_greedy_with(sampler, graph, request, theta, seed, threads)
            }
        }
        (Intervention::BlockVertices, EvalBackend::Pooled { pool, threads }) => {
            with_pool_workspace(|ws| {
                if replace {
                    pooled_greedy_replace_in(pool, graph, seeds, forbidden, budget, threads, ws)
                } else {
                    pooled_advanced_greedy_in(pool, seeds, forbidden, budget, threads, ws)
                }
            })
        }
        (Intervention::BlockEdges, EvalBackend::Pooled { pool, threads }) => {
            pooled_edge_greedy_in(pool, seeds, budget, threads, replace)
        }
        (Intervention::Prebunk { alpha }, EvalBackend::Pooled { pool, threads }) => {
            pooled_prebunk_greedy_in(pool, seeds, forbidden, budget, alpha, threads, replace)
        }
        (Intervention::BlockVertices, other) => Err(IminError::BackendUnsupported {
            algorithm: kind.name(),
            backend: other.label(),
        }),
        (intervention, other) => Err(IminError::InterventionUnsupported {
            algorithm: kind.name(),
            backend: other.label(),
            intervention: intervention.family(),
        }),
    }
}

/// What one estimator pass cost: the θ cascades its estimate stands on,
/// how many of them it rebuilt (all of them, unless a ledger kept the rest
/// from the previous pass), and how many of those rebuilds it replayed
/// from the ledger's records instead of the pool.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Priced {
    pub(crate) samples: usize,
    pub(crate) rebuilt: usize,
    pub(crate) replayed: usize,
}

/// One estimator pass under the current treatment, and the candidates it
/// prices.
pub(crate) trait Pricer {
    /// A vertex, or an edge `(u, v)`.
    type Candidate: Copy + Ord;
    /// Prices every candidate.
    fn price(&mut self) -> Result<Priced>;
    /// Visits every candidate the last pass offers, with its score.
    fn offers(&self, visit: impl FnMut(Self::Candidate, f64));
    /// Visits, with their scores, the offers that can be best in the last
    /// pass: every offer scoring above zero, and the smallest candidate
    /// offered, which is best when none does (no score is negative). By
    /// default every offer.
    fn contenders(&self, visit: impl FnMut(Self::Candidate, f64)) {
        self.offers(visit);
    }
    /// The score of `c` if the last pass offers it.
    fn offer(&self, c: Self::Candidate) -> Option<f64>;
    /// Spread estimate of the last pass.
    fn spread(&self) -> f64;
    /// Spread estimate of the last pass once `c` is treated too.
    fn spread_after(&self, c: Self::Candidate) -> f64;
    /// Adds `c` to the treatment, or takes it out, and records the change
    /// for the next pass.
    fn set(&mut self, c: Self::Candidate, treated: bool);
    /// A selection holding `picks` as its blockers or blocked edges.
    fn selection(picks: Vec<Self::Candidate>) -> BlockerSelection;
}

/// What `stats.rounds` counts while picking; a replacement step always
/// counts its estimator call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rounds {
    /// Algorithm 3: picks. A round that finds no candidate is not counted
    /// and reports the spread of the set so far.
    Picks,
    /// Algorithm 4: estimator calls. A call that finds no candidate leaves
    /// the reported spread alone.
    Calls,
}

/// How a greedy run departs from plain AdvancedGreedy.
pub(crate) struct Plan<'a, C> {
    /// Algorithm 4's out-neighbour phase: these sorted candidates are
    /// ranked alone for up to `min(len, budget)` calls before the fill.
    pub(crate) first: Vec<C>,
    /// Each round, rank only the candidates this accepts while any of them
    /// scores above zero.
    pub(crate) prefer: Option<&'a dyn Fn(C) -> bool>,
    pub(crate) rounds: Rounds,
    /// Algorithm 4's replacement sweep over the picks, last pick first.
    pub(crate) replace: bool,
    /// One more pass under the final treatment, which reports the spread.
    pub(crate) final_pass: bool,
}

impl<C> Plan<'_, C> {
    /// AdvancedGreedy (Algorithm 3).
    pub(crate) fn advanced() -> Self {
        Plan {
            first: Vec::new(),
            prefer: None,
            rounds: Rounds::Picks,
            replace: false,
            final_pass: false,
        }
    }

    /// GreedyReplace (Algorithm 4) over the seeds' eligible out-neighbours.
    pub(crate) fn replace(first: Vec<C>) -> Self {
        Plan {
            first,
            rounds: Rounds::Calls,
            replace: true,
            ..Self::advanced()
        }
    }
}

/// Makes `(score, c)` the `best` offer so far if it scores higher, or as
/// high with a smaller candidate.
pub(crate) fn keep_best<C: Copy + Ord>(best: &mut Option<(f64, C)>, c: C, score: f64) {
    if best.is_none_or(|(top, b)| score > top || (score == top && c < b)) {
        *best = Some((score, c));
    }
}

/// Visits the contenders of the last pass, or with `listed` only the
/// listed candidates it offers.
fn each_offer<P: Pricer>(
    pricer: &P,
    listed: Option<&[P::Candidate]>,
    mut visit: impl FnMut(P::Candidate, f64),
) {
    match listed {
        None => pricer.contenders(visit),
        Some(listed) => {
            for &c in listed {
                if let Some(score) = pricer.offer(c) {
                    visit(c, score);
                }
            }
        }
    }
}

/// The highest-scoring offer, ties broken towards the smallest, found
/// among the pass's contenders or the `listed` candidates when given; with
/// `prefer`, only preferred ones while any of them scores. The scan is the
/// `select` phase of the caller's span.
fn best<P: Pricer>(
    pricer: &P,
    prefer: Option<&dyn Fn(P::Candidate) -> bool>,
    listed: Option<&[P::Candidate]>,
) -> Option<P::Candidate> {
    let start = imin_obs::span::active().then(Instant::now);
    let mut scores = false;
    if let Some(prefer) = prefer {
        each_offer(pricer, listed, |c, score| {
            scores |= score > 0.0 && prefer(c)
        });
    }
    let mut best = None;
    each_offer(pricer, listed, |c, score| {
        if !scores || prefer.is_some_and(|prefer| prefer(c)) {
            keep_best(&mut best, c, score);
        }
    });
    if let Some(start) = start {
        let ns = start.elapsed().as_nanos() as u64;
        imin_obs::span::add_ns(imin_obs::Phase::Select, ns);
    }
    best.map(|(_, c)| c)
}

/// A greedy run in progress: its picks, last spread estimate and counters.
struct Greedy<C> {
    picks: Vec<C>,
    spread: Option<f64>,
    stats: SelectionStats,
}

impl<C: Copy + Ord> Greedy<C> {
    /// One estimator pass, counted in the stats.
    fn price<P: Pricer<Candidate = C>>(&mut self, pricer: &mut P) -> Result<()> {
        let priced = pricer.price()?;
        self.stats.samples_drawn += priced.samples;
        self.stats.samples_rebuilt += priced.rebuilt;
        self.stats.samples_replayed += priced.replayed;
        Ok(())
    }

    /// One pick: a pass, then the best offer, among the `listed`
    /// candidates when given.
    fn pick<P: Pricer<Candidate = C>>(
        &mut self,
        pricer: &mut P,
        plan: &Plan<'_, C>,
        listed: Option<&[C]>,
    ) -> Result<Option<C>> {
        let calls = plan.rounds == Rounds::Calls;
        self.stats.rounds += usize::from(calls);
        self.price(pricer)?;
        let Some(c) = best(pricer, plan.prefer, listed) else {
            if !calls {
                self.spread = Some(pricer.spread());
            }
            return Ok(None);
        };
        self.spread = Some(pricer.spread_after(c));
        pricer.set(c, true);
        self.picks.push(c);
        self.stats.rounds += usize::from(!calls);
        Ok(Some(c))
    }
}

/// Runs Algorithm 3 or 4, as `plan` shapes it, for up to `budget` picks;
/// the selection is timed from `start`.
pub(crate) fn run<P: Pricer>(
    pricer: &mut P,
    budget: usize,
    plan: &Plan<'_, P::Candidate>,
    start: Instant,
) -> Result<BlockerSelection> {
    let mut run = Greedy {
        picks: Vec::with_capacity(budget),
        spread: None,
        stats: SelectionStats::default(),
    };
    // Algorithm 4, phase 1: the seeds' out-neighbours first, priced
    // directly rather than found among all n offers.
    let mut first = plan.first.clone();
    for _ in 0..first.len().min(budget) {
        let Some(c) = run.pick(pricer, plan, Some(&first))? else {
            break;
        };
        first.retain(|&x| x != c);
    }
    // Algorithm 3's rounds, or Algorithm 4's fill.
    while run.picks.len() < budget && run.pick(pricer, plan, None)?.is_some() {}
    // Algorithm 4, phase 2: replace each pick, last first, until one stays.
    if plan.replace {
        for idx in (0..run.picks.len()).rev() {
            let old = run.picks[idx];
            pricer.set(old, false);
            run.stats.rounds += 1;
            run.price(pricer)?;
            let Some(c) = best(pricer, plan.prefer, None) else {
                pricer.set(old, true);
                break;
            };
            run.spread = Some(pricer.spread_after(c));
            pricer.set(c, true);
            run.picks[idx] = c;
            if c == old {
                break;
            }
        }
    }
    if plan.final_pass {
        run.price(pricer)?;
        run.spread = Some(pricer.spread());
    }
    let elapsed = start.elapsed();
    Ok(BlockerSelection {
        estimated_spread: run.spread,
        stats: SelectionStats {
            elapsed,
            ..run.stats
        },
        ..P::selection(run.picks)
    })
}

/// How a Fresh run seeds the samples of its `k`-th estimator call.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SeedSchedule {
    /// Algorithm 3: `seed + k`.
    Consecutive,
    /// Algorithm 4: `seed + (k + 1)·0x9E3779B9`.
    Golden,
}

impl SeedSchedule {
    fn seed(self, base: u64, k: u64) -> u64 {
        match self {
            SeedSchedule::Consecutive => base.wrapping_add(k),
            SeedSchedule::Golden => base.wrapping_add(0x9E37_79B9u64.wrapping_mul(k + 1)),
        }
    }
}

/// One vertex-mask estimator pass: treated vertices in, Algorithm 2 written
/// into the estimate, what the pass cost out.
type VertexPass<'a> =
    Box<dyn FnMut(&[bool], &mut PoolWorkspace, &mut DecreaseEstimate) -> Result<Priced> + 'a>;

/// Prices vertices — blockers or prebunk targets — with a per-vertex
/// credit pass. Seeds, forbidden and treated vertices are never offered;
/// every other vertex is, even at zero credit, so the paper's greedy
/// spends its budget while any candidate is left. On a pool the pricer
/// keeps a ledger ([`VertexPricer::ledgered`]): every pass after the first
/// rebuilds only the realisations a treatment change can affect.
pub(crate) struct VertexPricer<'a> {
    workspace: &'a mut PoolWorkspace,
    forbidden: &'a [bool],
    treated: Vec<bool>,
    estimate: DecreaseEstimate,
    pass: VertexPass<'a>,
}

impl<'a> VertexPricer<'a> {
    /// Stages `seeds` into `workspace` and prices with `pass`.
    pub(crate) fn new(
        workspace: &'a mut PoolWorkspace,
        n: usize,
        seeds: &[VertexId],
        forbidden: &'a [bool],
        pass: VertexPass<'a>,
    ) -> Result<Self> {
        workspace.stage_seeds(n, seeds, None)?;
        let (treated, estimate) = (vec![false; n], DecreaseEstimate::default());
        Ok(VertexPricer {
            workspace,
            forbidden,
            treated,
            estimate,
            pass,
        })
    }

    /// Vertex blocking on a resident pool.
    pub(crate) fn pooled(
        pool: &'a SamplePool,
        seeds: &[VertexId],
        forbidden: &'a [bool],
        threads: usize,
        workspace: &'a mut PoolWorkspace,
    ) -> Result<Self> {
        let pass = move |blocked: &[bool], ws: &mut PoolWorkspace, est: &mut DecreaseEstimate| {
            let filter = BlockedVertices(blocked);
            Ok(vertex_credit(&Rerooted { pool, filter }, threads, ws, est))
        };
        let n = pool.num_vertices();
        Ok(Self::new(workspace, n, seeds, forbidden, Box::new(pass))?.ledgered())
    }

    /// Keeps a ledger for the staged query. Only for passes that re-root
    /// one pool through one filter family.
    pub(crate) fn ledgered(self) -> Self {
        self.workspace.start_ledger();
        self
    }

    /// Vertex blocking on θ fresh samples of `sampler` per call, seeded by
    /// `schedule`.
    pub(crate) fn fresh<S: SpreadSampler + ?Sized>(
        sampler: &'a S,
        graph: &'a DiGraph,
        request: &'a ContainmentRequest<'_>,
        (theta, seed, threads): (usize, u64, usize),
        schedule: SeedSchedule,
        workspace: &'a mut PoolWorkspace,
    ) -> Result<Self> {
        let mut calls = 0;
        let pass = move |blocked: &[bool], ws: &mut PoolWorkspace, est: &mut DecreaseEstimate| {
            let seed = schedule.seed(seed, calls);
            calls += 1;
            let config = DecreaseConfig {
                theta,
                threads,
                seed,
            };
            *est = decrease_es_multi_in(sampler, graph, request.seeds(), blocked, &config, ws)?;
            Ok(Priced {
                samples: theta,
                rebuilt: theta,
                replayed: 0,
            })
        };
        let (n, seeds, forbidden) = (graph.num_vertices(), request.seeds(), request.forbidden());
        Self::new(workspace, n, seeds, forbidden.mask(), Box::new(pass))
    }

    fn eligible(&self, v: usize) -> bool {
        !self.workspace.is_seed()[v] && !self.forbidden[v] && !self.treated[v]
    }

    /// The eligible out-neighbours of `seeds`, sorted: the candidates of
    /// Algorithm 4's first phase.
    pub(crate) fn out_neighbours(&self, graph: &DiGraph, seeds: &[VertexId]) -> Vec<VertexId> {
        let targets = seeds.iter().flat_map(|&s| graph.out_neighbors(s));
        let eligible = targets.filter(|&&t| self.eligible(t as usize));
        let mut first: Vec<VertexId> = eligible.map(|&t| VertexId::from_raw(t)).collect();
        first.sort_unstable();
        first.dedup();
        first
    }
}

impl Pricer for VertexPricer<'_> {
    type Candidate = VertexId;

    fn price(&mut self) -> Result<Priced> {
        (self.pass)(&self.treated, self.workspace, &mut self.estimate)
    }

    fn offers(&self, mut visit: impl FnMut(VertexId, f64)) {
        for (v, &delta) in self.estimate.delta.iter().enumerate() {
            if self.eligible(v) {
                visit(VertexId::new(v), delta);
            }
        }
    }

    /// The eligible vertices the last full pass credited, and the
    /// smallest eligible vertex. Every vertex scoring above zero is among
    /// the credited ones (see [`PoolWorkspace::credited`]), so when any
    /// does the n-scan's pick and tie-break are theirs; when none does,
    /// the n-scan picks the smallest eligible vertex.
    fn contenders(&self, mut visit: impl FnMut(VertexId, f64)) {
        let delta = &self.estimate.delta;
        for &v in self.workspace.credited() {
            if self.eligible(v as usize) {
                visit(VertexId::from_raw(v), delta[v as usize]);
            }
        }
        if let Some(v) = (0..delta.len()).find(|&v| self.eligible(v)) {
            visit(VertexId::new(v), delta[v]);
        }
    }

    fn offer(&self, v: VertexId) -> Option<f64> {
        let v = v.index();
        self.eligible(v).then(|| self.estimate.delta[v])
    }

    fn spread(&self) -> f64 {
        self.estimate.average_reached
    }

    fn spread_after(&self, v: VertexId) -> f64 {
        self.estimate.average_reached - self.estimate.delta[v.index()]
    }

    fn set(&mut self, v: VertexId, treated: bool) {
        self.treated[v.index()] = treated;
        self.workspace.mark_changed(v.raw());
    }

    fn selection(picks: Vec<VertexId>) -> BlockerSelection {
        BlockerSelection::new(picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// A pricer whose contenders are all its offers: the full scan the
    /// credited one must agree with.
    struct FullScan<P>(P);

    impl<P: Pricer> Pricer for FullScan<P> {
        type Candidate = P::Candidate;

        fn price(&mut self) -> Result<Priced> {
            self.0.price()
        }

        fn offers(&self, visit: impl FnMut(P::Candidate, f64)) {
            self.0.offers(visit);
        }

        fn offer(&self, c: P::Candidate) -> Option<f64> {
            self.0.offer(c)
        }

        fn spread(&self) -> f64 {
            self.0.spread()
        }

        fn spread_after(&self, c: P::Candidate) -> f64 {
            self.0.spread_after(c)
        }

        fn set(&mut self, c: P::Candidate, treated: bool) {
            self.0.set(c, treated);
        }

        fn selection(picks: Vec<P::Candidate>) -> BlockerSelection {
            P::selection(picks)
        }
    }

    /// A vertex pricer of the question `request` asks, on the `pool` or,
    /// when `fresh`, on 64 fresh samples per pass.
    fn pricer<'a>(
        fresh: bool,
        (pool, graph, request): (&'a SamplePool, &'a DiGraph, &'a ContainmentRequest<'_>),
        threads: usize,
        workspace: &'a mut PoolWorkspace,
    ) -> VertexPricer<'a> {
        let (seeds, forbidden) = (request.seeds(), request.forbidden().mask());
        if fresh {
            let (backend, schedule) = ((64, 5, threads), SeedSchedule::Golden);
            VertexPricer::fresh(
                &IcLiveEdgeSampler,
                graph,
                request,
                backend,
                schedule,
                workspace,
            )
        } else {
            VertexPricer::pooled(pool, seeds, forbidden, threads, workspace)
        }
        .unwrap()
    }

    /// The picks, spread bits and rounds of a selection.
    fn answer(selection: BlockerSelection) -> (Vec<VertexId>, u64, usize) {
        let spread = selection.estimated_spread.unwrap().to_bits();
        (selection.blockers, spread, selection.stats.rounds)
    }

    /// A budget beyond every vertex any cascade reaches: once the reached
    /// vertices are picked or cut off, every eligible vertex scores zero
    /// and each round takes the smallest eligible one, stepping over the
    /// seeds (0 and 3), the forbidden vertex (1) and the picks (2 and 8)
    /// among the lowest ids. The credited scan must pick what the n-scan
    /// picks, on the pooled and the Fresh pricer, for both greedy shapes
    /// and at 1 and 2 threads.
    #[test]
    fn rounds_past_every_reached_vertex_take_the_smallest_eligible_one() {
        let edges = [(0, 2), (2, 9), (3, 8)].map(|(u, v)| (vid(u), vid(v), 1.0));
        let graph = DiGraph::from_edges(16, edges).unwrap();
        let (seeds, budget) = ([vid(0), vid(3)], 8);
        let mut forbidden = vec![false; 16];
        forbidden[1] = true;
        let request = ContainmentRequest::builder(&graph)
            .seeds(seeds)
            .budget(budget)
            .forbid_mask(forbidden)
            .build()
            .unwrap();
        let pool = SamplePool::build_with_threads(&graph, 64, 11, 1).unwrap();
        let question = (&pool, &graph, &request);
        let expected: Vec<VertexId> = [2, 8, 4, 5, 6, 7, 9, 10].map(vid).into();
        for (fresh, threads, replace) in [false, true]
            .into_iter()
            .flat_map(|fresh| [(fresh, 1, false), (fresh, 1, true), (fresh, 2, true)])
        {
            let label = format!("fresh={fresh} threads={threads} replace={replace}");
            let (ws, full_ws) = (&mut PoolWorkspace::new(), &mut PoolWorkspace::new());
            let mut credited = pricer(fresh, question, threads, ws);
            let mut full = FullScan(pricer(fresh, question, threads, full_ws));
            let plan = if replace {
                Plan::replace(credited.out_neighbours(&graph, &seeds))
            } else {
                Plan::advanced()
            };
            let credited = answer(run(&mut credited, budget, &plan, Instant::now()).unwrap());
            let full = answer(run(&mut full, budget, &plan, Instant::now()).unwrap());
            assert_eq!(credited, full, "{label}");
            assert_eq!(credited.0, expected, "{label}");
            assert_eq!(f64::from_bits(credited.1), 2.0, "{label}: the seeds alone");
        }
    }
}
