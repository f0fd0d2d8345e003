//! Reverse-reachable sketch estimation — the second estimator backend.
//!
//! The forward [`crate::pool`] materialises θ *full-graph* live-edge
//! realisations, which prices every candidate blocker exactly (dominator
//! trees over every cascade) but costs O(θ·m) build time and memory. The
//! reverse-sketch backend of this module inverts the direction of work, the
//! way RIS-style influence estimators do (Wang et al., "Efficient Influence
//! Minimization via Node Blocking", arXiv 2405.12871): draw θ_r *sketches*,
//! each the set of vertices that can reach one uniformly random root over
//! one live-edge realisation — a reverse BFS over the transposed graph that
//! only ever touches the (usually tiny) in-cone of its root.
//!
//! The estimator identity is the standard RIS one: a vertex set `S` infects
//! a uniformly random vertex with probability `E[#sketches hit by S] / θ_r`,
//! so `spread(S) ≈ n · covered / θ_r` where `covered` counts sketches
//! containing at least one seed.
//!
//! ## Determinism
//!
//! Sketch `i` is drawn from its own RNG stream keyed by
//! [`imin_diffusion::live_edge::indexed_sample_seed`]`(pool_seed, i)` — the
//! exact precedent of the forward pool — so a [`SketchPool`] is
//! **bit-identical at every thread count**: builds shard sketch indices
//! across workers, but each sketch's stream is self-contained. Selection is
//! a sequential integer-scored CELF pass with a fixed tie-break (smallest
//! vertex id), so blocker selections inherit the bit-identity.
//!
//! ## Storage
//!
//! Sketches live in one consolidated CSR in the forward arena style: a
//! `u64` offset per sketch into two parallel `u32` arrays — `members` (the
//! sketch's vertices in BFS discovery order, root first) and `parents` (for
//! each member, the *position* of the member it was discovered from, i.e.
//! the next hop on a live path toward the root). On top sits an inverted
//! vertex→sketch index (`(sketch, position)` pairs per vertex), so seed
//! coverage lookups are O(1) per (seed, sketch) instead of a scan.
//!
//! ## Blocking model
//!
//! Blocking vertex `v` immunises it: a blocked vertex never becomes
//! infected, so no cascade flows through it. A sketch covered by the seed
//! set is *killed* by a blocker on the recorded live path from every
//! covering seed to the root (the BFS parent chains; their intersection is
//! the common suffix of the chains, computed per sketch). This is a
//! single-path approximation — the realisation may contain other live
//! paths — which is what buys the backend its speed; the cross-backend
//! tests in `tests/request_api.rs` hold its end answers against the
//! forward pool's exact ground truth.

use crate::request::{ContainmentRequest, EvalBackend};
use crate::solver::{AlgorithmKind, BlockerSolver};
use crate::types::{BlockerSelection, SelectionStats};
use crate::{IminError, Result};
use imin_diffusion::live_edge::indexed_sample_seed;
use imin_graph::{coin_threshold, DiGraph, GraphError, VertexId, THRESHOLD_ALWAYS};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::time::Instant;

/// A resident pool of θ_r reverse-reachable sketches of one graph.
///
/// Build once per `(graph, θ_r, seed)`; answer any number of containment
/// questions against it. The pool never changes after construction, so it
/// can be shared immutably across query workers.
#[derive(Clone, Debug)]
pub struct SketchPool {
    num_vertices: usize,
    num_graph_edges: usize,
    pool_seed: u64,
    /// Root vertex of each sketch (also `members[offsets[i]]`).
    roots: Vec<u32>,
    /// Sketch `i` occupies `members[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u64>,
    /// Sketch members in BFS discovery order, root first.
    members: Vec<u32>,
    /// Per member: the in-sketch *position* of its BFS parent (the next hop
    /// toward the root). The root's parent is its own position, 0.
    parents: Vec<u32>,
    /// Vertex `v` appears in `inv_sketches[inv_offsets[v]..inv_offsets[v+1]]`.
    inv_offsets: Vec<u64>,
    /// Sketch ids, ascending per vertex.
    inv_sketches: Vec<u32>,
    /// The vertex's position inside the corresponding sketch.
    inv_positions: Vec<u32>,
}

/// The transposed coin thresholds: per in-edge of each vertex, in the
/// graph's in-CSR order, precomputed once per build so the per-sketch BFS
/// never touches floating point.
struct InThresholds {
    offsets: Vec<usize>,
    thresholds: Vec<u64>,
}

impl InThresholds {
    fn new(graph: &DiGraph) -> Self {
        let mut offsets = Vec::with_capacity(graph.num_vertices() + 1);
        let mut thresholds = Vec::with_capacity(graph.num_edges());
        offsets.push(0usize);
        for v in graph.vertices() {
            thresholds.extend(graph.in_probabilities(v).iter().map(|&p| coin_threshold(p)));
            offsets.push(thresholds.len());
        }
        InThresholds {
            offsets,
            thresholds,
        }
    }

    #[inline]
    fn of(&self, v: usize) -> &[u64] {
        &self.thresholds[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Draws sketch `sketch_idx` of the pool `(pool_seed, θ_r)`: the root and
/// every vertex with a live reverse path to it, appended to
/// `members`/`parents`. Returns the sketch's root.
///
/// Coin semantics match the forward sampler: deterministic edges
/// (threshold 0 / [`THRESHOLD_ALWAYS`]) never touch the RNG, every
/// probabilistic coin is one `u64` compare. Edges into already-discovered
/// vertices are skipped *without* flipping — the flip could not change
/// membership, and every edge still gets at most one independent coin, so
/// the sketch distribution is the standard lazy RIS one.
#[allow(clippy::too_many_arguments)]
fn fill_sketch(
    graph: &DiGraph,
    in_thr: &InThresholds,
    pool_seed: u64,
    sketch_idx: u64,
    members: &mut Vec<u32>,
    parents: &mut Vec<u32>,
    stamp: &mut [u32],
    tick: u32,
) -> u32 {
    let n = graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(indexed_sample_seed(pool_seed, sketch_idx));
    let root = (rng.next_u64() % n as u64) as u32;
    let base = members.len();
    members.push(root);
    parents.push(0);
    stamp[root as usize] = tick;
    let mut head = base;
    while head < members.len() {
        let v = members[head];
        let vpos = (head - base) as u32;
        head += 1;
        let sources = graph.in_neighbors(VertexId::new(v as usize));
        let thresholds = in_thr.of(v as usize);
        for (&u, &threshold) in sources.iter().zip(thresholds) {
            if stamp[u as usize] == tick {
                continue;
            }
            let live = threshold == THRESHOLD_ALWAYS
                || (threshold != 0 && (rng.next_u64() >> 11) < threshold);
            if live {
                stamp[u as usize] = tick;
                members.push(u);
                parents.push(vpos);
            }
        }
    }
    root
}

/// One worker's output while building a sketch region.
#[derive(Default)]
struct SketchPart {
    members: Vec<u32>,
    parents: Vec<u32>,
    roots: Vec<u32>,
    lens: Vec<u64>,
}

/// Draws sketches `range` into one [`SketchPart`] (a worker's whole shard).
fn fill_sketch_region(
    graph: &DiGraph,
    in_thr: &InThresholds,
    pool_seed: u64,
    range: Range<usize>,
) -> SketchPart {
    let n = graph.num_vertices();
    let mut part = SketchPart::default();
    let mut stamp = vec![0u32; n];
    for (tick, idx) in range.enumerate() {
        let before = part.members.len();
        let root = fill_sketch(
            graph,
            in_thr,
            pool_seed,
            idx as u64,
            &mut part.members,
            &mut part.parents,
            &mut stamp,
            tick as u32 + 1,
        );
        part.roots.push(root);
        part.lens.push((part.members.len() - before) as u64);
    }
    part
}

impl SketchPool {
    /// Builds θ_r reverse-reachable sketches with the default worker-thread
    /// count.
    ///
    /// # Errors
    /// See [`SketchPool::build_with_threads`].
    pub fn build(graph: &DiGraph, theta_r: usize, seed: u64) -> Result<SketchPool> {
        let threads = imin_diffusion::montecarlo::default_threads();
        SketchPool::build_with_threads(graph, theta_r, seed, threads)
    }

    /// Builds θ_r reverse-reachable sketches, sharding sketch indices over
    /// up to `threads` workers. The result is bit-identical for every
    /// `threads` value (each sketch owns its indexed RNG stream). Lapped
    /// into the caller's span as [`imin_obs::Phase::RSample`] when one is
    /// active.
    ///
    /// # Errors
    /// * [`IminError::ZeroSamples`] — `theta_r` is 0.
    /// * [`IminError::Graph`] — the graph has no vertices to root a sketch
    ///   at.
    pub fn build_with_threads(
        graph: &DiGraph,
        theta_r: usize,
        seed: u64,
        threads: usize,
    ) -> Result<SketchPool> {
        if theta_r == 0 {
            return Err(IminError::ZeroSamples);
        }
        let n = graph.num_vertices();
        if n == 0 {
            return Err(IminError::Graph(GraphError::VertexOutOfRange {
                vertex: 0,
                num_vertices: 0,
            }));
        }
        let timed = imin_obs::span::active();
        let start = Instant::now();
        let in_thr = InThresholds::new(graph);
        let mut parts: Vec<SketchPart> = Vec::new();
        parts.resize_with(threads.clamp(1, theta_r), SketchPart::default);
        let shards = crate::pool::shard_ranges(theta_r, parts.len());
        crate::pool::run_jobs(shards.zip(parts.iter_mut()).collect(), |(range, part)| {
            *part = fill_sketch_region(graph, &in_thr, seed, range);
        });

        let total: usize = parts.iter().map(|p| p.members.len()).sum();
        let mut members = Vec::with_capacity(total);
        let mut parents = Vec::with_capacity(total);
        let mut roots = Vec::with_capacity(theta_r);
        let mut offsets = Vec::with_capacity(theta_r + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for part in parts {
            members.extend_from_slice(&part.members);
            parents.extend_from_slice(&part.parents);
            roots.extend_from_slice(&part.roots);
            for &len in &part.lens {
                acc += len;
                offsets.push(acc);
            }
        }

        // Inverted vertex→sketch index: counting sort over the members, so
        // per-vertex entries come out sorted by sketch id.
        let mut counts = vec![0u64; n + 1];
        for &v in &members {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let inv_offsets = counts.clone();
        let mut inv_sketches = vec![0u32; members.len()];
        let mut inv_positions = vec![0u32; members.len()];
        for i in 0..theta_r {
            let span = offsets[i] as usize..offsets[i + 1] as usize;
            for (pos, &v) in members[span].iter().enumerate() {
                let slot = counts[v as usize] as usize;
                inv_sketches[slot] = i as u32;
                inv_positions[slot] = pos as u32;
                counts[v as usize] += 1;
            }
        }

        if timed {
            imin_obs::span::add_ns(imin_obs::Phase::RSample, start.elapsed().as_nanos() as u64);
        }
        Ok(SketchPool {
            num_vertices: n,
            num_graph_edges: graph.num_edges(),
            pool_seed: seed,
            roots,
            offsets,
            members,
            parents,
            inv_offsets,
            inv_sketches,
            inv_positions,
        })
    }

    /// Number of sketches θ_r.
    pub fn theta_r(&self) -> usize {
        self.roots.len()
    }

    /// The base RNG seed the indexed per-sketch streams derive from.
    pub fn pool_seed(&self) -> u64 {
        self.pool_seed
    }

    /// Number of vertices of the graph this pool was built from.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the graph this pool was built from.
    pub fn num_graph_edges(&self) -> usize {
        self.num_graph_edges
    }

    /// Total sketch entries across all sketches (Σ sketch sizes).
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// Mean sketch size.
    pub fn avg_sketch_size(&self) -> f64 {
        if self.roots.is_empty() {
            0.0
        } else {
            self.members.len() as f64 / self.roots.len() as f64
        }
    }

    /// Resident heap bytes of the pool's arrays.
    pub fn memory_bytes(&self) -> usize {
        self.roots.len() * 4
            + self.offsets.len() * 8
            + self.members.len() * 4
            + self.parents.len() * 4
            + self.inv_offsets.len() * 8
            + self.inv_sketches.len() * 4
            + self.inv_positions.len() * 4
    }

    /// Sketch `i`'s members (root first, BFS order) and parent positions.
    pub fn sketch(&self, i: usize) -> (&[u32], &[u32]) {
        let span = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (&self.members[span.clone()], &self.parents[span])
    }

    /// Root vertex of sketch `i`.
    pub fn root(&self, i: usize) -> u32 {
        self.roots[i]
    }

    /// The `(sketch, position)` occurrences of vertex `v`, ascending by
    /// sketch id — the O(1)-per-entry coverage lookup.
    pub fn occurrences(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + '_ {
        let span = self.inv_offsets[v.index()] as usize..self.inv_offsets[v.index() + 1] as usize;
        self.inv_sketches[span.clone()]
            .iter()
            .copied()
            .zip(self.inv_positions[span].iter().copied())
    }

    /// Checks this pool was built from (a graph shaped like) `graph`.
    ///
    /// # Errors
    /// [`IminError::PoolGraphMismatch`] on a vertex- or edge-count mismatch.
    pub fn ensure_matches(&self, graph: &DiGraph) -> Result<()> {
        if graph.num_vertices() != self.num_vertices || graph.num_edges() != self.num_graph_edges {
            return Err(IminError::PoolGraphMismatch {
                graph_vertices: graph.num_vertices(),
                graph_edges: graph.num_edges(),
                pool_vertices: self.num_vertices,
                pool_edges: self.num_graph_edges,
            });
        }
        Ok(())
    }

    /// The RIS spread estimate of `seeds` alone: `n · covered / θ_r`, where
    /// `covered` counts sketches containing at least one seed.
    pub fn spread_estimate(&self, seeds: &[VertexId]) -> f64 {
        let mut covered = vec![false; self.theta_r()];
        for &s in seeds {
            if s.index() >= self.num_vertices {
                continue;
            }
            for (sketch, _) in self.occurrences(s) {
                covered[sketch as usize] = true;
            }
        }
        let hit = covered.iter().filter(|&&c| c).count();
        self.num_vertices as f64 * hit as f64 / self.theta_r() as f64
    }
}

/// One CELF heap entry: ordered by gain descending, then vertex ascending,
/// so ties always break toward the smallest vertex id. `round` stamps the
/// selection round the gain was computed in — an entry is *fresh* (its
/// bound exact) only in the round that stamped it, because gains are
/// monotone non-increasing as sketches die.
#[derive(PartialEq, Eq)]
struct CelfEntry {
    gain: u64,
    vertex: u32,
    round: u32,
}

impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .cmp(&other.gain)
            .then_with(|| other.vertex.cmp(&self.vertex))
            .then_with(|| self.round.cmp(&other.round))
    }
}

impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy-greedy (CELF) blocker selection against a resident [`SketchPool`].
///
/// Scores a candidate block by the number of seed-covered sketches whose
/// every recorded seed→root live path runs through it (the sketch mass the
/// block removes), then greedily takes the best `budget` candidates with
/// CELF's stale-bound re-evaluation. Selection is sequential over integer
/// scores with a smallest-vertex tie-break, so the answer is a pure
/// function of the pool — byte-identical at every engine thread count.
///
/// The coverage/critical-path pass is lapped into the caller's span as
/// [`imin_obs::Phase::Cover`], the CELF loop as
/// [`imin_obs::Phase::Select`], when a span is active.
///
/// # Errors
/// [`IminError::PoolGraphMismatch`] if the request was built for a
/// different graph shape than the pool.
pub fn sketch_greedy_in(
    pool: &SketchPool,
    request: &ContainmentRequest<'_>,
) -> Result<BlockerSelection> {
    if request.num_vertices() != pool.num_vertices() {
        return Err(IminError::PoolGraphMismatch {
            graph_vertices: request.num_vertices(),
            graph_edges: pool.num_graph_edges(),
            pool_vertices: pool.num_vertices(),
            pool_edges: pool.num_graph_edges(),
        });
    }
    let timed = imin_obs::span::active();
    let started = Instant::now();
    let theta_r = pool.theta_r();

    // ---- Cover: which sketches do the seeds hit, and through which paths?
    // (sketch, seed position) pairs, grouped by sketch. Seeds are iterated
    // in canonical order and per-seed occurrences ascend by sketch id, so
    // the grouping below is deterministic.
    let mut hits: Vec<(u32, u32)> = Vec::new();
    for &s in request.seeds() {
        hits.extend(pool.occurrences(s));
    }
    hits.sort_unstable();

    // Per covered sketch: the positions every recorded seed→root path
    // shares (the common suffix of the parent chains), mapped to candidate
    // vertices. `kills[v]` lists the covered-sketch ordinals v can kill.
    let mut kills: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut covered = 0u32;
    let mut chain: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < hits.len() {
        let sketch = hits[i].0;
        let (members, parents) = pool.sketch(sketch as usize);
        // First covering seed: its full parent chain, seed position
        // included (strictly decreasing positions, ending at the root, 0).
        chain.clear();
        let mut pos = hits[i].1;
        loop {
            chain.push(pos);
            let parent = parents[pos as usize];
            if parent == pos {
                break;
            }
            pos = parent;
        }
        i += 1;
        // Every further covering seed: walk its chain until it merges into
        // the current one, then keep only the shared suffix.
        while i < hits.len() && hits[i].0 == sketch {
            let mut pos = hits[i].1;
            i += 1;
            loop {
                // `chain` is strictly decreasing, so binary-search with the
                // reversed ordering.
                if let Ok(k) = chain.binary_search_by(|&c| pos.cmp(&c)) {
                    chain.drain(..k);
                    break;
                }
                let parent = parents[pos as usize];
                if parent == pos {
                    // Reached the root without merging: the root must be
                    // shared (it terminates every chain).
                    debug_assert_eq!(*chain.last().unwrap(), 0);
                    let last = chain.len() - 1;
                    chain.drain(..last);
                    break;
                }
                pos = parent;
            }
        }
        let ordinal = covered;
        covered += 1;
        for &p in &chain {
            let v = members[p as usize];
            if request.is_candidate(VertexId::new(v as usize)) {
                kills.entry(v).or_default().push(ordinal);
            }
        }
    }
    if timed {
        imin_obs::span::add_ns(imin_obs::Phase::Cover, started.elapsed().as_nanos() as u64);
    }

    // ---- Select: CELF over integer kill counts.
    let select_started = Instant::now();
    let mut heap: BinaryHeap<CelfEntry> = kills
        .iter()
        .map(|(&vertex, list)| CelfEntry {
            gain: list.len() as u64,
            vertex,
            round: 0,
        })
        .collect();
    let mut alive = vec![true; covered as usize];
    let mut alive_count = u64::from(covered);
    let mut blockers: Vec<VertexId> = Vec::with_capacity(request.budget());
    let mut round = 0u32;
    let mut rounds = 0usize;
    while blockers.len() < request.budget() {
        let Some(entry) = heap.pop() else { break };
        if entry.gain == 0 {
            // Stale gains only ever shrink, so a zero at the top means no
            // candidate can kill another sketch.
            break;
        }
        if entry.round < round {
            // Stale bound: re-evaluate against the surviving sketches and
            // re-queue (a selected vertex re-evaluates to 0 — its sketches
            // all died with it — so nothing is ever picked twice).
            let gain = kills[&entry.vertex]
                .iter()
                .filter(|&&s| alive[s as usize])
                .count() as u64;
            heap.push(CelfEntry {
                gain,
                vertex: entry.vertex,
                round,
            });
            continue;
        }
        round += 1;
        rounds += 1;
        blockers.push(VertexId::new(entry.vertex as usize));
        for &s in &kills[&entry.vertex] {
            if alive[s as usize] {
                alive[s as usize] = false;
                alive_count -= 1;
            }
        }
    }
    if timed {
        imin_obs::span::add_ns(
            imin_obs::Phase::Select,
            select_started.elapsed().as_nanos() as u64,
        );
    }

    let estimated = pool.num_vertices() as f64 * alive_count as f64 / theta_r as f64;
    Ok(BlockerSelection {
        blockers,
        estimated_spread: Some(estimated),
        blocked_edges: Vec::new(),
        stats: SelectionStats {
            samples_drawn: theta_r,
            samples_rebuilt: 0,
            samples_replayed: 0,
            mcs_rounds_run: 0,
            rounds,
            elapsed: started.elapsed(),
        },
    })
}

/// The `ris-greedy` solver: CELF blocker selection over reverse-reachable
/// sketches. Runs on the [`EvalBackend::Sketch`] (build a transient pool)
/// and [`EvalBackend::SketchPooled`] (resident pool) backends only.
pub struct RisGreedy;

impl BlockerSolver for RisGreedy {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::RisGreedy
    }

    fn solve(&self, graph: &DiGraph, request: &ContainmentRequest<'_>) -> Result<BlockerSelection> {
        request.ensure_graph(graph)?;
        // The reverse-reachable sketches answer vertex requests only: a
        // sketch records *which* vertices cover a target, not the live edges
        // a deletion or rescale would have to rewrite.
        crate::intervene::require_vertex(
            request.intervention(),
            self.kind().name(),
            request.backend().label(),
        )?;
        match *request.backend() {
            EvalBackend::Sketch {
                theta_r,
                seed,
                threads,
            } => {
                let pool = SketchPool::build_with_threads(graph, theta_r, seed, threads)?;
                sketch_greedy_in(&pool, request)
            }
            EvalBackend::SketchPooled { pool, .. } => {
                pool.ensure_matches(graph)?;
                sketch_greedy_in(pool, request)
            }
            ref other => Err(IminError::BackendUnsupported {
                algorithm: self.kind().name(),
                backend: other.label(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_graph::generators;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// s → g → {t1, t2}: every cascade from s runs through the gateway g.
    fn gateway_graph() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    fn wc(n: usize, seed: u64) -> DiGraph {
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
            .unwrap()
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        let g = gateway_graph();
        assert!(matches!(
            SketchPool::build(&g, 0, 1),
            Err(IminError::ZeroSamples)
        ));
        let empty = DiGraph::empty(0);
        assert!(matches!(
            SketchPool::build(&empty, 4, 1),
            Err(IminError::Graph(_))
        ));
    }

    #[test]
    fn deterministic_edges_make_exact_sketches() {
        let g = gateway_graph();
        let pool = SketchPool::build_with_threads(&g, 64, 7, 1).unwrap();
        assert_eq!(pool.theta_r(), 64);
        assert_eq!(pool.num_vertices(), 4);
        // All probabilities are 1.0: a sketch rooted at v is exactly the
        // set of vertices that reach v. Vertex 0 reaches everything, so
        // every sketch contains 0; the gateway 1 reaches 2 and 3.
        for i in 0..pool.theta_r() {
            let (members, parents) = pool.sketch(i);
            assert_eq!(members[0], pool.root(i));
            assert_eq!(parents[0], 0, "the root is its own parent");
            assert!(members.contains(&0), "vertex 0 reaches every root");
            for (pos, &parent) in parents.iter().enumerate().skip(1) {
                assert!(
                    (parent as usize) < pos,
                    "parents precede children in BFS order"
                );
            }
        }
        // Spread of {0} alone: 0 infects everything → n · θ_r/θ_r = 4.
        assert_eq!(pool.spread_estimate(&[vid(0)]), 4.0);
        // The inverted index agrees with the forward storage.
        for v in 0..4 {
            for (sketch, pos) in pool.occurrences(vid(v)) {
                let (members, _) = pool.sketch(sketch as usize);
                assert_eq!(members[pos as usize], v as u32);
            }
        }
    }

    #[test]
    fn pools_are_bit_identical_across_thread_counts() {
        let g = wc(400, 11);
        let one = SketchPool::build_with_threads(&g, 500, 42, 1).unwrap();
        for threads in [2, 8] {
            let other = SketchPool::build_with_threads(&g, 500, 42, threads).unwrap();
            assert_eq!(one.roots, other.roots, "{threads} threads: roots");
            assert_eq!(one.offsets, other.offsets, "{threads} threads: offsets");
            assert_eq!(one.members, other.members, "{threads} threads: members");
            assert_eq!(one.parents, other.parents, "{threads} threads: parents");
            assert_eq!(one.inv_offsets, other.inv_offsets);
            assert_eq!(one.inv_sketches, other.inv_sketches);
            assert_eq!(one.inv_positions, other.inv_positions);
        }
    }

    #[test]
    fn the_gateway_is_selected_on_the_planted_graph() {
        let g = gateway_graph();
        let pool = SketchPool::build(&g, 256, 3).unwrap();
        let request = ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(1)
            .sketch_pooled(&pool, 1)
            .build()
            .unwrap();
        let selection = RisGreedy.solve(&g, &request).unwrap();
        assert_eq!(
            selection.blockers,
            vec![vid(1)],
            "blocking the gateway kills every sketch it can"
        );
        // With the gateway blocked nothing past the seed is infected: only
        // sketches rooted at the seed itself survive (blocking 1 kills even
        // the sketch rooted at 1 — a blocked vertex is never infected).
        let spread = selection.estimated_spread.unwrap();
        assert!(spread > 0.0 && spread < 4.0, "spread {spread}");
        let roots_at_seed = (0..pool.theta_r()).filter(|&i| pool.root(i) == 0).count() as f64;
        assert!((spread - 4.0 * roots_at_seed / pool.theta_r() as f64).abs() < 1e-9);
    }

    #[test]
    fn selections_respect_seeds_forbidden_and_budget() {
        let g = wc(300, 5);
        let pool = SketchPool::build(&g, 400, 9).unwrap();
        let forbidden =
            crate::request::ForbiddenSet::from_vertices(300, &[vid(2), vid(17)]).unwrap();
        let request = ContainmentRequest::builder(&g)
            .seeds([vid(0), vid(4)])
            .budget(3)
            .forbid(forbidden)
            .sketch_pooled(&pool, 4)
            .build()
            .unwrap();
        let selection = RisGreedy.solve(&g, &request).unwrap();
        assert!(selection.blockers.len() <= 3);
        for &b in &selection.blockers {
            assert!(request.is_candidate(b), "{b:?} is a seed or forbidden");
        }
        assert_eq!(selection.stats.samples_drawn, 400);
        assert!(selection.stats.rounds >= selection.blockers.len());
    }

    #[test]
    fn selections_are_identical_across_thread_counts() {
        let g = wc(500, 23);
        let mut reference: Option<(Vec<VertexId>, Option<f64>)> = None;
        for threads in [1usize, 2, 8] {
            let pool = SketchPool::build_with_threads(&g, 600, 77, threads).unwrap();
            let request = ContainmentRequest::builder(&g)
                .seeds([vid(1), vid(9)])
                .budget(4)
                .sketch_pooled(&pool, threads)
                .build()
                .unwrap();
            let selection = RisGreedy.solve(&g, &request).unwrap();
            let got = (selection.blockers, selection.estimated_spread);
            match &reference {
                None => reference = Some(got),
                Some(expect) => assert_eq!(&got, expect, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn transient_sketch_backend_builds_and_answers() {
        let g = wc(200, 3);
        let request = ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(2)
            .sketch(300, 5, 2)
            .build()
            .unwrap();
        let selection = AlgorithmKind::RisGreedy
            .solver()
            .solve(&g, &request)
            .unwrap();
        assert!(selection.blockers.len() <= 2);
        assert!(selection.estimated_spread.is_some());
        // The transient build equals the resident pool's answer.
        let pool = SketchPool::build_with_threads(&g, 300, 5, 2).unwrap();
        let resident = ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(2)
            .sketch_pooled(&pool, 2)
            .build()
            .unwrap();
        let expect = RisGreedy.solve(&g, &resident).unwrap();
        assert_eq!(selection.blockers, expect.blockers);
        assert_eq!(selection.estimated_spread, expect.estimated_spread);
    }

    #[test]
    fn forward_backends_are_rejected_with_a_typed_error() {
        let g = gateway_graph();
        let fresh = ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(1)
            .fresh(16, 1, 1)
            .build()
            .unwrap();
        match RisGreedy.solve(&g, &fresh) {
            Err(IminError::BackendUnsupported { algorithm, backend }) => {
                assert_eq!(algorithm, "ris-greedy");
                assert_eq!(backend, "fresh");
            }
            other => panic!("expected BackendUnsupported, got {other:?}"),
        }
        let pool = crate::pool::SamplePool::build(&g, 8, 1).unwrap();
        let pooled = ContainmentRequest::builder(&g)
            .seed(vid(0))
            .budget(1)
            .pooled_with_threads(&pool, 1)
            .build()
            .unwrap();
        assert!(matches!(
            RisGreedy.solve(&g, &pooled),
            Err(IminError::BackendUnsupported {
                backend: "pooled",
                ..
            })
        ));
    }

    #[test]
    fn mismatched_pool_shapes_are_rejected() {
        let g = gateway_graph();
        let other = wc(50, 1);
        let pool = SketchPool::build(&other, 32, 1).unwrap();
        assert!(matches!(
            pool.ensure_matches(&g),
            Err(IminError::PoolGraphMismatch { .. })
        ));
        // The request builder rejects the mismatch before any solver runs.
        assert!(matches!(
            ContainmentRequest::builder(&g)
                .seed(vid(0))
                .budget(1)
                .sketch_pooled(&pool, 1)
                .build(),
            Err(IminError::PoolGraphMismatch { .. })
        ));
    }
}
