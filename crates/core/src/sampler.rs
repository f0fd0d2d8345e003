//! Seed-rooted live-edge sampling (Definition 4, restricted to the part of
//! the graph the seed can actually reach).
//!
//! Algorithm 2 needs, per sample, the sampled graph *and* its dominator
//! tree. Materialising every sample over the full vertex set would cost
//! `O(n)` per sample even when the cascade only reaches a handful of
//! vertices, so the sampler produces a **compact** sample: the reached
//! vertices are renumbered `0..k` (the source is local vertex 0) and the
//! adjacency is expressed in local ids. All per-sample work — sampling,
//! dominator tree, subtree sizes — is then proportional to the size of the
//! sampled cascade, which is what makes AdvancedGreedy orders of magnitude
//! faster than the Monte-Carlo baseline on large graphs (Figures 7 and 8).
//!
//! The sample adjacency is stored **flat**, CSR-style: one `targets` arena
//! holding every live edge plus an `offsets` array delimiting each local
//! vertex's slice. Because the BFS discovers edges strictly in order of the
//! expanding vertex, the arena is filled append-only and a sample never
//! allocates once the buffers have grown to the cascade high-water mark —
//! the property the whole `budget × θ` hot loop of Algorithms 3 and 4 is
//! built on.

use imin_diffusion::triggering::TriggeringModel;
use imin_graph::{DiGraph, VertexId, THRESHOLD_ALWAYS};
use rand::rngs::SmallRng;
use rand::RngCore;

// Sample-pool construction is the reusable, query-independent counterpart of
// the rooted samplers below; it lives in [`crate::pool`] and is re-exported
// here so `sampler::SamplePool::build(graph, θ, seed)` is the one-stop API
// for materialising samples.
pub use crate::pool::{PoolWorkspace, SamplePool};

const UNMAPPED: u32 = u32::MAX;
/// Sentinel stored at local id 0 of a multi-seed sample: a virtual root
/// standing in for the unified seed of §V (it has no global id).
const VIRTUAL_ROOT: u32 = u32::MAX;

/// A live-edge sample restricted to the vertices reachable from the source,
/// with vertices renumbered into dense local ids and the adjacency stored in
/// a flat CSR arena.
///
/// The buffer is designed for reuse: [`CompactSample::reset`] clears the
/// previous sample in time proportional to its size, not to the graph size,
/// and steady-state sampling performs no heap allocation at all.
#[derive(Clone, Debug)]
pub struct CompactSample {
    /// Global vertex id of each local vertex; `vertices[0]` is the source.
    vertices: Vec<u32>,
    /// CSR offsets: the live out-edges of local vertex `i` are
    /// `targets[offsets[i] .. offsets[i + 1]]`. `offsets[0]` is always 0 and
    /// one entry is appended per *sealed* vertex.
    offsets: Vec<u32>,
    /// Flat arena of live out-edges in local ids.
    targets: Vec<u32>,
    /// Global → local mapping (sentinel [`UNMAPPED`] = not reached).
    local_of: Vec<u32>,
    /// Number of local vertices whose adjacency has been sealed; during a
    /// BFS this is exactly the local id of the vertex being expanded.
    sealed: u32,
}

impl Default for CompactSample {
    fn default() -> Self {
        Self::new(0)
    }
}

impl CompactSample {
    /// Creates an empty sample buffer for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        CompactSample {
            vertices: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
            local_of: vec![UNMAPPED; n],
            sealed: 0,
        }
    }

    /// Number of vertices reached by this sample (`σ(s, g)` of Table II).
    #[inline]
    pub fn num_reached(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges recorded by this sample.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Global ids of the reached vertices (local id = position; the source
    /// is first).
    #[inline]
    pub fn vertices(&self) -> &[u32] {
        &self.vertices
    }

    /// CSR offsets of the live adjacency (`num_reached() + 1` entries once
    /// the sample is complete).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Flat live-edge arena in local ids.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Live out-edges of the local vertex `local`, in local ids.
    ///
    /// # Panics
    /// Panics if `local` is not a sealed local vertex of this sample.
    pub fn neighbors(&self, local: u32) -> &[u32] {
        let lo = self.offsets[local as usize] as usize;
        let hi = self.offsets[local as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Local id of a global vertex, if it was reached.
    pub fn local_id(&self, global: VertexId) -> Option<u32> {
        match self.local_of.get(global.index()) {
            Some(&l) if l != UNMAPPED => Some(l),
            _ => None,
        }
    }

    /// Clears the previous sample and prepares for a graph with `n`
    /// vertices. Cost is proportional to the previous sample size (plus a
    /// one-off resize if the graph grew).
    #[inline]
    pub fn reset(&mut self, n: usize) {
        for &v in &self.vertices {
            // The virtual root of a multi-seed sample has no global slot.
            if v != VIRTUAL_ROOT {
                self.local_of[v as usize] = UNMAPPED;
            }
        }
        if self.local_of.len() < n {
            self.local_of.resize(n, UNMAPPED);
        }
        self.vertices.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        self.sealed = 0;
    }

    /// Resets the sample for a graph with `n` vertices and roots it at a
    /// virtual root, local vertex 0: the stand-in for the unified seed of
    /// §V, with one deterministic edge per seed (no coins). The root has no
    /// global id ([`Self::local_id`] never resolves to it); the caller's
    /// BFS expands the seeds from local id 1 on.
    #[inline]
    pub(crate) fn root_at(&mut self, n: usize, seeds: &[VertexId]) {
        self.reset(n);
        self.vertices.push(VIRTUAL_ROOT);
        for &s in seeds {
            self.push_live(s.raw());
        }
        self.seal_vertex();
    }

    /// Interns a global vertex, returning its local id (allocating one if it
    /// has not been seen in this sample yet).
    #[inline]
    fn intern(&mut self, global: u32) -> u32 {
        let slot = self.local_of[global as usize];
        if slot != UNMAPPED {
            return slot;
        }
        let local = self.vertices.len() as u32;
        self.local_of[global as usize] = local;
        self.vertices.push(global);
        local
    }

    /// Records a live edge from the vertex currently being expanded (the
    /// next unsealed local vertex) to the global vertex `to`, interning it.
    #[inline]
    pub(crate) fn push_live(&mut self, to: u32) {
        let to_local = self.intern(to);
        self.targets.push(to_local);
    }

    /// Seals the adjacency of the vertex currently being expanded. The BFS
    /// must seal vertices in local-id order, which it does for free because
    /// it expands the discovery queue front to back.
    #[inline]
    pub(crate) fn seal_vertex(&mut self) {
        debug_assert!((self.sealed as usize) < self.vertices.len());
        self.offsets.push(self.targets.len() as u32);
        self.sealed += 1;
    }
}

/// A source of live-edge samples rooted at the seed. The IC implementation
/// is [`IcLiveEdgeSampler`]; [`TriggeringSampler`] covers the general
/// triggering model of §V-E.
pub trait SpreadSampler: Send + Sync {
    /// Short identifier used in logs and experiment output.
    fn label(&self) -> &'static str;

    /// Draws one sample rooted at `source`, skipping blocked vertices, into
    /// `out` (which is reset first).
    fn sample(
        &self,
        graph: &DiGraph,
        source: VertexId,
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    );

    /// Draws one sample rooted at a whole seed set: local vertex 0 is a
    /// virtual root with one deterministic edge per seed (the unified seed
    /// of §V, built without materialising a merged graph), and the live-edge
    /// BFS proceeds from the seeds exactly as [`Self::sample`] does from the
    /// source. Callers must pass deduplicated, unblocked, in-range seeds.
    ///
    /// The root consumes no coins, so with one seed this draws exactly the
    /// coins of [`Self::sample`] and yields the same cascade below the root:
    /// every dominator subtree, hence every estimate, is the same.
    fn sample_multi(
        &self,
        graph: &DiGraph,
        seeds: &[VertexId],
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    );
}

/// Live-edge sampler for the independent cascade model: every out-edge of a
/// reached vertex is kept independently with its propagation probability
/// (Definition 4), and only the part reachable from the source is explored.
#[derive(Clone, Copy, Debug, Default)]
pub struct IcLiveEdgeSampler;

/// The live-edge BFS shared by the single- and multi-seed IC samplers:
/// expands every unsealed vertex starting at local id `head`, flipping one
/// coin per out-edge of each reached vertex.
///
/// Each coin is decided against the graph's precomputed integer threshold:
/// `(next_u64() >> 11) < threshold` is bit-identical to `gen_bool(p)` (see
/// [`imin_graph::coin_threshold`]) but costs one u64 comparison instead of
/// float arithmetic. Deterministic edges (threshold 0 / ALWAYS) skip the RNG
/// exactly as the probability branches used to, so streams are unchanged.
fn ic_expand_from(
    graph: &DiGraph,
    blocked: &[bool],
    rng: &mut SmallRng,
    out: &mut CompactSample,
    mut head: usize,
) {
    while head < out.num_reached() {
        let u_global = out.vertices[head];
        head += 1;
        let u = VertexId::from_raw(u_global);
        let targets = graph.out_neighbors(u);
        let thresholds = graph.out_coin_thresholds(u);
        for (&t, &threshold) in targets.iter().zip(thresholds) {
            if blocked[t as usize] {
                continue;
            }
            let live = if threshold == THRESHOLD_ALWAYS {
                true
            } else if threshold == 0 {
                false
            } else {
                (rng.next_u64() >> 11) < threshold
            };
            if !live {
                continue;
            }
            out.push_live(t);
        }
        out.seal_vertex();
    }
}

impl SpreadSampler for IcLiveEdgeSampler {
    fn label(&self) -> &'static str {
        "IC"
    }

    fn sample(
        &self,
        graph: &DiGraph,
        source: VertexId,
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    ) {
        out.reset(graph.num_vertices());
        if blocked[source.index()] {
            return;
        }
        let source_local = out.intern(source.raw());
        debug_assert_eq!(source_local, 0);
        // BFS over live edges; coins are flipped for every out-edge of every
        // reached vertex exactly once, so the sample is a faithful draw from
        // the live-edge distribution restricted to the reachable region.
        ic_expand_from(graph, blocked, rng, out, 0);
    }

    fn sample_multi(
        &self,
        graph: &DiGraph,
        seeds: &[VertexId],
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    ) {
        out.root_at(graph.num_vertices(), seeds);
        ic_expand_from(graph, blocked, rng, out, 1);
    }
}

/// Live-edge sampler for the general triggering model (§V-E): a full
/// triggering sample of the graph is drawn (cost `O(m)` per sample) and then
/// restricted to the region reachable from the source.
///
/// This is intentionally simpler — and slower per sample — than the IC
/// sampler; the triggering extension is evaluated on moderate graph sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct TriggeringSampler<M>(pub M);

impl<M: TriggeringModel> SpreadSampler for TriggeringSampler<M> {
    fn label(&self) -> &'static str {
        "TRIGGERING"
    }

    fn sample(
        &self,
        graph: &DiGraph,
        source: VertexId,
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    ) {
        out.reset(graph.num_vertices());
        if blocked[source.index()] {
            return;
        }
        let full = imin_diffusion::triggering::sample_triggering_live_edges(graph, &self.0, rng);
        let source_local = out.intern(source.raw());
        debug_assert_eq!(source_local, 0);
        expand_triggering_from(&full, blocked, out, 0);
    }

    fn sample_multi(
        &self,
        graph: &DiGraph,
        seeds: &[VertexId],
        blocked: &[bool],
        rng: &mut SmallRng,
        out: &mut CompactSample,
    ) {
        let full = imin_diffusion::triggering::sample_triggering_live_edges(graph, &self.0, rng);
        out.root_at(graph.num_vertices(), seeds);
        expand_triggering_from(&full, blocked, out, 1);
    }
}

/// BFS over a pre-drawn full-graph triggering sample, starting at local id
/// `head` (0 for a plain rooted sample, 1 past a virtual root).
fn expand_triggering_from(
    full: &[Vec<u32>],
    blocked: &[bool],
    out: &mut CompactSample,
    mut head: usize,
) {
    while head < out.num_reached() {
        let u_global = out.vertices[head];
        head += 1;
        for &t in &full[u_global as usize] {
            if blocked[t as usize] {
                continue;
            }
            out.push_live(t);
        }
        out.seal_vertex();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_diffusion::triggering::IcTriggering;
    use rand::SeedableRng;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn deterministic_graph() -> DiGraph {
        // 0 -> 1 -> 2, 0 -> 3; vertex 4 unreachable.
        DiGraph::from_edges(
            5,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(0), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn deterministic_sample_reaches_everything_reachable() {
        let g = deterministic_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sample = CompactSample::new(g.num_vertices());
        IcLiveEdgeSampler.sample(&g, vid(0), &[false; 5], &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 4);
        assert_eq!(sample.vertices()[0], 0);
        assert!(sample.local_id(vid(4)).is_none());
        assert!(sample.local_id(vid(2)).is_some());
        // Edges are expressed in local ids and stay within bounds.
        assert_eq!(sample.offsets().len(), sample.num_reached() + 1);
        for local in 0..sample.num_reached() as u32 {
            for &t in sample.neighbors(local) {
                assert!((t as usize) < sample.num_reached());
                assert_ne!(t, local, "no self loops in samples");
            }
        }
    }

    #[test]
    fn csr_arena_is_consistent() {
        let g = deterministic_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sample = CompactSample::new(g.num_vertices());
        IcLiveEdgeSampler.sample(&g, vid(0), &[false; 5], &mut rng, &mut sample);
        // Offsets are monotone, start at 0 and end at the arena length.
        let offsets = sample.offsets();
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*offsets.last().unwrap() as usize, sample.num_edges());
        // The deterministic graph has 3 live edges in any sample.
        assert_eq!(sample.num_edges(), 3);
        // Per-vertex slices partition the arena.
        let total: usize = (0..sample.num_reached() as u32)
            .map(|l| sample.neighbors(l).len())
            .sum();
        assert_eq!(total, sample.num_edges());
    }

    #[test]
    fn blocked_vertices_are_never_reached() {
        let g = deterministic_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sample = CompactSample::new(g.num_vertices());
        let mut blocked = vec![false; 5];
        blocked[1] = true;
        IcLiveEdgeSampler.sample(&g, vid(0), &blocked, &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 2); // 0 and 3
        assert!(sample.local_id(vid(1)).is_none());
        assert!(sample.local_id(vid(2)).is_none());
        // A blocked source yields an empty sample.
        let mut blocked_src = vec![false; 5];
        blocked_src[0] = true;
        IcLiveEdgeSampler.sample(&g, vid(0), &blocked_src, &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 0);
    }

    #[test]
    fn sample_buffer_is_reusable() {
        let g = deterministic_graph();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sample = CompactSample::new(g.num_vertices());
        for _ in 0..10 {
            IcLiveEdgeSampler.sample(&g, vid(0), &[false; 5], &mut rng, &mut sample);
            assert_eq!(sample.num_reached(), 4);
            assert_eq!(sample.num_edges(), 3);
        }
        // Reuse with a different source still yields a source-first sample.
        IcLiveEdgeSampler.sample(&g, vid(1), &[false; 5], &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 2);
        assert_eq!(sample.vertices()[0], 1);
        assert_eq!(sample.local_id(vid(1)), Some(0));
    }

    #[test]
    fn average_reached_matches_expected_spread() {
        // 0 -> 1 with p = 0.4: average reached over many samples ≈ 1.4.
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(1), 0.4)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sample = CompactSample::new(2);
        let rounds = 20_000;
        let total: usize = (0..rounds)
            .map(|_| {
                IcLiveEdgeSampler.sample(&g, vid(0), &[false; 2], &mut rng, &mut sample);
                sample.num_reached()
            })
            .sum();
        let mean = total as f64 / rounds as f64;
        assert!((mean - 1.4).abs() < 0.02, "mean reached {mean}");
    }

    #[test]
    fn parallel_edges_into_same_vertex_are_both_recorded() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: vertex 3 must keep both in-edges in
        // the sample so the dominator of 3 is the source, not 1 or 2.
        let g = DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(0), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(2), vid(3), 1.0),
            ],
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut sample = CompactSample::new(4);
        IcLiveEdgeSampler.sample(&g, vid(0), &[false; 4], &mut rng, &mut sample);
        let three_local = sample.local_id(vid(3)).unwrap();
        let in_edges_of_three = sample
            .targets()
            .iter()
            .filter(|&&t| t == three_local)
            .count();
        assert_eq!(in_edges_of_three, 2);
    }

    #[test]
    fn multi_seed_sample_uses_a_virtual_root() {
        // Two disjoint chains: 0 -> 1 and 2 -> 3.
        let g = DiGraph::from_edges(4, vec![(vid(0), vid(1), 1.0), (vid(2), vid(3), 1.0)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sample = CompactSample::new(4);
        IcLiveEdgeSampler.sample_multi(&g, &[vid(0), vid(2)], &[false; 4], &mut rng, &mut sample);
        // Virtual root + all four reachable vertices.
        assert_eq!(sample.num_reached(), 5);
        assert_eq!(sample.neighbors(0).len(), 2, "one root edge per seed");
        assert!(sample.local_id(vid(0)).is_some());
        assert!(sample.local_id(vid(3)).is_some());
        // Blocked vertices are still skipped downstream of the seeds.
        let mut blocked = vec![false; 4];
        blocked[1] = true;
        IcLiveEdgeSampler.sample_multi(&g, &[vid(0), vid(2)], &blocked, &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 4); // root, 0, 2, 3
        assert!(sample.local_id(vid(1)).is_none());
        // Buffer reuse back to a single-source sample (sentinel unmapped).
        IcLiveEdgeSampler.sample(&g, vid(0), &[false; 4], &mut rng, &mut sample);
        assert_eq!(sample.num_reached(), 2);
        assert_eq!(sample.vertices()[0], 0);
    }

    #[test]
    fn triggering_sampler_matches_ic_on_average() {
        let g = DiGraph::from_edges(3, vec![(vid(0), vid(1), 0.5), (vid(1), vid(2), 0.5)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let sampler = TriggeringSampler(IcTriggering);
        assert_eq!(sampler.label(), "TRIGGERING");
        let mut sample = CompactSample::new(3);
        let rounds = 20_000;
        let total: usize = (0..rounds)
            .map(|_| {
                sampler.sample(&g, vid(0), &[false; 3], &mut rng, &mut sample);
                sample.num_reached()
            })
            .sum();
        let mean = total as f64 / rounds as f64;
        assert!((mean - 1.75).abs() < 0.03, "triggering mean {mean}");
    }
}
