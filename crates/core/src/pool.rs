//! Resident live-edge sample pools — the query-independent half of
//! Algorithm 2, factored out so one pool can serve unbounded queries.
//!
//! The θ sampled graphs of `DecreaseESComputation` depend only on the graph
//! and the diffusion model (Definition 4), **not** on the seed set, the
//! blocked set or the budget. The classic entry points nevertheless redraw
//! the pool for every greedy round of every question, because their rooted
//! sampler interleaves the coin flips with the seed-outward BFS. This module
//! splits the two halves:
//!
//! * [`SamplePool::build`] materialises θ full-graph live-edge realisations
//!   once. Sample `i` is drawn from its own RNG stream keyed by
//!   [`imin_diffusion::live_edge::indexed_sample_seed`]`(pool_seed, i)`, so
//!   the pool is **bit-identical** no matter how many worker threads build
//!   it (indices are sharded across threads, but each sample's stream is
//!   self-contained).
//! * [`pooled_decrease_in`] answers the per-query half: a multi-source BFS
//!   from the (unmerged) seed set over each stored realisation, skipping
//!   blocked vertices, feeds a Lengauer–Tarjan workspace. A virtual root
//!   above the seeds plays the role of the unified seed of §V without
//!   materialising a merged graph per query.
//! * [`pooled_advanced_greedy_in`] / [`pooled_greedy_replace_in`] are
//!   Algorithms 3 and 4 on top of a borrowed pool: per-query work is only
//!   re-rooting + dominator trees, which is what makes a resident engine
//!   answer follow-up queries orders of magnitude faster than a cold run —
//!   and only the first round re-roots all θ realisations (see
//!   [Incremental rounds](#incremental-rounds)). Their rounds run in the
//!   one greedy driver (`greedy.rs`).
//!
//! ## One kernel
//!
//! The cascade → dominator tree → credit loop of Algorithm 2 exists once,
//! in this module, generic at compile time over where its cascades come
//! from — the arena view re-rooted at the seeds, or a
//! [`crate::sampler::SpreadSampler`] drawing fresh samples for the classic
//! entry points of [`crate::decrease`] — over an edge filter (blocked
//! vertex, deleted edge, prebunk `α`-coin; see [`crate::intervene`]) and
//! over a credit sink: per vertex, or per live edge whose deletion
//! detaches its target's dominator subtree. The same loop fills and
//! replays a greedy query's ledger: the one-shot passes
//! ([`pooled_decrease_in`], [`crate::intervene::pooled_prebunk_decrease`],
//! the Fresh estimator) are the kernel without one.
//!
//! ## Incremental rounds
//!
//! A greedy round changes the treatment by one vertex or edge, and a
//! realisation's cascade can change only if its BFS scanned that vertex
//! (or the deleted edge's target). So a pooled pricer keeps a per-query
//! ledger in the [`PoolWorkspace`]: its first pass, untreated, records
//! each realisation's reached count and credit list and, per vertex, the
//! realisations that reached it; each later pass rebuilds only the
//! realisations listed under the vertices the last picks changed, taking
//! their recorded credit off the sums and adding the new. Answers are
//! bit-identical to full passes, and a round's BFS, dominator-tree and
//! credit work shrinks to the share of realisations the pick touched
//! (about a quarter of θ on average over a budget-8 selection on
//! perfbench's graph). A ledger that would outgrow its cap (16 MiB of
//! records) is dropped, and the query prices every round with full
//! passes.
//!
//! The first pass also records each realisation's cascade as its BFS left
//! it — the reached vertices' global ids, and the live edges out of them
//! in local ids and arena order — and every later rebuild, for a pick, an
//! edge deletion, a prebunk or GreedyReplace's unpick alike, runs the same
//! filtered BFS over that record instead of over the arena. Replay is
//! exact for the reason the index is complete: the record was taken
//! untreated, and a treatment only removes edges, so every vertex a later
//! BFS expands was reached then, with all its live out-edges stored in
//! arena order; the filter sees the same edges in the same order, and the
//! cascade, its dominator tree and its credit come out byte-identical to
//! an arena rebuild. Records are written once, each worker into its own
//! share, and only read afterwards, so any worker replays any realisation
//! without a lock; their bytes count toward the cap. A question thus reads
//! each realisation from the arena once, in its first pass.
//!
//! ## Storage backends
//!
//! Live-edge storage goes through a `PoolArena`: the
//! sampling write path fills one consolidated raw-u32 CSR (two allocations
//! for the whole pool), [`SamplePool::compress`] re-encodes it as
//! delta-varint or per-sample bitset blobs at a fraction of the bytes, and
//! [`crate::snapshot::map_snapshot`] serves either layout zero-copy out of
//! a mapped snapshot file. Queries are **byte-identical across every
//! backend**: decoding reproduces the exact stored adjacency order, and the
//! estimator's integer accumulation never observes the layout.
//!
//! ## Determinism across thread counts
//!
//! Per-sample subtree sizes are accumulated into **`u64`** sums, whose
//! addition is associative and commutative. The pooled path's samples are
//! fixed per index, so any sharding of them across threads produces the
//! same integers, hence byte-identical blocker selections at every thread
//! count. A ledger round subtracts a rebuilt realisation's recorded
//! credit and adds its new credit in the same integers, and which
//! realisations it rebuilds depends on the index, not on the sharding;
//! a replayed cascade is the same whichever worker recorded it. The
//! classic path derives one RNG stream per worker thread, so its output
//! depends (statistically, not just bit-wise) on the thread count, but is
//! deterministic for each.

use crate::arena::{
    encode_sample, ArenaBacking, ArenaKind, Blob, CompressedArena, PoolArena, RawArena, SampleView,
    Words,
};
use crate::decrease::DecreaseEstimate;
use crate::greedy::{self, Plan, Priced, VertexPricer};
use crate::sampler::{CompactSample, SpreadSampler};
use crate::snapshot::SnapshotError;
use crate::types::BlockerSelection;
use crate::{IminError, Result};
use imin_diffusion::live_edge::indexed_sample_seed;
use imin_domtree::{DomTree, DomTreeWorkspace};
use imin_graph::{DiGraph, VertexId, THRESHOLD_ALWAYS};
use imin_obs::{span, Phase};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// A resident pool of θ live-edge realisations of one graph.
///
/// Build it once per `(graph, θ, seed)` and answer any number of
/// `(seeds, blocked, budget)` questions against it; the pool never changes
/// after construction (except in-place θ-growth of the raw write path), so
/// it can be shared immutably across query workers.
#[derive(Clone, Debug)]
pub struct SamplePool {
    num_vertices: usize,
    num_graph_edges: usize,
    pool_seed: u64,
    arena: PoolArena,
}

/// Splits `0..total` into at most `workers` contiguous near-equal ranges
/// (the first `total % workers` ranges get one extra item). The pool build
/// and [`SamplePool::extend_to`], [`SamplePool::compress`], the pooled
/// estimator and the sketch build
/// ([`SketchPool::build_with_threads`](crate::ris::SketchPool::build_with_threads))
/// all shard through this one helper, so their work distribution can never
/// drift apart.
pub fn shard_ranges(total: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let workers = workers.clamp(1, total.max(1));
    let base = total / workers;
    let extra = total % workers;
    let mut start = 0usize;
    (0..workers).map(move |t| {
        let len = base + usize::from(t < extra);
        let range = start..start + len;
        start += len;
        range
    })
}

/// Draws realisation `sample_idx` of the pool `(pool_seed, θ)`: local
/// offsets into `offsets` (exactly `n + 1` entries) and the live targets
/// into the front of `buf` (one word per graph edge); returns how many
/// are live. Coin semantics are identical to the rooted IC sampler:
/// deterministic edges (threshold 0 / [`THRESHOLD_ALWAYS`]) never touch the
/// RNG, every probabilistic edge costs one `u64` draw and compare.
///
/// Every out-edge writes its target at the write position, which then
/// advances by the coin's outcome, so a dead edge's target is overwritten
/// by the next edge's and no branch depends on the coin. The draws are the
/// same ones, in the same order, as a loop that pushes each live target,
/// and the kept targets are the same ones in the same order, so the
/// offsets and targets are bit-identical to that loop's.
fn fill_sample(
    graph: &DiGraph,
    pool_seed: u64,
    sample_idx: u64,
    offsets: &mut [u32],
    buf: &mut [u32],
) -> usize {
    let mut rng = SmallRng::seed_from_u64(indexed_sample_seed(pool_seed, sample_idx));
    let mut k = 0usize;
    offsets[0] = 0;
    for (u, slot) in graph.vertices().zip(offsets[1..].iter_mut()) {
        let out = graph.out_neighbors(u);
        let thresholds = graph.out_coin_thresholds(u);
        for (&t, &threshold) in out.iter().zip(thresholds) {
            buf[k] = t;
            let live = threshold == THRESHOLD_ALWAYS
                || (threshold != 0 && (rng.next_u64() >> 11) < threshold);
            k += live as usize;
        }
        *slot = k as u32;
    }
    k
}

/// Words of a shard buffer copied into the pool's targets between two
/// shrinks of that buffer (4 MiB).
const ASSEMBLE_CHUNK: usize = 1 << 20;

/// Runs `work` once per job: inline when there is one job, otherwise each
/// on its own scoped thread.
pub(crate) fn run_jobs<J: Send>(jobs: Vec<J>, work: impl Fn(J) + Sync) {
    if jobs.len() == 1 {
        jobs.into_iter().for_each(work);
        return;
    }
    crossbeam::scope(|scope| {
        for job in jobs {
            let work = &work;
            scope.spawn(move |_| work(job));
        }
    })
    .expect("pool worker panicked");
}

/// Draws the realisations `first..first + count` of the pool
/// `(graph, seed)` into `offsets` (`count × (n + 1)` zeroed words),
/// sharded across up to `threads` workers, and appends their live targets
/// to `targets` and their end positions to `target_start`. Each sample owns
/// its RNG stream, so the result is bit-identical for every `threads`
/// value. The initial build and [`SamplePool::extend_to`] both draw here.
///
/// Two phases, each timed into the calling thread's span: `sample`, where
/// each worker draws its shard into a shard buffer, and `assemble`, where
/// each worker copies its shard into its own range of `targets`. Both
/// `targets` and `target_start` grow by exactly what they receive.
fn append_samples(
    graph: &DiGraph,
    seed: u64,
    first: usize,
    offsets: &mut [u32],
    targets: &mut Vec<u32>,
    target_start: &mut Vec<u64>,
    threads: usize,
) {
    let stride = graph.num_vertices() + 1;
    let start = Instant::now();
    let shards: Vec<Range<usize>> = shard_ranges(offsets.len() / stride, threads).collect();
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
    let mut jobs = Vec::with_capacity(shards.len());
    let mut rest: &mut [u32] = offsets;
    for (range, part) in shards.iter().zip(parts.iter_mut()) {
        let (region, tail) = rest.split_at_mut(range.len() * stride);
        rest = tail;
        jobs.push((range.start, region, part));
    }
    run_jobs(jobs, |(start, region, part)| {
        let mut buf = vec![0u32; graph.num_edges()];
        for (i, sample) in region.chunks_exact_mut(stride).enumerate() {
            let live = fill_sample(graph, seed, (first + start + i) as u64, sample, &mut buf);
            part.extend_from_slice(&buf[..live]);
        }
    });
    let sampled = Instant::now();

    let base = targets.len();
    let added: usize = parts.iter().map(Vec::len).sum();
    if base == 0 {
        // Zeroed by the allocator, so the workers, not this thread, first
        // touch the pages.
        *targets = vec![0u32; added];
    } else {
        targets.reserve_exact(added);
        targets.resize(base + added, 0);
    }
    let mut jobs = Vec::with_capacity(parts.len());
    let mut rest: &mut [u32] = &mut targets[base..];
    for part in parts {
        let (range, tail) = rest.split_at_mut(part.len());
        rest = tail;
        jobs.push((range, part));
    }
    // Back to front, a chunk at a time, each copied chunk handed back to
    // the allocator: the shard buffers shrink as `targets` fills, so the
    // assembly never holds two copies of the targets.
    run_jobs(jobs, |(range, mut part)| {
        while !part.is_empty() {
            let keep = part.len().saturating_sub(ASSEMBLE_CHUNK);
            range[keep..part.len()].copy_from_slice(&part[keep..]);
            part.truncate(keep);
            part.shrink_to_fit();
        }
    });
    target_start.reserve_exact(offsets.len() / stride);
    let mut end = *target_start.last().expect("target_start begins at 0");
    for sample in offsets.chunks_exact(stride) {
        end += u64::from(sample[stride - 1]);
        target_start.push(end);
    }
    span::add_ns(Phase::PoolSample, (sampled - start).as_nanos() as u64);
    span::add_ns(Phase::PoolAssemble, sampled.elapsed().as_nanos() as u64);
}

/// Copies the graph's out-CSR (the slot space of bitset-encoded samples).
pub(crate) fn graph_csr_copy(graph: &DiGraph) -> (Vec<u64>, Vec<u32>) {
    let mut gr_offsets = Vec::with_capacity(graph.num_vertices() + 1);
    let mut gr_targets = Vec::with_capacity(graph.num_edges());
    gr_offsets.push(0u64);
    for u in graph.vertices() {
        gr_targets.extend_from_slice(graph.out_neighbors(u));
        gr_offsets.push(gr_targets.len() as u64);
    }
    (gr_offsets, gr_targets)
}

/// One worker's output while building a compressed arena.
#[derive(Default)]
struct CompressedPart {
    blob: Vec<u8>,
    modes: Vec<u8>,
    lens: Vec<u64>,
    sizes: Vec<u64>,
    error: Option<String>,
}

/// Assembles per-shard compressed parts (in shard order) into one arena.
fn assemble_compressed(
    parts: Vec<CompressedPart>,
    gr_offsets: Vec<u64>,
    gr_targets: Vec<u32>,
) -> std::result::Result<CompressedArena, String> {
    let theta: usize = parts.iter().map(|p| p.modes.len()).sum();
    let total_bytes: usize = parts.iter().map(|p| p.blob.len()).sum();
    let mut lens = Vec::with_capacity(theta);
    let mut modes = Vec::with_capacity(theta);
    let mut starts = Vec::with_capacity(theta + 1);
    let mut data = Vec::with_capacity(total_bytes);
    starts.push(0u64);
    let mut acc = 0u64;
    for part in parts {
        if let Some(error) = part.error {
            return Err(error);
        }
        lens.extend_from_slice(&part.lens);
        modes.extend_from_slice(&part.modes);
        for &sz in &part.sizes {
            acc += sz;
            starts.push(acc);
        }
        data.extend_from_slice(&part.blob);
    }
    Ok(CompressedArena {
        lens,
        modes,
        starts,
        data: Blob::Owned(data),
        gr_offsets,
        gr_targets,
    })
}

impl SamplePool {
    /// Materialises θ live-edge realisations of `graph` using the default
    /// worker-thread count.
    ///
    /// # Errors
    /// Returns [`IminError::ZeroSamples`] if `theta` is zero.
    pub fn build(graph: &DiGraph, theta: usize, seed: u64) -> Result<Self> {
        Self::build_with_threads(
            graph,
            theta,
            seed,
            imin_diffusion::montecarlo::default_threads(),
        )
    }

    /// Materialises the pool with an explicit worker-thread count.
    ///
    /// Sample indices are sharded across threads in contiguous ranges, but
    /// every sample draws from its own [`indexed_sample_seed`] stream, so
    /// the result is bit-identical for every `threads` value.
    ///
    /// # Errors
    /// Returns [`IminError::ZeroSamples`] if `theta` is zero.
    pub fn build_with_threads(
        graph: &DiGraph,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self> {
        if theta == 0 {
            return Err(IminError::ZeroSamples);
        }
        let n = graph.num_vertices();
        let stride = n + 1;
        // Zeroed by the allocator, so no thread pre-touches the pages the
        // workers then fill.
        let mut offsets = vec![0u32; theta * stride];
        let mut targets = Vec::new();
        let mut target_start = Vec::with_capacity(theta + 1);
        target_start.push(0u64);
        append_samples(
            graph,
            seed,
            0,
            &mut offsets,
            &mut targets,
            &mut target_start,
            threads,
        );
        let arena = RawArena {
            stride,
            target_start,
            offsets: Words::Owned(offsets),
            targets: Words::Owned(targets),
        };
        Ok(SamplePool {
            num_vertices: n,
            num_graph_edges: graph.num_edges(),
            pool_seed: seed,
            arena: PoolArena::raw(n, theta, arena),
        })
    }

    /// Re-encodes this pool into the compressed arena layout (delta-varint
    /// or per-sample bitset, whichever is smaller per realisation). The
    /// result answers every query **byte-identically** — compression is
    /// lossless and preserves the stored adjacency order — so a resident
    /// engine can swap arenas without invalidating cached answers.
    ///
    /// # Errors
    /// Returns [`IminError::PoolGraphMismatch`] when `graph` is not the
    /// graph this pool was drawn from, and a snapshot-corruption error when
    /// a (restored) sample turns out not to be a sub-realisation of
    /// `graph` at all.
    pub fn compress(&self, graph: &DiGraph, threads: usize) -> Result<SamplePool> {
        self.ensure_matches(graph)?;
        let n = self.num_vertices;
        let (gr_offsets, gr_targets) = graph_csr_copy(graph);
        let theta = self.theta();
        let shards: Vec<Range<usize>> = shard_ranges(theta, threads).collect();
        let mut parts: Vec<CompressedPart> = Vec::new();
        parts.resize_with(shards.len(), CompressedPart::default);
        let encode_range = |range: &Range<usize>, part: &mut CompressedPart| {
            let mut scratch_offsets: Vec<u32> = Vec::new();
            let mut scratch_targets: Vec<u32> = Vec::new();
            for idx in range.clone() {
                let view = self.arena.view(idx);
                let (encoded, live) = match view {
                    SampleView::Csr { offsets, targets } => (
                        encode_sample(offsets, targets, &gr_offsets, &gr_targets, &mut part.blob),
                        targets.len() as u64,
                    ),
                    other => {
                        other.decode_into(n, &mut scratch_offsets, &mut scratch_targets);
                        (
                            encode_sample(
                                &scratch_offsets,
                                &scratch_targets,
                                &gr_offsets,
                                &gr_targets,
                                &mut part.blob,
                            ),
                            scratch_targets.len() as u64,
                        )
                    }
                };
                match encoded {
                    Ok((mode, sz)) => {
                        part.modes.push(mode);
                        part.lens.push(live);
                        part.sizes.push(sz as u64);
                    }
                    Err(reason) => {
                        part.error = Some(format!("sample {idx}: {reason}"));
                        return;
                    }
                }
            }
        };
        run_jobs(
            shards.iter().zip(parts.iter_mut()).collect(),
            |(range, part)| encode_range(range, part),
        );
        let arena = assemble_compressed(parts, gr_offsets, gr_targets)
            .map_err(|reason| IminError::Snapshot(SnapshotError::Corrupt { reason }))?;
        Ok(SamplePool {
            num_vertices: self.num_vertices,
            num_graph_edges: self.num_graph_edges,
            pool_seed: self.pool_seed,
            arena: PoolArena::compressed(n, theta, arena),
        })
    }

    /// Grows the pool in place to `new_theta` realisations by drawing the
    /// missing samples `θ..θ'` from their own [`indexed_sample_seed`]
    /// streams. Because sample `i` never depends on any other sample, the
    /// extended pool is **bit-identical** to a pool freshly built at
    /// `new_theta` with the same `(graph, pool_seed)` — at every thread
    /// count. A `new_theta` at or below the current θ is a no-op (the pool
    /// never shrinks).
    ///
    /// Returns the number of realisations added.
    ///
    /// # Errors
    /// Returns [`IminError::PoolGraphMismatch`] when `graph` does not have
    /// the shape of the graph the pool was built from, and
    /// [`IminError::PoolArenaImmutable`] when the arena is compressed or
    /// mapped — only the heap-resident raw write path can grow in place
    /// (callers rebuild instead).
    pub fn extend_to(
        &mut self,
        graph: &DiGraph,
        new_theta: usize,
        threads: usize,
    ) -> Result<usize> {
        self.ensure_matches(graph)?;
        let old_theta = self.theta();
        if new_theta <= old_theta {
            return Ok(0);
        }
        if !self.arena.is_extendable() {
            return Err(IminError::PoolArenaImmutable {
                arena: self.arena.kind().as_str(),
            });
        }
        let stride = self.num_vertices + 1;
        let ArenaBacking::Raw(raw) = &mut self.arena.backing else {
            unreachable!("is_extendable implies a raw backing");
        };
        let (Words::Owned(offsets), Words::Owned(targets)) = (&mut raw.offsets, &mut raw.targets)
        else {
            unreachable!("is_extendable implies owned words");
        };
        // Exact growth: `memory_bytes` counts capacity, and a grown pool
        // reports what a fresh build of the same θ does.
        offsets.reserve_exact((new_theta - old_theta) * stride);
        offsets.resize(new_theta * stride, 0);
        append_samples(
            graph,
            self.pool_seed,
            old_theta,
            &mut offsets[old_theta * stride..],
            targets,
            &mut raw.target_start,
            threads,
        );
        self.arena.theta = new_theta;
        Ok(new_theta - old_theta)
    }

    /// The live-edge storage, for the snapshot writer and readers.
    pub(crate) fn arena(&self) -> &PoolArena {
        &self.arena
    }

    /// Reassembles a pool around a deserialised arena. The caller (the
    /// snapshot reader) is responsible for the arena actually being the
    /// pool `(graph, pool_seed, θ)` — integrity is enforced by the snapshot
    /// checksum, the graph fingerprint and structural validation, not
    /// re-derived here.
    pub(crate) fn from_arena(
        num_vertices: usize,
        num_graph_edges: usize,
        pool_seed: u64,
        arena: PoolArena,
    ) -> Self {
        SamplePool {
            num_vertices,
            num_graph_edges,
            pool_seed,
            arena,
        }
    }

    /// Number of realisations θ held by the pool.
    pub fn theta(&self) -> usize {
        self.arena.theta
    }

    /// The base seed the pool was built from.
    pub fn pool_seed(&self) -> u64 {
        self.pool_seed
    }

    /// Number of vertices of the graph the pool was drawn from.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the graph the pool was drawn from.
    pub fn num_graph_edges(&self) -> usize {
        self.num_graph_edges
    }

    /// The storage backend currently holding the realisations.
    pub fn arena_kind(&self) -> ArenaKind {
        self.arena.kind()
    }

    /// Whether [`SamplePool::extend_to`] can grow this pool in place (true
    /// only for the heap-resident raw write path).
    pub fn is_extendable(&self) -> bool {
        self.arena.is_extendable()
    }

    /// Checks that `graph` has the shape of the graph this pool was built
    /// from. Vertex and edge counts together catch most accidental
    /// mispairings (same-shape different graphs are indistinguishable
    /// without hashing the whole edge list).
    ///
    /// # Errors
    /// Returns [`IminError::PoolGraphMismatch`] when either count differs.
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

    /// Total number of live edges stored across all realisations.
    pub fn total_live_edges(&self) -> usize {
        self.arena.total_live_edges() as usize
    }

    /// Heap bytes resident for the pool: allocated arena capacity plus the
    /// directory/table and struct footprint. Mapped arena bytes are *not*
    /// counted here — see [`SamplePool::mapped_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let (owned, _mapped) = self.arena.memory_bytes();
        owned + std::mem::size_of::<Self>()
    }

    /// Bytes served directly from a mapped snapshot file (0 for
    /// heap-resident arenas). These pages live in the page cache, not the
    /// process heap, and are reclaimable under memory pressure.
    pub fn mapped_bytes(&self) -> usize {
        let (_owned, mapped) = self.arena.memory_bytes();
        mapped
    }

    /// Bytes this pool would occupy in the heap-resident raw-u32 layout —
    /// the denominator of [`SamplePool::compression_ratio`].
    pub fn raw_equivalent_bytes(&self) -> u64 {
        self.arena.raw_equivalent_bytes()
    }

    /// Stored arena bytes (heap + mapped) over the raw-equivalent bytes:
    /// ≈ 1.0 for raw arenas, < 1.0 when compression wins.
    pub fn compression_ratio(&self) -> f64 {
        let (owned, mapped) = self.arena.memory_bytes();
        (owned + mapped) as f64 / self.raw_equivalent_bytes() as f64
    }

    /// CSR view `(offsets, targets)` of realisation `idx`, for tests and
    /// parity checks against the nested-vector reference sampler. Borrowed
    /// slices for raw arenas; compressed arenas decode into owned vectors
    /// (byte-identical content — use [`SamplePool::sample_csr_into`] with
    /// reused buffers when iterating many samples).
    ///
    /// # Panics
    /// Panics if `idx >= theta`.
    pub fn sample_csr(&self, idx: usize) -> (Cow<'_, [u32]>, Cow<'_, [u32]>) {
        match self.arena.view(idx) {
            SampleView::Csr { offsets, targets } => {
                (Cow::Borrowed(offsets), Cow::Borrowed(targets))
            }
            view => {
                let mut offsets = Vec::new();
                let mut targets = Vec::new();
                view.decode_into(self.num_vertices, &mut offsets, &mut targets);
                (Cow::Owned(offsets), Cow::Owned(targets))
            }
        }
    }

    /// Decodes realisation `idx` into the caller's buffers (cleared first),
    /// byte-identical to the raw layout whatever the backend.
    ///
    /// # Panics
    /// Panics if `idx >= theta`.
    pub fn sample_csr_into(&self, idx: usize, offsets: &mut Vec<u32>, targets: &mut Vec<u32>) {
        self.arena
            .view(idx)
            .decode_into(self.num_vertices, offsets, targets);
    }
}

/// A fixed multiplicative hasher for the `(u32, u32)` edge keys of the
/// credit maps. SipHash's keyed rounds buy nothing here: the keys are graph
/// edges, not chosen by a client, and the sums are `u64`, so map order
/// never shows in an answer (`greedy::best` breaks ties by the smallest
/// edge).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0 << 32) | u64::from(word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high half depends on every key bit; folding it
        // down spreads both endpoints over the table's bucket index (low
        // bits) as well as its tag (top bits).
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// Credit summed per live edge `(pred, v)`.
pub(crate) type EdgeSums = HashMap<(u32, u32), u64, BuildHasherDefault<EdgeHasher>>;

/// Per-worker scratch of the edge credit. Deleting the kept edge `(u, v)`
/// detaches exactly `v`'s dominator subtree when every other kept edge
/// into `v` comes from inside that subtree — from a vertex only reachable
/// through `v` — so only in-edges from outside the subtree count. A
/// preorder numbering of the dominator tree makes that test O(1): `x` is
/// in `v`'s subtree iff `pre[v] <= pre[x] < pre[v] + size[v]`.
#[derive(Clone, Debug, Default)]
struct EdgeCredit {
    /// Dominator-tree preorder index of every local vertex.
    pre: Vec<u32>,
    /// Next free preorder index below each local vertex, then the number
    /// of its kept in-edges from outside its subtree.
    count: Vec<u32>,
    /// Source of the last such in-edge.
    pred: Vec<u32>,
}

impl EdgeCredit {
    /// Credits every kept edge that is the only one entering its target
    /// from outside the target's dominator subtree with that subtree's
    /// size. The virtual root's edges name no graph edge and earn nothing.
    fn accumulate(
        &mut self,
        tree: &DomTree,
        sizes: &[u64],
        cascade: &CompactSample,
        mut credit: impl FnMut((u32, u32), u64),
    ) {
        let reached = cascade.num_reached();
        let EdgeCredit { pre, count, pred } = self;
        pre.clear();
        pre.resize(reached, 0);
        count.clear();
        count.resize(reached, 1);
        pred.resize(reached, 0);
        // Parents precede children in the tree's preorder, so each child
        // takes the next free block of its parent's interval.
        let idom = tree.idom_raw();
        for v in tree.preorder().skip(1).map(VertexId::index) {
            let parent = idom[v] as usize;
            pre[v] = count[parent];
            count[parent] += sizes[v] as u32;
            count[v] = pre[v] + 1;
        }
        count.fill(0);
        for (u, window) in cascade.offsets().windows(2).enumerate() {
            for &v in &cascade.targets()[window[0] as usize..window[1] as usize] {
                let v = v as usize;
                if pre[u].wrapping_sub(pre[v]) >= sizes[v] as u32 {
                    count[v] += 1;
                    pred[v] = u as u32;
                }
            }
        }
        let globals = cascade.vertices();
        for v in 1..reached {
            if count[v] == 1 && pred[v] != 0 {
                credit((globals[pred[v] as usize], globals[v]), sizes[v]);
            }
        }
    }
}

/// Which stored live edges the re-rooted BFS keeps — the kernel's
/// per-family input. Vertex blocking drops edges into blocked vertices,
/// edge blocking drops deleted edges, and prebunking drops edges into
/// prebunked vertices whose `α`-coin fails (see [`crate::intervene`]).
/// Every filter is a pure function of its arguments, so answers stay
/// bit-identical at any thread count.
pub(crate) trait EdgeFilter: Sync {
    /// Whether the live edge `u → t` of realisation `sample` survives.
    fn keeps(&self, sample: usize, u: u32, t: u32) -> bool;
}

/// Vertex blocking: drops every edge into a blocked vertex.
pub(crate) struct BlockedVertices<'a>(pub(crate) &'a [bool]);

impl EdgeFilter for BlockedVertices<'_> {
    #[inline]
    fn keeps(&self, _sample: usize, _u: u32, t: u32) -> bool {
        !self.0[t as usize]
    }
}

/// The phase each lap slot of the kernel feeds.
const KERNEL_PHASES: [Phase; 5] = [
    Phase::Sample,
    Phase::Decode,
    Phase::Bfs,
    Phase::DomTree,
    Phase::Credit,
];
const PN_SAMPLE: usize = 0;
const PN_DECODE: usize = 1;
const PN_BFS: usize = 2;
const PN_DOMTREE: usize = 3;
const PN_CREDIT: usize = 4;

/// Number of leading cascades a *timed* accumulate routes through the
/// instrumented monomorphisation to measure the phase mix; the rest run
/// the untimed loop at full speed and [`Laps::split`] spreads the call's
/// total wall time by the profiled proportions. Keeping the instrumented
/// instance off the bulk of the work matters far more than the clock
/// reads themselves: the extra code in the loop body was observed
/// degrading the BFS codegen by 4–13% depending on build, while a
/// 128-sample profile prefix bounds that to ~0.2% of a θ=10⁴ query.
/// Phase totals stay exact by construction; per-phase attribution
/// carries the ~1/√PROFILE_SAMPLES sampling error per round.
const PROFILE_SAMPLES: usize = 128;

/// A cheap monotonic tick source for phase lapping. On x86-64 this is a
/// single `rdtsc` instruction — a fraction of the `clock_gettime` call
/// behind `Instant::now`. Ticks never leave the module: [`Laps::split`]
/// only uses their *ratios*, so the TSC frequency needs no calibration;
/// non-x86 targets fall back to `Instant`.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions — it only reads the
    // time-stamp counter.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// `Instant`-denominated lap for coarse, once-per-request phase boundaries
/// (the snapshot load/validate/map phases), where a full clock read per
/// lap is noise and no tick-to-nanosecond scaling pass runs afterwards.
pub(crate) fn lap_instant(mark: &mut Instant, slot: &mut u64) {
    let now = Instant::now();
    *slot += now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
}

/// One worker's phase laps: ticks per [`KERNEL_PHASES`] slot while the
/// kernel runs, nanoseconds once [`Laps::split`] has run. Chained laps
/// cost one tick read per phase boundary, and with `TIMED` off none.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Laps {
    mark: u64,
    ns: [u64; 5],
}

impl Laps {
    /// Adds the ticks since the previous lap to `slot`.
    #[inline]
    fn lap<const TIMED: bool>(&mut self, slot: usize) {
        if TIMED {
            let now = ticks();
            self.ns[slot] += now.wrapping_sub(self.mark);
            self.mark = now;
        }
    }

    /// Rewrites the tick counts as nanoseconds summing to `elapsed`, in
    /// their lapped proportions — whatever fraction of the iterations was
    /// lapped and whatever the tick frequency. All-zero slots stay zero.
    fn split(&mut self, elapsed: Duration) {
        let total: u64 = self.ns.iter().sum();
        if total == 0 {
            return;
        }
        let elapsed = elapsed.as_nanos() as f64;
        for slot in &mut self.ns {
            *slot = (*slot as f64 / total as f64 * elapsed) as u64;
        }
    }
}

/// Where the kernel's cascades come from: a pool's realisations re-rooted
/// at the seeds ([`Rerooted`]), or fresh samples ([`Sampled`]). Either way
/// each cascade lands in a [`CompactSample`] under a virtual root with one
/// edge per staged seed.
pub(crate) trait CascadeSource: Sync {
    /// A worker's position in the source: nothing for a pool, the RNG
    /// stream for a sampler.
    type Cursor;
    /// Number of cascades θ one pass visits.
    fn num_cascades(&self) -> usize;
    /// The cursor of worker `worker` out of `workers`.
    fn cursor(&self, worker: usize, workers: usize) -> Self::Cursor;
    /// Fills `cascade` with cascade `idx`, lapping its phases.
    fn fill<const TIMED: bool>(
        &self,
        cursor: &mut Self::Cursor,
        idx: usize,
        seeds: &[VertexId],
        cascade: &mut CompactSample,
        laps: &mut Laps,
    );
    /// Fills `cascade` with cascade `idx` as [`CascadeSource::fill`] would,
    /// but from `record`, its untreated cascade kept by the query's ledger;
    /// `record_of` is scratch. Only a source whose passes share a ledger
    /// gets here.
    fn replay<const TIMED: bool>(
        &self,
        record: Record<'_>,
        idx: usize,
        seeds: &[VertexId],
        scratch: (&mut CompactSample, &mut Vec<u32>),
        laps: &mut Laps,
    );
}

/// A pool's realisations re-rooted at the seeds, keeping the live edges
/// `filter` lets through. Neighbour lists are read straight from the
/// arena view — raw slices, varint streams and bitset walks all feed the
/// identical BFS, with zero steady-state allocation — or, in a ledger's
/// later passes, from the realisation's recorded first-pass cascade.
pub(crate) struct Rerooted<'a, F> {
    pub(crate) pool: &'a SamplePool,
    pub(crate) filter: F,
}

impl<F: EdgeFilter> CascadeSource for Rerooted<'_, F> {
    type Cursor = ();

    fn num_cascades(&self) -> usize {
        self.pool.theta()
    }

    fn cursor(&self, _worker: usize, _workers: usize) {}

    fn fill<const TIMED: bool>(
        &self,
        _cursor: &mut (),
        idx: usize,
        seeds: &[VertexId],
        cascade: &mut CompactSample,
        laps: &mut Laps,
    ) {
        let view = self.pool.arena.view(idx);
        laps.lap::<TIMED>(PN_DECODE);
        cascade.root_at(self.pool.num_vertices, seeds);
        // Multi-source BFS over the stored live edges; only the
        // intervention filters them — the coins were flipped at build time.
        let mut head = 1;
        while let Some(&u) = cascade.vertices().get(head) {
            head += 1;
            view.for_each_live(u, |t| {
                if self.filter.keeps(idx, u, t) {
                    cascade.push_live(t);
                }
            });
            cascade.seal_vertex();
        }
        laps.lap::<TIMED>(PN_BFS);
    }

    /// The same BFS over the record. The record holds, in arena order,
    /// every live edge out of every vertex the untreated BFS reached, and
    /// a treatment only removes edges, so each vertex this BFS expands has
    /// its full live adjacency there: the filter sees the same edges in the
    /// same order as over the arena, and the cascade comes out identical.
    fn replay<const TIMED: bool>(
        &self,
        record: Record<'_>,
        idx: usize,
        seeds: &[VertexId],
        (cascade, record_of): (&mut CompactSample, &mut Vec<u32>),
        laps: &mut Laps,
    ) {
        cascade.root_at(self.pool.num_vertices, seeds);
        // The virtual root and the seeds come first in both cascades.
        record_of.clear();
        record_of.extend(0..cascade.num_reached() as u32);
        let mut head = 1;
        while let Some(&u) = cascade.vertices().get(head) {
            let local = record_of[head];
            head += 1;
            for &t in record.neighbours(local) {
                let global = record.global(t);
                if self.filter.keeps(idx, u, global) {
                    let reached = cascade.num_reached();
                    cascade.push_live(global);
                    if cascade.num_reached() > reached {
                        record_of.push(t);
                    }
                }
            }
            cascade.seal_vertex();
        }
        laps.lap::<TIMED>(PN_BFS);
    }
}

/// θ fresh samples of `sampler` that skip the `blocked` vertices. Worker
/// `t` of several draws from `seed + 0x9E3779B97F4A7C15·(t + 1)`, a lone
/// worker from `seed` itself, so a Fresh estimate depends on the thread
/// count but is deterministic for each.
pub(crate) struct Sampled<'a, S: ?Sized> {
    pub(crate) sampler: &'a S,
    pub(crate) graph: &'a DiGraph,
    pub(crate) blocked: &'a [bool],
    pub(crate) theta: usize,
    pub(crate) seed: u64,
}

impl<S: SpreadSampler + ?Sized> CascadeSource for Sampled<'_, S> {
    type Cursor = SmallRng;

    fn num_cascades(&self) -> usize {
        self.theta
    }

    fn cursor(&self, worker: usize, workers: usize) -> SmallRng {
        let stride = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1);
        let offset = if workers > 1 { stride } else { 0 };
        SmallRng::seed_from_u64(self.seed.wrapping_add(offset))
    }

    fn fill<const TIMED: bool>(
        &self,
        rng: &mut SmallRng,
        _idx: usize,
        seeds: &[VertexId],
        cascade: &mut CompactSample,
        laps: &mut Laps,
    ) {
        let Sampled {
            sampler,
            graph,
            blocked,
            ..
        } = *self;
        sampler.sample_multi(graph, seeds, blocked, rng, cascade);
        laps.lap::<TIMED>(PN_SAMPLE);
    }

    fn replay<const TIMED: bool>(
        &self,
        _record: Record<'_>,
        _idx: usize,
        _seeds: &[VertexId],
        _cascade: (&mut CompactSample, &mut Vec<u32>),
        _laps: &mut Laps,
    ) {
        unreachable!("fresh samples differ from call to call, so they keep no ledger")
    }
}

/// Bytes of per-realisation records one query's ledger may hold: 16 MiB.
/// Each cascade vertex costs 24 bytes (an 8-byte credit entry, an 8-byte
/// index link and an 8-byte node of the recorded cascade), each recorded
/// live edge 4, and each realisation two 16-byte slots, so the cap holds
/// roughly half a million cascade vertices. A question whose ledger would
/// outgrow it — hub seeds on a large pool — prices every round with a
/// full pass over the arena instead, which gives the same answer. The
/// per-worker index heads (4 bytes per graph vertex) are scratch like the
/// credit sums and are not counted.
pub(crate) const LEDGER_CAP_BYTES: usize = 16 << 20;

/// End of an index chain.
const NIL: u32 = u32::MAX;

/// Where one realisation's credit list sits in the ledger: the worker's
/// book that holds it, its position there, and the vertices the cascade
/// reached (the seeds included, the virtual root not).
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    book: u32,
    start: u32,
    len: u32,
    reached: u32,
}

/// One worker's share of a query's ledger: the credit lists of the
/// realisations it rebuilt, appended pass after pass, and its part of the
/// index from each vertex to the realisations whose first, untreated BFS
/// reached it. A rebuilt realisation's earlier credit stays behind as
/// garbage.
#[derive(Clone, Debug, Default)]
struct Book {
    /// `(vertex, subtree size)` credit entries of the vertex families.
    vertex_credit: Vec<(u32, u32)>,
    /// `(edge, subtree size)` credit entries of the edge family.
    edge_credit: Vec<((u32, u32), u32)>,
    /// First index link of each vertex, [`NIL`] when none.
    head: Vec<u32>,
    /// Index links: a realisation, and the vertex's next link.
    links: Vec<(u32, u32)>,
    /// The slots of the realisations this worker rebuilt in the current
    /// pass, in pass order.
    built: Vec<Slot>,
}

impl Book {
    /// Empties the book for a query on a graph of `n` vertices.
    fn reset(&mut self, n: usize) {
        self.vertex_credit.clear();
        self.edge_credit.clear();
        self.head.clear();
        self.head.resize(n, NIL);
        self.links.clear();
        self.built.clear();
    }

    /// Lengths of the credit list and the index links before a
    /// realisation is recorded.
    fn mark<const EDGE_CREDIT: bool>(&self) -> (usize, usize) {
        let credit = if EDGE_CREDIT {
            self.edge_credit.len()
        } else {
            self.vertex_credit.len()
        };
        (credit, self.links.len())
    }

    /// Lists realisation `idx` under every vertex its untreated cascade
    /// reached beyond the seeds. A treatment only removes edges, so these
    /// are all the targets any later BFS of the realisation can scan, kept
    /// or dropped: the only vertices whose treatment, or the deletion of
    /// an edge into them, can change the cascade. The seeds are reached
    /// through the virtual root whatever the treatment, and no family ever
    /// treats one.
    fn index(&mut self, idx: u32, cascade: &CompactSample, only_seeds: usize) {
        for &v in &cascade.vertices()[only_seeds..] {
            let head = &mut self.head[v as usize];
            self.links.push((idx, *head));
            *head = (self.links.len() - 1) as u32;
        }
    }

    /// Records the slot of the realisation recorded since `mark`, and
    /// returns the bytes its records take.
    fn close<const EDGE_CREDIT: bool>(
        &mut self,
        (credit, links): (usize, usize),
        reached: usize,
    ) -> usize {
        let (end, entry) = if EDGE_CREDIT {
            (
                self.edge_credit.len(),
                std::mem::size_of::<((u32, u32), u32)>(),
            )
        } else {
            (self.vertex_credit.len(), std::mem::size_of::<(u32, u32)>())
        };
        self.built.push(Slot {
            book: 0,
            start: credit as u32,
            len: (end - credit) as u32,
            reached: reached as u32,
        });
        (end - credit) * entry + (self.links.len() - links) * std::mem::size_of::<(u32, u32)>()
    }
}

/// Where one realisation's recorded cascade sits: the worker's records
/// that hold it, its first node, its node count (the virtual root
/// included) and its first target.
#[derive(Clone, Copy, Debug, Default)]
struct RecordSlot {
    book: u32,
    start: u32,
    len: u32,
    targets: u32,
}

/// One worker's share of the cascades a ledger's first pass recorded:
/// each realisation's untreated cascade as the BFS left it. A worker
/// writes these only in the first pass, and every worker of every later
/// pass reads them; nothing is recorded again after a rebuild.
#[derive(Clone, Debug, Default)]
struct Records {
    /// Every local vertex of every cascade, the virtual root first: its
    /// global id and the end of its live edges in the cascade's targets.
    nodes: Vec<(u32, u32)>,
    /// The cascades' live edges in local ids, in arena order.
    targets: Vec<u32>,
    /// Where each cascade recorded in the current pass starts, in pass
    /// order.
    built: Vec<RecordSlot>,
}

impl Records {
    /// Appends `cascade`, and returns the bytes it takes.
    fn record(&mut self, cascade: &CompactSample) -> usize {
        self.built.push(RecordSlot {
            book: 0,
            start: self.nodes.len() as u32,
            len: cascade.num_reached() as u32,
            targets: self.targets.len() as u32,
        });
        let ends = cascade.offsets()[1..].iter().copied();
        self.nodes
            .extend(cascade.vertices().iter().copied().zip(ends));
        self.targets.extend_from_slice(cascade.targets());
        cascade.num_reached() * std::mem::size_of::<(u32, u32)>()
            + cascade.num_edges() * std::mem::size_of::<u32>()
    }

    /// The cascade recorded at `slot`.
    fn get(&self, slot: RecordSlot) -> Record<'_> {
        let start = slot.start as usize;
        Record {
            nodes: &self.nodes[start..start + slot.len as usize],
            targets: &self.targets[slot.targets as usize..],
        }
    }
}

/// A realisation's recorded untreated cascade.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record<'a> {
    nodes: &'a [(u32, u32)],
    targets: &'a [u32],
}

impl Record<'_> {
    /// The live edges out of local vertex `local`, which is not the
    /// virtual root, in local ids.
    #[inline]
    fn neighbours(&self, local: u32) -> &[u32] {
        let local = local as usize;
        &self.targets[self.nodes[local - 1].1 as usize..self.nodes[local].1 as usize]
    }

    /// The global id of local vertex `local`.
    #[inline]
    fn global(&self, local: u32) -> u32 {
        self.nodes[local as usize].0
    }
}

/// A worker's part in its query's ledger for one pass.
enum Tape<'a> {
    /// No ledger: fill from the source.
    Off,
    /// A ledger's first pass: fill from the source, and record each
    /// cascade and its reached vertices (the index).
    Record(&'a mut Records),
    /// A ledger's later pass: refill each cascade from its record.
    Replay(&'a [Records], &'a [RecordSlot]),
}

/// One [`Tape`] per worker of a pass in `state`, over the ledger's
/// `records` and record `slots`.
fn tapes<'a>(
    state: LedgerState,
    records: &'a mut [Records],
    slots: &'a [RecordSlot],
) -> impl Iterator<Item = Tape<'a>> {
    let (write, read): (&mut [Records], &[Records]) = match state {
        LedgerState::Fill => (records, &[]),
        _ => (&mut [], records),
    };
    let replay = state == LedgerState::Filled;
    let rest = std::iter::repeat_with(move || {
        if replay {
            Tape::Replay(read, slots)
        } else {
            Tape::Off
        }
    });
    write.iter_mut().map(Tape::Record).chain(rest)
}

/// Per-worker scratch of the kernel: the cascade buffers, the
/// dominator-tree workspace, the integer accumulators of one pass and the
/// worker's book of the query's ledger.
#[derive(Clone, Debug, Default)]
struct KernelScratch {
    cascade: CompactSample,
    edge_credit: EdgeCredit,
    domtree: DomTreeWorkspace,
    sizes: Vec<u64>,
    /// This pass's subtree-size sums per global vertex, all zero between
    /// passes; `touched` lists the vertices it made non-zero. `u64`
    /// addition is associative, so merging per-worker sums is order- and
    /// thread-count-independent — the determinism contract of the pool.
    delta_sum: Vec<u64>,
    touched: Vec<u32>,
    /// This pass's subtree-size sums per live edge `(pred, v)`, filled by
    /// the edge-credit instantiation instead of `delta_sum`.
    edge_sum: EdgeSums,
    reached_sum: u64,
    /// Phase laps of the last `accumulate` call (all zero when it ran
    /// untimed). Workers fill these plain slots; the calling thread folds
    /// them into its `imin_obs` span after the join.
    laps: Laps,
    book: Book,
    /// The record's local id of each vertex of a replayed cascade.
    record_of: Vec<u32>,
}

impl KernelScratch {
    /// Runs the kernel over the cascades `list` of `source`, accumulating
    /// dominator-subtree sizes per vertex into `self.delta_sum`, or — with
    /// `EDGE_CREDIT` — per live edge into `self.edge_sum` (see
    /// [`EdgeCredit`]). A `full` pass first sizes and zeroes the vertex
    /// sums for a graph of `n` vertices. With `record`, every cascade's
    /// credit also goes into the worker's book while the query's ledger
    /// (whose byte count `record` holds) stays under [`LEDGER_CAP_BYTES`];
    /// `tape` says where the cascades come from and whether the ledger's
    /// first pass records them (see [`Tape`]).
    ///
    /// When `timed` is set, the first [`PROFILE_SAMPLES`] cascades run
    /// through the instrumented monomorphisation, which laps every phase
    /// boundary, and the call's wall time is spread across the phases in
    /// the profiled proportions. The untimed monomorphisation compiles
    /// every clock read out. Both run the identical accumulation logic,
    /// and a sampler's stream continues from one into the other, so
    /// answers are byte-identical with timing on and off.
    #[allow(clippy::too_many_arguments)]
    fn accumulate<const EDGE_CREDIT: bool, C: CascadeSource>(
        &mut self,
        source: &C,
        cursor: &mut C::Cursor,
        seeds: &[VertexId],
        (n, full): (usize, bool),
        list: &[u32],
        timed: bool,
        (record, mut tape): (Option<&AtomicUsize>, Tape<'_>),
    ) {
        if EDGE_CREDIT {
            self.edge_sum.clear();
        } else if full {
            self.delta_sum.clear();
            self.delta_sum.resize(n, 0);
            self.touched.clear();
        }
        self.reached_sum = 0;
        self.book.built.clear();
        if let Tape::Record(records) = &mut tape {
            records.built.clear();
        }
        self.laps = Laps::default();
        let start = timed.then(Instant::now);
        let profiled = if timed {
            list.len().min(PROFILE_SAMPLES)
        } else {
            0
        };
        let (profiled, rest) = list.split_at(profiled);
        let ledger = (record, &mut tape);
        if timed {
            self.accumulate_impl::<true, EDGE_CREDIT, C>(source, cursor, seeds, profiled, ledger);
        }
        let ledger = (record, &mut tape);
        self.accumulate_impl::<false, EDGE_CREDIT, C>(source, cursor, seeds, rest, ledger);
        if let Some(start) = start {
            self.laps.split(start.elapsed());
        }
    }

    /// The one cascade → dominator tree → credit kernel (Algorithm 2)
    /// behind every intervention family and both estimator backends.
    fn accumulate_impl<const TIMED: bool, const EDGE_CREDIT: bool, C: CascadeSource>(
        &mut self,
        source: &C,
        cursor: &mut C::Cursor,
        seeds: &[VertexId],
        list: &[u32],
        (record, tape): (Option<&AtomicUsize>, &mut Tape<'_>),
    ) {
        let KernelScratch {
            cascade,
            edge_credit,
            domtree,
            sizes,
            delta_sum,
            touched,
            edge_sum,
            reached_sum,
            laps,
            book,
            record_of,
        } = self;
        let only_seeds = 1 + seeds.len();
        for &idx in list {
            if TIMED {
                laps.mark = ticks();
            }
            if let Tape::Replay(records, slots) = tape {
                let slot = slots[idx as usize];
                let record = records[slot.book as usize].get(slot);
                let scratch = (&mut *cascade, &mut *record_of);
                source.replay::<TIMED>(record, idx as usize, seeds, scratch, laps);
            } else {
                source.fill::<TIMED>(cursor, idx as usize, seeds, cascade, laps);
            }
            let reached = cascade.num_reached();
            // The virtual root is bookkeeping, not spread.
            *reached_sum += (reached - 1) as u64;
            // Past the cap the pass still prices every cascade; the
            // ledger is dropped after the join.
            let recording = record.filter(|bytes| bytes.load(Relaxed) <= LEDGER_CAP_BYTES);
            let mark = book.mark::<EDGE_CREDIT>();
            // With nothing beyond the seeds reached, no candidate can earn
            // credit from this cascade.
            if reached > only_seeds {
                let (offsets, targets) = (cascade.offsets(), cascade.targets());
                let tree = domtree.compute_csr(reached, offsets, targets, VertexId::new(0));
                laps.lap::<TIMED>(PN_DOMTREE);
                tree.subtree_sizes_into(sizes);
                if EDGE_CREDIT {
                    edge_credit.accumulate(tree, sizes, cascade, |edge, size| {
                        *edge_sum.entry(edge).or_insert(0) += size;
                        if recording.is_some() {
                            book.edge_credit.push((edge, size as u32));
                        }
                    });
                } else {
                    // Seeds earn no credit: blocking one is not allowed. The
                    // seeds are interned first, so they are locals 1..=k.
                    let credited = cascade.vertices()[only_seeds..].iter();
                    for (&global, &size) in credited.zip(&sizes[only_seeds..reached]) {
                        let sum = &mut delta_sum[global as usize];
                        if *sum == 0 {
                            touched.push(global);
                        }
                        *sum += size;
                        if recording.is_some() {
                            book.vertex_credit.push((global, size as u32));
                        }
                    }
                }
            }
            if let Some(bytes) = recording {
                let mut added = 0;
                if let Tape::Record(records) = tape {
                    book.index(idx, cascade, only_seeds);
                    added += records.record(cascade);
                }
                added += book.close::<EDGE_CREDIT>(mark, reached - 1);
                bytes.fetch_add(added, Relaxed);
            }
            laps.lap::<TIMED>(PN_CREDIT);
        }
    }
}

/// Whether a query keeps a ledger, and how far it has got.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum LedgerState {
    /// Every pass rebuilds every realisation and records nothing: one-shot
    /// passes, the Fresh backend, and queries over [`LEDGER_CAP_BYTES`].
    #[default]
    Off,
    /// The next pass rebuilds every realisation and fills the ledger.
    Fill,
    /// The ledger holds every realisation of the last pass; the next pass
    /// rebuilds only those listed under a vertex in `changed`.
    Filled,
}

/// A query's record of its last pass, so that each later round rebuilds
/// only the realisations the last treatment change can affect. A cascade
/// depends on the treatment only through the targets its BFS scanned, so
/// treating or untreating `v`, or deleting or restoring an edge into `v`,
/// can change only the realisations whose BFS scanned `v`. The first pass
/// runs untreated, and a treatment only removes edges, so every vertex a
/// later BFS can scan — kept or dropped — is reached there: its reached
/// sets are the index, and a realisation whose cascade no longer reaches
/// `v` costs a wasted rebuild, never a wrong answer. A rebuilt
/// realisation's old credit comes off the sums and its new credit goes on,
/// in `u64`, so every estimate is bit-identical to a full pass at any
/// thread count.
#[derive(Clone, Debug, Default)]
struct Ledger {
    state: LedgerState,
    /// Vertices treated or untreated, or targets of edges deleted or
    /// restored, since the last pass.
    changed: Vec<u32>,
    /// Where each realisation's records are.
    slots: Vec<Slot>,
    /// Number of worker books the ledger spans.
    books: usize,
    /// The realisations the current pass rebuilds, ascending.
    dirty: Vec<u32>,
    /// Bytes of records held, counted as [`LEDGER_CAP_BYTES`] documents.
    bytes: usize,
    /// The first pass's cascades, one share per worker book, and where
    /// each realisation's is.
    records: Vec<Records>,
    recorded: Vec<RecordSlot>,
}

impl Ledger {
    /// Starts an empty ledger over `theta` realisations, spread over the
    /// books of `workers`.
    fn fill(&mut self, theta: usize, n: usize, workers: &mut [KernelScratch]) {
        self.slots.clear();
        self.slots.resize(theta, Slot::default());
        self.recorded.clear();
        self.recorded.resize(theta, RecordSlot::default());
        self.books = workers.len();
        self.bytes = theta * (std::mem::size_of::<Slot>() + std::mem::size_of::<RecordSlot>());
        for worker in workers {
            worker.book.reset(n);
        }
        self.records.resize_with(self.books, Records::default);
        for records in &mut self.records {
            records.nodes.clear();
            records.targets.clear();
        }
    }

    /// Lists in `dirty`, once each and ascending, the realisations indexed
    /// under a changed vertex.
    fn select_dirty(&mut self, workers: &[KernelScratch]) {
        self.dirty.clear();
        for &v in &self.changed {
            for worker in &workers[..self.books] {
                let book = &worker.book;
                let mut link = book.head[v as usize];
                while link != NIL {
                    let (idx, next) = book.links[link as usize];
                    self.dirty.push(idx);
                    link = next;
                }
            }
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
    }

    /// After a recording pass over `dirty`, sharded over the first
    /// `active` workers: points every rebuilt realisation at its new
    /// records, or — when the records have outgrown
    /// [`LEDGER_CAP_BYTES`] — drops the ledger and its memory, so later
    /// passes rebuild every realisation.
    fn settle(&mut self, bytes: usize, workers: &mut [KernelScratch], active: usize) {
        if bytes > LEDGER_CAP_BYTES {
            self.state = LedgerState::Off;
            for worker in &mut workers[..self.books] {
                worker.book = Book::default();
            }
            self.records = Vec::new();
            return;
        }
        let first = self.state == LedgerState::Fill;
        self.state = LedgerState::Filled;
        self.bytes = bytes;
        let shards = workers
            .iter_mut()
            .zip(shard_ranges(self.dirty.len(), active));
        for (book, (worker, range)) in shards.enumerate() {
            let (dirty, book) = (&self.dirty[range], book as u32);
            for (slot, &idx) in worker.book.built.iter().zip(dirty) {
                self.slots[idx as usize] = Slot { book, ..*slot };
            }
            if first {
                for (slot, &idx) in self.records[book as usize].built.iter().zip(dirty) {
                    self.recorded[idx as usize] = RecordSlot { book, ..*slot };
                }
            }
        }
    }
}

/// The merged credit of a query's passes: rebuilt from zero by a full
/// pass, corrected realisation by realisation by a ledger round.
#[derive(Clone, Debug, Default)]
struct Sums {
    vertex: Vec<u64>,
    /// Only edges with positive credit: the edge family stops when no
    /// edge earns any.
    edge: EdgeSums,
    reached: u64,
    /// Vertices whose sum the current pass changed (with repeats).
    touched: Vec<u32>,
}

impl Sums {
    /// Zeroes the sums of a graph of `n` vertices.
    fn reset<const EDGE_CREDIT: bool>(&mut self, n: usize) {
        if EDGE_CREDIT {
            self.edge.clear();
        } else {
            self.vertex.clear();
            self.vertex.resize(n, 0);
        }
        self.reached = 0;
    }

    /// Takes the recorded credit of every dirty realisation off the sums.
    fn retract<const EDGE_CREDIT: bool>(&mut self, ledger: &Ledger, workers: &[KernelScratch]) {
        for &idx in &ledger.dirty {
            let slot = ledger.slots[idx as usize];
            self.reached -= u64::from(slot.reached);
            let book = &workers[slot.book as usize].book;
            let range = slot.start as usize..(slot.start + slot.len) as usize;
            if EDGE_CREDIT {
                for &(edge, size) in &book.edge_credit[range] {
                    let sum = self.edge.get_mut(&edge).expect("recorded credit is summed");
                    *sum -= u64::from(size);
                    if *sum == 0 {
                        self.edge.remove(&edge);
                    }
                }
            } else {
                for &(v, size) in &book.vertex_credit[range] {
                    self.vertex[v as usize] -= u64::from(size);
                    self.touched.push(v);
                }
            }
        }
    }

    /// Adds one worker's sums of this pass, leaving them zero.
    fn absorb<const EDGE_CREDIT: bool>(&mut self, worker: &mut KernelScratch) {
        self.reached += worker.reached_sum;
        if EDGE_CREDIT {
            for (edge, d) in worker.edge_sum.drain() {
                *self.edge.entry(edge).or_insert(0) += d;
            }
        } else {
            for &v in &worker.touched {
                self.vertex[v as usize] += std::mem::take(&mut worker.delta_sum[v as usize]);
            }
            self.touched.append(&mut worker.touched);
        }
    }
}

/// Reusable state for the estimator kernel and the greedy loops on top of
/// it, on either backend: one scratch set per worker thread, the
/// canonicalised-seed buffers, the merged sums and the query's ledger,
/// kept alive across rounds and across queries so that steady-state
/// passes allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct PoolWorkspace {
    workers: Vec<KernelScratch>,
    seeds: Vec<VertexId>,
    is_seed: Vec<bool>,
    sums: Sums,
    ledger: Ledger,
}

thread_local! {
    /// Per-thread scratch behind [`with_pool_workspace`].
    static SOLVER_POOL_WORKSPACE: std::cell::RefCell<PoolWorkspace> =
        std::cell::RefCell::new(PoolWorkspace::new());
}

/// Runs `f` with this thread's reusable [`PoolWorkspace`].
///
/// The pooled [`crate::BlockerSolver`] arms take their workspace from here,
/// so a resident engine answering many queries on one serving thread keeps
/// the PR-3 steady-state allocation profile without threading `&mut`
/// workspaces through the solver trait. Callers that manage their own
/// workspace lifetimes (the `_in` entry points) are unaffected.
///
/// # Panics
/// Panics if `f` itself re-enters `with_pool_workspace` on the same thread
/// (the workspace is exclusively borrowed for the duration of `f`).
pub fn with_pool_workspace<R>(f: impl FnOnce(&mut PoolWorkspace) -> R) -> R {
    SOLVER_POOL_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

impl PoolWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonicalises (sorts, dedups, validates) the query seed set into the
    /// workspace buffers, and turns the ledger off: a new query prices with
    /// full passes until its pricer starts a ledger. A seed inside
    /// `blocked` is a [`IminError::ForbiddenSeedOverlap`]; families that
    /// treat vertices without removing them (edge blocking, prebunking)
    /// pass `None`.
    pub(crate) fn stage_seeds(
        &mut self,
        n: usize,
        seeds: &[VertexId],
        blocked: Option<&[bool]>,
    ) -> Result<()> {
        self.ledger.state = LedgerState::Off;
        if seeds.is_empty() {
            return Err(IminError::EmptySeedSet);
        }
        // A previous query may have staged seeds for a different (larger)
        // graph; clear only the slots that still exist.
        for &v in &self.seeds {
            if let Some(slot) = self.is_seed.get_mut(v.index()) {
                *slot = false;
            }
        }
        self.is_seed.resize(n, false);
        self.seeds.clear();
        for &s in seeds {
            if s.index() >= n {
                return Err(IminError::SeedOutOfRange {
                    vertex: s.index(),
                    num_vertices: n,
                });
            }
            if blocked.is_some_and(|blocked| blocked[s.index()]) {
                return Err(IminError::ForbiddenSeedOverlap { vertex: s.index() });
            }
            self.seeds.push(s);
        }
        self.seeds.sort_unstable();
        self.seeds.dedup();
        for &s in &self.seeds {
            self.is_seed[s.index()] = true;
        }
        Ok(())
    }

    /// Makes the staged query keep a ledger: its next pass over a pool
    /// rebuilds every realisation and records it, and each later pass
    /// rebuilds only the realisations the vertices given to
    /// [`PoolWorkspace::mark_changed`] can affect. Only a pricer whose
    /// passes all re-root one pool through one filter family may start
    /// one, before it treats anything: the first pass must see every
    /// stored live edge.
    pub(crate) fn start_ledger(&mut self) {
        self.ledger.state = LedgerState::Fill;
        self.ledger.changed.clear();
    }

    /// Notes that `v` was treated or untreated, or that an edge into `v`
    /// was deleted or restored, since the last pass.
    pub(crate) fn mark_changed(&mut self, v: u32) {
        if self.ledger.state == LedgerState::Filled {
            self.ledger.changed.push(v);
        }
    }

    /// Membership mask of the staged seed set.
    pub(crate) fn is_seed(&self) -> &[bool] {
        &self.is_seed
    }

    /// The merged per-edge credit of the last [`edge_credit`] pass.
    pub(crate) fn edge_credit(&self) -> &EdgeSums {
        &self.sums.edge
    }

    /// The reached count of the last pass, summed over its θ cascades.
    pub(crate) fn reached(&self) -> u64 {
        self.sums.reached
    }
}

/// Rejects a per-vertex mask whose length is not the pool's vertex count.
pub(crate) fn check_mask_len(pool: &SamplePool, mask: &[bool]) -> Result<()> {
    if mask.len() != pool.num_vertices() {
        return Err(IminError::Diffusion(
            imin_diffusion::DiffusionError::MaskLengthMismatch {
                mask_len: mask.len(),
                num_vertices: pool.num_vertices(),
            },
        ));
    }
    Ok(())
}

/// Runs the kernel for the seed set staged in `workspace` over the cascades
/// of `source` a pass must rebuild — all θ, or with a filled ledger only
/// the dirty ones, whose recorded credit first comes off the sums — sharded
/// into contiguous ranges across `threads` workers, and merges the
/// per-worker integer sums. `u64` addition is order-independent, so the
/// merged sums are the same at every thread count. `finish` reads them,
/// with whether the pass rebuilt them from zero, inside the timed merge
/// window; the phase laps of every worker land in the calling thread's
/// span, if one is active. Returns what the pass cost: θ, the cascades it
/// rebuilt, and how many of those it replayed from the ledger's records.
fn run_kernel<const EDGE_CREDIT: bool, C: CascadeSource>(
    source: &C,
    threads: usize,
    workspace: &mut PoolWorkspace,
    finish: impl FnOnce(&Sums, bool),
) -> Priced {
    let theta = source.num_cascades();
    let threads = threads.max(1).min(theta);
    // Sampled on the calling thread: workers collect plain nanosecond
    // slots, and only the caller's span (if any) aggregates them.
    let timed = imin_obs::span::active();
    let plan_start = timed.then(Instant::now);
    let PoolWorkspace {
        workers,
        seeds,
        is_seed,
        sums,
        ledger,
    } = workspace;
    if workers.len() < threads {
        workers.resize_with(threads, KernelScratch::default);
    }
    let (seeds, n) = (&*seeds, is_seed.len());
    let full = ledger.state != LedgerState::Filled;
    sums.touched.clear();
    if full {
        sums.reset::<EDGE_CREDIT>(n);
        if ledger.state == LedgerState::Fill {
            ledger.fill(theta, n, &mut workers[..threads]);
        }
        ledger.dirty.clear();
        ledger.dirty.extend(0..theta as u32);
    } else {
        ledger.select_dirty(workers);
        sums.retract::<EDGE_CREDIT>(ledger, workers);
    }
    ledger.changed.clear();
    let bytes = AtomicUsize::new(ledger.bytes);
    let record = (ledger.state != LedgerState::Off).then_some(&bytes);
    let (dirty, rebuilt) = (&ledger.dirty[..], ledger.dirty.len());
    let replayed = if full { 0 } else { rebuilt };
    let tapes = tapes(ledger.state, &mut ledger.records, &ledger.recorded);
    let active = threads.min(rebuilt).max(1);
    let plan_ns = plan_start.map_or(0, |start| start.elapsed().as_nanos() as u64);
    let shared = (n, full);
    if active <= 1 {
        let mut tapes = tapes;
        let cursor = &mut source.cursor(0, 1);
        let ledger = (record, tapes.next().expect("one tape per worker"));
        workers[0]
            .accumulate::<EDGE_CREDIT, C>(source, cursor, seeds, shared, dirty, timed, ledger);
    } else {
        crossbeam::scope(|scope| {
            let shards = workers.iter_mut().zip(shard_ranges(rebuilt, active));
            for (t, ((worker, range), tape)) in shards.zip(tapes).enumerate() {
                scope.spawn(move |_| {
                    let cursor = &mut source.cursor(t, active);
                    let list = &dirty[range];
                    worker.accumulate::<EDGE_CREDIT, C>(
                        source,
                        cursor,
                        seeds,
                        shared,
                        list,
                        timed,
                        (record, tape),
                    )
                });
            }
        })
        .expect("estimator worker panicked");
    }
    let merge_start = timed.then(Instant::now);
    for worker in &mut workers[..active] {
        sums.absorb::<EDGE_CREDIT>(worker);
    }
    if record.is_some() {
        ledger.settle(bytes.into_inner(), workers, active);
    }
    finish(sums, full);
    if timed {
        for worker in &workers[..active] {
            for (&phase, &ns) in KERNEL_PHASES.iter().zip(&worker.laps.ns) {
                span::add_ns(phase, ns);
            }
        }
        if let Some(start) = merge_start {
            // Picking the dirty realisations, retracting their old credit,
            // the merge and the finalisation scale with the credit, like
            // credit accumulation.
            span::add_ns(Phase::Credit, plan_ns + start.elapsed().as_nanos() as u64);
        }
    }
    Priced {
        samples: theta,
        rebuilt,
        replayed,
    }
}

/// Per-vertex credit pass over `source` for the seed set already staged
/// in `workspace`: Algorithm 2's estimate written into `estimate`, with
/// `delta[u]` 0 for seeds and for vertices no cascade reached. A ledger
/// round rewrites only the entries whose sums it changed. Returns what the
/// pass cost.
pub(crate) fn vertex_credit<C: CascadeSource>(
    source: &C,
    threads: usize,
    workspace: &mut PoolWorkspace,
    estimate: &mut DecreaseEstimate,
) -> Priced {
    let theta = source.num_cascades();
    let inv = 1.0 / theta as f64;
    run_kernel::<false, C>(source, threads, workspace, |sums, full| {
        if full {
            estimate.delta.clear();
            estimate
                .delta
                .extend(sums.vertex.iter().map(|&d| d as f64 * inv));
        } else {
            for &v in &sums.touched {
                estimate.delta[v as usize] = sums.vertex[v as usize] as f64 * inv;
            }
        }
        estimate.average_reached = sums.reached as f64 * inv;
        estimate.samples = theta;
    })
}

/// Per-edge credit pass over `source` for the seed set already staged in
/// `workspace`: every live edge `(pred, v)` whose deletion detaches `v`
/// earns `v`'s dominator-subtree size (see [`EdgeCredit`]). Returns what
/// the pass cost; the merged credit is then
/// [`PoolWorkspace::edge_credit`] and the reached count
/// [`PoolWorkspace::reached`].
pub(crate) fn edge_credit<C: CascadeSource>(
    source: &C,
    threads: usize,
    workspace: &mut PoolWorkspace,
) -> Priced {
    run_kernel::<true, C>(source, threads, workspace, |_, _| {})
}

/// Algorithm 2 against a resident pool: estimates the spread decrease of
/// every candidate blocker for a (multi-)seed query by re-rooting the θ
/// stored realisations, without drawing a single new sample.
///
/// `estimate.delta[u]` is 0 for seeds, blocked vertices and unreachable
/// vertices; `estimate.average_reached` counts every reached seed (it is
/// directly comparable to the original-graph spread of `ImninProblem`).
///
/// Results are bit-identical for every `threads` value — see the module
/// docs for why.
///
/// # Errors
/// Returns an error if the seed set is empty, out of range or blocked, or
/// the blocked mask has the wrong length.
pub fn pooled_decrease_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    blocked: &[bool],
    threads: usize,
    workspace: &mut PoolWorkspace,
) -> Result<DecreaseEstimate> {
    check_mask_len(pool, blocked)?;
    workspace.stage_seeds(pool.num_vertices(), seeds, Some(blocked))?;
    let filter = BlockedVertices(blocked);
    let mut estimate = DecreaseEstimate::default();
    vertex_credit(
        &Rerooted { pool, filter },
        threads,
        workspace,
        &mut estimate,
    );
    Ok(estimate)
}

/// One-shot convenience over [`pooled_decrease_in`] with a fresh workspace.
///
/// # Errors
/// Same conditions as [`pooled_decrease_in`].
pub fn pooled_decrease(
    pool: &SamplePool,
    seeds: &[VertexId],
    blocked: &[bool],
    threads: usize,
) -> Result<DecreaseEstimate> {
    pooled_decrease_in(pool, seeds, blocked, threads, &mut PoolWorkspace::new())
}

/// Validates the query-shaped inputs shared by the pooled greedy loops.
fn validate_pooled_query(pool: &SamplePool, forbidden: &[bool], budget: usize) -> Result<()> {
    if budget == 0 {
        return Err(IminError::ZeroBudget);
    }
    check_mask_len(pool, forbidden)
}

/// AdvancedGreedy (Algorithm 3) against a borrowed resident pool.
///
/// Identical greedy structure to the classic entry point, but every round
/// prices candidates by re-rooting the same θ realisations instead of
/// redrawing them — per-round work is BFS + dominator trees only, and
/// after the first round only over the realisations the last pick can
/// change.
/// `forbidden[v] = true` marks vertices that may never be blocked; seeds
/// are always excluded. `estimated_spread` counts every seed as active.
///
/// # Errors
/// Returns an error on a zero budget, an invalid seed set, or a
/// wrong-length forbidden mask.
pub fn pooled_advanced_greedy_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
    threads: usize,
    workspace: &mut PoolWorkspace,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    validate_pooled_query(pool, forbidden, budget)?;
    let mut pricer = VertexPricer::pooled(pool, seeds, forbidden, threads, workspace)?;
    greedy::run(&mut pricer, budget, &Plan::advanced(), start)
}

/// GreedyReplace (Algorithm 4) against a borrowed resident pool: the
/// out-neighbour phase ranks the seeds' out-neighbours, a fill phase spends
/// leftover budget globally, and the replacement phase revisits blockers in
/// reverse insertion order — all priced by re-rooting the same pool.
///
/// # Errors
/// Returns an error on a zero budget, an invalid seed set, a wrong-length
/// forbidden mask, or a `graph` whose size differs from the graph the pool
/// was built from.
pub fn pooled_greedy_replace_in(
    pool: &SamplePool,
    graph: &DiGraph,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
    threads: usize,
    workspace: &mut PoolWorkspace,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    validate_pooled_query(pool, forbidden, budget)?;
    pool.ensure_matches(graph)?;
    let mut pricer = VertexPricer::pooled(pool, seeds, forbidden, threads, workspace)?;
    let plan = Plan::replace(pricer.out_neighbours(graph, seeds));
    greedy::run(&mut pricer, budget, &plan, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decrease::{decrease_es_computation, DecreaseConfig};
    use crate::snapshot::pool_digest;
    use imin_diffusion::exact::exact_expected_spread;
    use imin_diffusion::live_edge::sample_live_edges_indexed;
    use imin_graph::generators;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// 0 -> 1 -> {2, 3}, all probability 1.
    fn deterministic_tree() -> DiGraph {
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

    fn wc_pa(n: usize, seed: u64) -> DiGraph {
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
            .unwrap()
    }

    #[test]
    fn build_rejects_zero_theta() {
        let g = deterministic_tree();
        assert!(matches!(
            SamplePool::build(&g, 0, 1),
            Err(IminError::ZeroSamples)
        ));
    }

    #[test]
    fn pool_is_bit_identical_across_thread_counts() {
        let g = wc_pa(120, 3);
        let reference = SamplePool::build_with_threads(&g, 33, 9, 1).unwrap();
        for threads in [2usize, 5, 8] {
            let pool = SamplePool::build_with_threads(&g, 33, 9, threads).unwrap();
            assert_eq!(pool.theta(), 33);
            for i in 0..33 {
                assert_eq!(
                    pool.sample_csr(i),
                    reference.sample_csr(i),
                    "threads={threads}: sample {i} diverged"
                );
            }
        }
    }

    /// `wc_pa(n, seed)` with every third edge made impossible (p = 0) and
    /// every third certain (p = 1): edges whose coins must not draw, mixed
    /// in with the fractional ones that must.
    fn mixed_coins(n: usize, seed: u64) -> DiGraph {
        let g = wc_pa(n, seed);
        let edges: Vec<_> = g
            .edges()
            .enumerate()
            .map(|(i, e)| {
                let p = [0.0, 1.0, e.probability][i % 3];
                (e.source, e.target, p)
            })
            .collect();
        DiGraph::from_edges(n, edges).unwrap()
    }

    fn assert_matches_reference(pool: &SamplePool, g: &DiGraph, seed: u64, what: &str) {
        for i in 0..pool.theta() {
            let nested = sample_live_edges_indexed(g, seed, i as u64);
            let (offsets, targets) = pool.sample_csr(i);
            for u in 0..g.num_vertices() {
                let lo = offsets[u] as usize;
                let hi = offsets[u + 1] as usize;
                assert_eq!(
                    &targets[lo..hi],
                    nested[u].as_slice(),
                    "{what}: sample {i}, vertex {u}"
                );
            }
        }
    }

    #[test]
    fn pool_samples_match_the_indexed_reference_sampler() {
        let g = wc_pa(80, 5);
        let pool = SamplePool::build_with_threads(&g, 10, 41, 3).unwrap();
        assert_matches_reference(&pool, &g, 41, "wc");

        // Deterministic coins never draw: an edge of p = 0 or 1 drawing
        // one would shift every later fractional coin of its realisation.
        let g = mixed_coins(80, 5);
        let probs: Vec<f64> = g.edges().map(|e| e.probability).collect();
        assert!(probs.contains(&0.0) && probs.contains(&1.0));
        assert!(probs.iter().any(|&p| p > 0.0 && p < 1.0));
        for threads in [1usize, 3] {
            let mut pool = SamplePool::build_with_threads(&g, 10, 41, threads).unwrap();
            assert_matches_reference(&pool, &g, 41, &format!("mixed, threads={threads}"));
            pool.extend_to(&g, 23, threads).unwrap();
            assert_matches_reference(&pool, &g, 41, &format!("mixed extended, threads={threads}"));
        }
    }

    #[test]
    fn compressed_pool_is_byte_identical_to_raw() {
        let g = wc_pa(150, 21);
        let raw = SamplePool::build_with_threads(&g, 40, 77, 2).unwrap();
        let compressed = raw.compress(&g, 2).unwrap();
        assert_eq!(compressed.arena_kind(), ArenaKind::Compressed);
        assert_eq!(compressed.theta(), raw.theta());
        assert_eq!(compressed.total_live_edges(), raw.total_live_edges());
        assert_eq!(pool_digest(&compressed), pool_digest(&raw));
        for i in 0..raw.theta() {
            assert_eq!(compressed.sample_csr(i), raw.sample_csr(i), "sample {i}");
        }
    }

    #[test]
    fn compression_shrinks_weighted_cascade_pools() {
        let g = wc_pa(2_000, 11);
        let raw = SamplePool::build_with_threads(&g, 50, 5, 2).unwrap();
        let compressed = raw.compress(&g, 2).unwrap();
        let ratio = compressed.compression_ratio();
        assert!(
            ratio < 0.5,
            "weighted-cascade realisations must compress below 0.5×, got {ratio:.3}"
        );
        assert!(raw.compression_ratio() >= 0.9, "raw arena ratio is ≈ 1");
    }

    #[test]
    fn queries_are_byte_identical_across_arena_kinds_and_threads() {
        let g = wc_pa(200, 17);
        let n = g.num_vertices();
        let raw = SamplePool::build(&g, 300, 23).unwrap();
        let compressed = raw.compress(&g, 2).unwrap();
        let forbidden = vec![false; n];
        let seeds = [vid(0), vid(3)];
        let mut ws = PoolWorkspace::new();
        let ag_ref = pooled_advanced_greedy_in(&raw, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
        let gr_ref = pooled_greedy_replace_in(&raw, &g, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
        for threads in [1usize, 2, 8] {
            let ag =
                pooled_advanced_greedy_in(&compressed, &seeds, &forbidden, 4, threads, &mut ws)
                    .unwrap();
            assert_eq!(ag.blockers, ag_ref.blockers, "AG threads={threads}");
            assert_eq!(ag.estimated_spread, ag_ref.estimated_spread);
            let gr =
                pooled_greedy_replace_in(&compressed, &g, &seeds, &forbidden, 4, threads, &mut ws)
                    .unwrap();
            assert_eq!(gr.blockers, gr_ref.blockers, "GR threads={threads}");
            assert_eq!(gr.estimated_spread, gr_ref.estimated_spread);
        }
    }

    /// Fills `cascade` with realisation `idx` of `source` from the arena,
    /// untimed.
    fn fill_from_arena<F: EdgeFilter>(
        source: &Rerooted<'_, F>,
        idx: usize,
        seeds: &[VertexId],
        cascade: &mut CompactSample,
    ) {
        source.fill::<false>(&mut (), idx, seeds, cascade, &mut Laps::default());
    }

    /// Replays realisation `idx` of `source` from `record`, requires the
    /// arena BFS's cascade byte for byte, and says whether the treatment
    /// cut the recorded cascade.
    fn check_replay<F: EdgeFilter>(
        source: &Rerooted<'_, F>,
        record: Record<'_>,
        (idx, seeds): (usize, &[VertexId]),
        label: &str,
    ) -> bool {
        let (mut arena, mut replayed) = (CompactSample::default(), CompactSample::default());
        fill_from_arena(source, idx, seeds, &mut arena);
        let scratch = (&mut replayed, &mut Vec::new());
        source.replay::<false>(record, idx, seeds, scratch, &mut Laps::default());
        assert_eq!(replayed.vertices(), arena.vertices(), "{label}: vertices");
        assert_eq!(replayed.offsets(), arena.offsets(), "{label}: offsets");
        assert_eq!(replayed.targets(), arena.targets(), "{label}: targets");
        replayed.num_edges() < record.nodes.last().map_or(0, |&(_, end)| end as usize)
    }

    /// Replay is exact: under random treatments of every family — blocked
    /// vertices, deleted edges, prebunk `α`-coins at α ∈ {0, 0.2, 1} — a
    /// cascade replayed from a realisation's untreated record equals the
    /// arena BFS's cascade (vertices, offsets, targets) on raw, compressed
    /// and mapped arenas.
    #[test]
    fn replayed_cascades_equal_arena_cascades() {
        use crate::intervene::{DeletedEdges, PrebunkCoins};
        use rand::Rng;
        use std::collections::HashSet;
        let mut rng = SmallRng::seed_from_u64(0x5EED_CA5C);
        let (mut cases, mut cut) = (0, 0);
        for graph_seed in 0..3u64 {
            let g = wc_pa(150 + 100 * graph_seed as usize, graph_seed);
            let n = g.num_vertices();
            let raw = SamplePool::build_with_threads(&g, 32, graph_seed + 7, 2).unwrap();
            let compressed = raw.compress(&g, 2).unwrap();
            let path = std::env::temp_dir().join(format!(
                "imin-replay-parity-{}-{graph_seed}.iminsnap",
                std::process::id()
            ));
            crate::snapshot::save_snapshot(&path, &g, &raw, "replay").unwrap();
            let mapped = crate::snapshot::map_snapshot(&path).unwrap().pool;
            std::fs::remove_file(&path).unwrap();
            let untreated = vec![false; n];
            for (arena, pool) in [
                ("raw", &raw),
                ("compressed", &compressed),
                ("mapped", &mapped),
            ] {
                for trial in 0..6 {
                    let mut seeds: Vec<VertexId> = (0..rng.gen_range(1..4usize))
                        .map(|_| vid(rng.gen_range(0..n)))
                        .collect();
                    seeds.sort_unstable();
                    seeds.dedup();
                    let p = [0.1, 0.3][trial % 2];
                    let treated: Vec<bool> = (0..n)
                        .map(|v| !seeds.contains(&vid(v)) && rng.gen_bool(p))
                        .collect();
                    let deleted: HashSet<(u32, u32)> = g
                        .edges()
                        .filter(|_| rng.gen_bool(p))
                        .map(|e| (e.source.raw(), e.target.raw()))
                        .collect();
                    let mut deleted_src = vec![false; n];
                    deleted
                        .iter()
                        .for_each(|&(u, _)| deleted_src[u as usize] = true);
                    let mut records = Records::default();
                    let mut cascade = CompactSample::default();
                    let untreated = Rerooted {
                        pool,
                        filter: BlockedVertices(&untreated),
                    };
                    for idx in 0..pool.theta() {
                        fill_from_arena(&untreated, idx, &seeds, &mut cascade);
                        records.record(&cascade);
                    }
                    for (idx, &slot) in records.built.iter().enumerate() {
                        let record = records.get(slot);
                        let at = |family: &str| format!("{arena} trial {trial} {family} #{idx}");
                        let case = (idx, &seeds[..]);
                        let mut check = |cuts: bool| {
                            cases += 1;
                            cut += usize::from(cuts);
                        };
                        let filter = BlockedVertices(&treated);
                        check(check_replay(
                            &Rerooted { pool, filter },
                            record,
                            case,
                            &at("vertex"),
                        ));
                        let (deleted, deleted_src) = (&deleted, &deleted_src[..]);
                        let filter = DeletedEdges {
                            deleted,
                            deleted_src,
                        };
                        check(check_replay(
                            &Rerooted { pool, filter },
                            record,
                            case,
                            &at("edge"),
                        ));
                        for alpha in [0.0, 0.2, 1.0] {
                            let filter = PrebunkCoins::new(pool, &treated, alpha);
                            let family = format!("prebunk:{alpha}");
                            let source = Rerooted { pool, filter };
                            check(check_replay(&source, record, case, &at(&family)));
                        }
                    }
                }
            }
        }
        assert!(
            3 * cut > cases,
            "treatments must cut many recorded cascades: {cut} of {cases}"
        );
    }

    #[test]
    fn pooled_estimates_are_exact_on_deterministic_graphs() {
        let g = deterministic_tree();
        let pool = SamplePool::build(&g, 16, 7).unwrap();
        let est = pooled_decrease(&pool, &[vid(0)], &[false; 4], 1).unwrap();
        assert_eq!(est.samples, 16);
        assert!((est.average_reached - 4.0).abs() < 1e-12);
        assert!((est.delta[1] - 3.0).abs() < 1e-12);
        assert!((est.delta[2] - 1.0).abs() < 1e-12);
        assert!((est.delta[3] - 1.0).abs() < 1e-12);
        assert_eq!(est.delta[0], 0.0, "seeds earn no credit");
    }

    #[test]
    fn pooled_estimates_agree_statistically_with_the_classic_estimator() {
        let g = wc_pa(150, 11);
        let n = g.num_vertices();
        let pool = SamplePool::build(&g, 6_000, 2).unwrap();
        let pooled = pooled_decrease(&pool, &[vid(0)], &vec![false; n], 1).unwrap();
        let classic = decrease_es_computation(
            &g,
            vid(0),
            &vec![false; n],
            &DecreaseConfig {
                theta: 6_000,
                threads: 1,
                seed: 77,
            },
        )
        .unwrap();
        assert!((pooled.average_reached - classic.average_reached).abs() < 0.5);
        for v in 0..n {
            assert!(
                (pooled.delta[v] - classic.delta[v]).abs() < 0.6,
                "vertex {v}: pooled {} vs classic {}",
                pooled.delta[v],
                classic.delta[v]
            );
        }
    }

    #[test]
    fn multi_seed_queries_count_every_seed_and_respect_blocking() {
        // Two disjoint chains: 0 -> 1 -> 2 and 3 -> 4.
        let g = DiGraph::from_edges(
            5,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(3), vid(4), 1.0),
            ],
        )
        .unwrap();
        let pool = SamplePool::build(&g, 8, 1).unwrap();
        let est = pooled_decrease(&pool, &[vid(0), vid(3)], &[false; 5], 1).unwrap();
        assert!((est.average_reached - 5.0).abs() < 1e-12);
        assert!((est.delta[1] - 2.0).abs() < 1e-12);
        assert!((est.delta[4] - 1.0).abs() < 1e-12);
        let mut blocked = vec![false; 5];
        blocked[1] = true;
        let est = pooled_decrease(&pool, &[vid(0), vid(3)], &blocked, 1).unwrap();
        assert!((est.average_reached - 3.0).abs() < 1e-12);
        assert_eq!(est.delta[1], 0.0);
        assert_eq!(est.delta[2], 0.0);
    }

    #[test]
    fn pooled_estimator_is_thread_count_invariant() {
        let g = wc_pa(100, 13);
        let n = g.num_vertices();
        let pool = SamplePool::build(&g, 500, 19).unwrap();
        let blocked = vec![false; n];
        let reference = pooled_decrease(&pool, &[vid(0), vid(7)], &blocked, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let est = pooled_decrease(&pool, &[vid(0), vid(7)], &blocked, threads).unwrap();
            assert_eq!(est.delta, reference.delta, "threads={threads}");
            assert_eq!(est.average_reached, reference.average_reached);
        }
    }

    /// The statistical rung of the estimator checks, for vertex blocking on
    /// the forward pool: over R = 4000 pools of one realisation each (pool
    /// seeds `0..R`), every non-seed candidate's mean Δ̂ and the mean
    /// `average_reached` lie within z = 4 standard errors of the exact
    /// `Δ(v) = E(S) − E(S with v blocked)` and `E(S)`. The standard error
    /// comes from the same R values; a quantity whose R values are all
    /// equal gets a slack of 1e-9. The graphs hold 18–35 uncertain edges
    /// among the vertices the seeds can reach.
    #[test]
    fn pooled_vertex_estimates_agree_with_the_exact_oracle() {
        const R: u64 = 4_000;
        const Z: f64 = 4.0;
        let one = vec![vid(0)];
        let two = vec![vid(0), vid(1)];
        for (graph_seed, seeds) in [(0, &one), (1, &one), (3, &two), (5, &two)] {
            let g = generators::erdos_renyi(14, 0.18, 0.3, graph_seed).unwrap();
            let n = g.num_vertices();
            let spread = |blocked: Option<usize>| {
                let mask: Vec<bool> = (0..n).map(|v| Some(v) == blocked).collect();
                exact_expected_spread(&g, seeds, Some(&mask)).unwrap()
            };
            let base = spread(None);
            // Σx and Σx² of Δ̂(v) for every vertex, then of the reached count.
            let mut sums = vec![(0.0, 0.0); n + 1];
            for pool_seed in 0..R {
                let pool = SamplePool::build(&g, 1, pool_seed).unwrap();
                let est = pooled_decrease(&pool, seeds, &vec![false; n], 1).unwrap();
                let values = est.delta.iter().chain([&est.average_reached]);
                for ((sum, sum_sq), x) in sums.iter_mut().zip(values) {
                    *sum += x;
                    *sum_sq += x * x;
                }
            }
            let r = R as f64;
            let check = |what: String, (sum, sum_sq): (f64, f64), exact: f64| {
                let mean = sum / r;
                let variance = (sum_sq - r * mean * mean) / (r - 1.0);
                let slack = if variance > 0.0 {
                    Z * (variance / r).sqrt()
                } else {
                    1e-9
                };
                assert!(
                    (mean - exact).abs() <= slack,
                    "graph {graph_seed}, {what}: mean {mean} vs exact {exact} (slack {slack})"
                );
            };
            for v in (0..n).filter(|&v| !seeds.contains(&vid(v))) {
                check(format!("Δ({v})"), sums[v], base - spread(Some(v)));
            }
            check("E(S)".into(), sums[n], base);
        }
    }

    /// The edge rung of the same check: on the same four graphs, seed
    /// sets and R = 4000 pools of θ = 1, every graph edge's mean credit
    /// lies within z = 4 standard errors of the exact decrease
    /// `E(S, G) − E(S, G without the edge)`. An edge no pool credits has
    /// variance 0, so it gets its own rule: a credit never exceeds n − 1,
    /// so an edge whose exact decrease is above (n − 1)·ln(10⁶)/R would go
    /// uncredited in all R pools with probability below 10⁻⁶; its exact
    /// decrease must be at most that.
    #[test]
    fn pooled_edge_credits_agree_with_the_exact_oracle() {
        const R: u64 = 4_000;
        const Z: f64 = 4.0;
        let one = vec![vid(0)];
        let two = vec![vid(0), vid(1)];
        for (graph_seed, seeds) in [(0, &one), (1, &one), (3, &two), (5, &two)] {
            let g = generators::erdos_renyi(14, 0.18, 0.3, graph_seed).unwrap();
            let n = g.num_vertices();
            let edges: Vec<_> = g
                .edges()
                .map(|e| (e.source, e.target, e.probability))
                .collect();
            let unblocked = vec![false; n];
            let mut ws = PoolWorkspace::new();
            ws.stage_seeds(n, seeds, None).unwrap();
            // Σx and Σx² of every edge's credit.
            let mut sums = vec![(0.0, 0.0); edges.len()];
            for pool_seed in 0..R {
                let pool = SamplePool::build(&g, 1, pool_seed).unwrap();
                let filter = BlockedVertices(&unblocked);
                edge_credit(
                    &Rerooted {
                        pool: &pool,
                        filter,
                    },
                    1,
                    &mut ws,
                );
                for ((sum, sum_sq), &(u, v, _)) in sums.iter_mut().zip(&edges) {
                    let credit = ws.edge_credit().get(&(u.raw(), v.raw()));
                    let x = credit.copied().unwrap_or(0) as f64;
                    *sum += x;
                    *sum_sq += x * x;
                }
            }
            let base = exact_expected_spread(&g, seeds, None).unwrap();
            let r = R as f64;
            let never_credited = (n - 1) as f64 * 1e6f64.ln() / r;
            for (i, &(sum, sum_sq)) in sums.iter().enumerate() {
                let (u, v, _) = edges[i];
                let mut kept = edges.clone();
                kept.remove(i);
                let without = DiGraph::from_edges(n, kept).unwrap();
                let exact = base - exact_expected_spread(&without, seeds, None).unwrap();
                let mean = sum / r;
                let variance = (sum_sq - r * mean * mean) / (r - 1.0);
                let slack = if variance > 0.0 {
                    Z * (variance / r).sqrt()
                } else if sum == 0.0 {
                    never_credited
                } else {
                    1e-9
                };
                assert!(
                    (mean - exact).abs() <= slack,
                    "graph {graph_seed}, edge {u}→{v}: mean {mean} vs exact {exact} (slack {slack})"
                );
            }
        }
    }

    #[test]
    fn pooled_advanced_greedy_picks_the_hub() {
        let g = DiGraph::from_edges(
            6,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(1), vid(4), 1.0),
                (vid(0), vid(5), 1.0),
            ],
        )
        .unwrap();
        let pool = SamplePool::build(&g, 64, 3).unwrap();
        let mut ws = PoolWorkspace::new();
        let sel = pooled_advanced_greedy_in(&pool, &[vid(0)], &[false; 6], 2, 1, &mut ws).unwrap();
        assert_eq!(sel.blockers, vec![vid(1), vid(5)]);
        assert!((sel.estimated_spread.unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(sel.stats.rounds, 2);
        assert_eq!(sel.stats.samples_drawn, 2 * 64);
    }

    #[test]
    fn pooled_greedy_replace_recovers_the_deep_blocker() {
        // Example 3 funnel: replacement must swap an out-neighbour for the
        // hub at budget 1 and keep both out-neighbours at budget 2.
        let mut edges = vec![
            (vid(0), vid(1), 1.0),
            (vid(0), vid(2), 1.0),
            (vid(1), vid(3), 1.0),
            (vid(2), vid(3), 1.0),
        ];
        for i in 0..5 {
            edges.push((vid(3), vid(4 + i), 1.0));
        }
        let g = DiGraph::from_edges(9, edges).unwrap();
        let pool = SamplePool::build(&g, 64, 5).unwrap();
        let mut ws = PoolWorkspace::new();
        let sel =
            pooled_greedy_replace_in(&pool, &g, &[vid(0)], &[false; 9], 1, 1, &mut ws).unwrap();
        assert_eq!(sel.blockers, vec![vid(3)]);
        assert!((sel.estimated_spread.unwrap() - 3.0).abs() < 1e-9);
        let sel =
            pooled_greedy_replace_in(&pool, &g, &[vid(0)], &[false; 9], 2, 1, &mut ws).unwrap();
        let mut chosen = sel.blockers.clone();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![vid(1), vid(2)]);
    }

    #[test]
    fn pooled_greedy_is_byte_identical_across_thread_counts() {
        let g = wc_pa(200, 17);
        let n = g.num_vertices();
        let pool = SamplePool::build(&g, 400, 23).unwrap();
        let forbidden = vec![false; n];
        let seeds = [vid(0), vid(3)];
        let mut ws = PoolWorkspace::new();
        let ag_ref = pooled_advanced_greedy_in(&pool, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
        let gr_ref =
            pooled_greedy_replace_in(&pool, &g, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
        for threads in [2usize, 8] {
            let ag =
                pooled_advanced_greedy_in(&pool, &seeds, &forbidden, 4, threads, &mut ws).unwrap();
            assert_eq!(ag.blockers, ag_ref.blockers, "AG threads={threads}");
            assert_eq!(ag.estimated_spread, ag_ref.estimated_spread);
            let gr = pooled_greedy_replace_in(&pool, &g, &seeds, &forbidden, 4, threads, &mut ws)
                .unwrap();
            assert_eq!(gr.blockers, gr_ref.blockers, "GR threads={threads}");
            assert_eq!(gr.estimated_spread, gr_ref.estimated_spread);
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = deterministic_tree();
        let pool = SamplePool::build(&g, 8, 1).unwrap();
        let mut ws = PoolWorkspace::new();
        assert!(matches!(
            pooled_advanced_greedy_in(&pool, &[vid(0)], &[false; 4], 0, 1, &mut ws),
            Err(IminError::ZeroBudget)
        ));
        assert!(matches!(
            pooled_decrease(&pool, &[], &[false; 4], 1),
            Err(IminError::EmptySeedSet)
        ));
        assert!(pooled_decrease(&pool, &[vid(9)], &[false; 4], 1).is_err());
        assert!(pooled_decrease(&pool, &[vid(0)], &[false; 2], 1).is_err());
        let mut blocked = vec![false; 4];
        blocked[0] = true;
        assert!(pooled_decrease(&pool, &[vid(0)], &blocked, 1).is_err());
        assert!(
            pooled_advanced_greedy_in(&pool, &[vid(0)], &[false; 3], 1, 1, &mut ws).is_err(),
            "wrong-length forbidden mask"
        );
        // A pool can only be paired with the graph it was built from.
        let other = DiGraph::from_edges(2, vec![(vid(0), vid(1), 1.0)]).unwrap();
        assert!(matches!(
            pooled_greedy_replace_in(&pool, &other, &[vid(0)], &[false; 4], 1, 1, &mut ws),
            Err(IminError::PoolGraphMismatch { .. })
        ));
        assert!(matches!(
            pool.compress(&other, 1),
            Err(IminError::PoolGraphMismatch { .. })
        ));
    }

    #[test]
    fn forbidden_vertices_are_never_selected() {
        let g = deterministic_tree();
        let pool = SamplePool::build(&g, 8, 1).unwrap();
        let mut forbidden = vec![false; 4];
        forbidden[1] = true;
        let mut ws = PoolWorkspace::new();
        let sel = pooled_advanced_greedy_in(&pool, &[vid(0)], &forbidden, 1, 1, &mut ws).unwrap();
        assert_ne!(sel.blockers.first(), Some(&vid(1)));
    }

    #[test]
    fn shard_ranges_partition_without_gaps() {
        for (total, workers) in [(10usize, 3usize), (5, 8), (7, 1), (0, 4), (16, 4)] {
            let ranges: Vec<_> = shard_ranges(total, workers).collect();
            assert!(ranges.len() <= workers.max(1));
            let mut expected = 0usize;
            for r in &ranges {
                assert_eq!(r.start, expected, "ranges must be contiguous");
                expected = r.end;
            }
            assert_eq!(expected, total, "ranges must cover 0..total");
            let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(
                max - min.min(max) <= 1,
                "near-equal split for {total}/{workers}"
            );
        }
    }

    #[test]
    fn extend_to_matches_a_fresh_build_bit_for_bit() {
        let g = wc_pa(120, 3);
        // 7 → 48 grows by more than 2×; 40 → 41 by one realisation, the
        // step at which amortised growth would double the reserved bytes.
        for (from, to) in [(7usize, 48usize), (40, 41)] {
            let fresh = SamplePool::build_with_threads(&g, to, 9, 1).unwrap();
            for threads in [1usize, 3, 8] {
                let mut grown = SamplePool::build_with_threads(&g, from, 9, threads).unwrap();
                let added = grown.extend_to(&g, to, threads).unwrap();
                assert_eq!(added, to - from);
                assert_eq!(grown.theta(), to);
                for i in 0..to {
                    assert_eq!(
                        grown.sample_csr(i),
                        fresh.sample_csr(i),
                        "threads={threads}: sample {i} diverged after extend {from} → {to}"
                    );
                }
                assert_eq!(
                    grown.memory_bytes(),
                    fresh.memory_bytes(),
                    "threads={threads}: bytes after extend {from} → {to}"
                );
            }
        }
    }

    #[test]
    fn extend_to_never_shrinks_and_checks_the_graph() {
        let g = wc_pa(60, 4);
        let mut pool = SamplePool::build(&g, 10, 1).unwrap();
        assert_eq!(pool.extend_to(&g, 10, 2).unwrap(), 0, "same θ is a no-op");
        assert_eq!(pool.extend_to(&g, 3, 2).unwrap(), 0, "smaller θ is a no-op");
        assert_eq!(pool.theta(), 10);
        let other = deterministic_tree();
        assert!(matches!(
            pool.extend_to(&other, 20, 2),
            Err(IminError::PoolGraphMismatch { .. })
        ));
        assert_eq!(pool.theta(), 10, "failed extend leaves the pool untouched");
    }

    #[test]
    fn compressed_pools_cannot_extend_in_place() {
        let g = wc_pa(60, 4);
        let mut pool = SamplePool::build(&g, 10, 1)
            .unwrap()
            .compress(&g, 1)
            .unwrap();
        assert!(!pool.is_extendable());
        assert_eq!(pool.extend_to(&g, 5, 1).unwrap(), 0, "no-op stays a no-op");
        assert!(matches!(
            pool.extend_to(&g, 20, 1),
            Err(IminError::PoolArenaImmutable { .. })
        ));
        assert_eq!(pool.theta(), 10);
    }

    #[test]
    fn pool_accessors_report_sensible_numbers() {
        let g = deterministic_tree();
        let pool = SamplePool::build(&g, 4, 99).unwrap();
        assert_eq!(pool.theta(), 4);
        assert_eq!(pool.pool_seed(), 99);
        assert_eq!(pool.num_vertices(), 4);
        assert_eq!(pool.arena_kind(), ArenaKind::Raw);
        assert!(pool.is_extendable());
        assert_eq!(pool.mapped_bytes(), 0);
        // All three edges are deterministic, so every realisation keeps them.
        assert_eq!(pool.total_live_edges(), 12);
        assert!(pool.memory_bytes() > 0);
    }

    #[test]
    fn memory_bytes_covers_every_stored_word() {
        let g = wc_pa(300, 8);
        let pool = SamplePool::build_with_threads(&g, 25, 6, 2).unwrap();
        // Lower bound: the arenas alone hold θ×(n+1) offsets plus every live
        // edge as u32, and the θ+1 target-start table as u64. The historical
        // per-sample accounting missed headers and tables entirely.
        let floor = 4 * (25 * (g.num_vertices() + 1) + pool.total_live_edges()) + 8 * (25 + 1);
        assert!(
            pool.memory_bytes() >= floor,
            "memory_bytes {} below the arena floor {floor}",
            pool.memory_bytes()
        );
        // And it stays a sane estimate: within 2× of the floor.
        assert!(pool.memory_bytes() < 2 * floor);
    }
}
