//! Pluggable storage backends for [`crate::SamplePool`] live-edge arenas.
//!
//! A pool holds θ live-edge realisations of one graph. How those
//! realisations are laid out in memory is independent of how queries read
//! them, so this module factors the storage into a `PoolArena` with two
//! backings, each of which can live on the heap or directly inside a mapped
//! snapshot file:
//!
//! * **Raw** — one consolidated CSR: all per-sample offset arrays
//!   concatenated at a fixed `n + 1` stride, all target arrays concatenated
//!   behind a `θ + 1` entry start table. Bit-compatible with the historical
//!   per-sample `Vec` layout (each sample's offsets are local, starting at
//!   0) and page-aligned in a v2 snapshot so an mmap restore can serve the
//!   slices with zero copies. Nothing writes it any more: it is how
//!   version-1 and raw version-2 snapshot files are read, and it never
//!   grows.
//! * **Compressed** — per sample, one of two encodings: a *dense bitset*
//!   over the graph's edge slots (one bit per graph edge, decoded by
//!   walking the graph's own CSR) or *delta-varint* (per vertex: live
//!   out-degree, first target, then `gap − 1` deltas, all LEB128, with a
//!   byte-offset block index every `VARINT_BLOCK` vertices for random
//!   access). The bitset is the write path: a pool build draws every
//!   realisation straight into one, and an extension appends more.
//!   `SamplePool::compress` then leaves each realisation in the smaller of
//!   the two. Weighted-cascade realisations keep ≈ `n` of `m` edges live,
//!   which makes the bitset ≈ `m / 8` bytes — far below the `≈ 8n` bytes
//!   of the raw layout — while sparse realisations shrink further as
//!   varint.
//!
//! Queries never materialise a decoded sample: `SampleView::for_each_live`
//! streams the live out-neighbours of one vertex straight into the BFS,
//! whatever the backing, with zero steady-state allocation.
//!
//! Mapped arenas defer per-sample structural validation to first touch
//! (eager validation would fault in every page and defeat the point of
//! mapping); a sample that fails validation panics with a diagnostic, which
//! the serving layer catches and surfaces as an internal error.

use crate::mmap::{u32_slice, Mmap};
use imin_graph::VertexId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Vertices per varint block-index entry. Smaller blocks cost index bytes,
/// larger blocks cost skip work per random access; 16 keeps the index below
/// 7 % of `n × 4` bytes while bounding a lookup to 15 skipped vertices.
pub(crate) const VARINT_BLOCK: usize = 16;

/// Sample encoding tags stored in compressed directories (and snapshots).
pub(crate) const MODE_VARINT: u8 = 0;
pub(crate) const MODE_BITSET: u8 = 1;

/// The storage backing of a pool, as reported by stats and benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaKind {
    /// Heap-resident consolidated raw-u32 CSR (read from version-1 and
    /// raw version-2 snapshot files).
    Raw,
    /// Heap-resident delta-varint / bitset compressed arenas.
    Compressed,
    /// Raw CSR served zero-copy out of a mapped v2 snapshot.
    MappedRaw,
    /// Compressed arenas decoded directly from a mapped v2 snapshot.
    MappedCompressed,
}

impl ArenaKind {
    /// Stable lowercase token used on the wire (`STATS pool_arena=…`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ArenaKind::Raw => "raw",
            ArenaKind::Compressed => "compressed",
            ArenaKind::MappedRaw => "mmap-raw",
            ArenaKind::MappedCompressed => "mmap-compressed",
        }
    }
}

impl std::fmt::Display for ArenaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Owned or mapped `u32` words.
#[derive(Clone, Debug)]
pub(crate) enum Words {
    Owned(Vec<u32>),
    Mapped {
        map: Arc<Mmap>,
        /// Byte offset of the first word inside the mapping (4-aligned).
        start: usize,
        /// Number of `u32` words.
        len: usize,
    },
}

impl Words {
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            Words::Owned(v) => v,
            Words::Mapped { map, start, len } => u32_slice(map, *start, *len)
                .expect("mapped word range was validated when the snapshot was opened"),
        }
    }

    fn owned_bytes(&self) -> usize {
        match self {
            Words::Owned(v) => v.capacity() * 4,
            Words::Mapped { .. } => 0,
        }
    }

    fn mapped_bytes(&self) -> usize {
        match self {
            Words::Owned(_) => 0,
            Words::Mapped { len, .. } => len * 4,
        }
    }
}

/// Owned or mapped raw bytes (compressed sample blobs).
#[derive(Clone, Debug)]
pub(crate) enum Blob {
    Owned(Vec<u8>),
    Mapped {
        map: Arc<Mmap>,
        start: usize,
        len: usize,
    },
}

impl Blob {
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Blob::Owned(v) => v,
            Blob::Mapped { map, start, len } => &map.bytes()[*start..*start + *len],
        }
    }

    fn owned_bytes(&self) -> usize {
        match self {
            Blob::Owned(v) => v.capacity(),
            Blob::Mapped { .. } => 0,
        }
    }

    fn mapped_bytes(&self) -> usize {
        match self {
            Blob::Owned(_) => 0,
            Blob::Mapped { len, .. } => *len,
        }
    }
}

/// Consolidated raw-u32 CSR storage for all θ samples.
#[derive(Clone, Debug)]
pub(crate) struct RawArena {
    /// Words per sample in `offsets`: `n + 1`.
    pub(crate) stride: usize,
    /// Word offset of each sample's targets inside `targets` (θ + 1 entries).
    pub(crate) target_start: Vec<u64>,
    /// θ concatenated per-sample offset arrays, each local (first entry 0).
    pub(crate) offsets: Words,
    /// All per-sample target arrays, concatenated in sample order.
    pub(crate) targets: Words,
}

impl RawArena {
    #[inline]
    pub(crate) fn sample_csr(&self, idx: usize) -> (&[u32], &[u32]) {
        let offsets = &self.offsets.as_slice()[idx * self.stride..(idx + 1) * self.stride];
        let lo = self.target_start[idx] as usize;
        let hi = self.target_start[idx + 1] as usize;
        (offsets, &self.targets.as_slice()[lo..hi])
    }
}

/// Delta-varint / bitset compressed storage plus the graph CSR copy the
/// bitset decoder walks. The copy is rebuilt from the graph at compression
/// or restore time — it is never serialised.
#[derive(Clone, Debug)]
pub(crate) struct CompressedArena {
    /// Per-sample live-edge counts (decoding is not needed to answer stats).
    pub(crate) lens: Vec<u64>,
    /// Per-sample encoding tag ([`MODE_VARINT`] / [`MODE_BITSET`]).
    pub(crate) modes: Vec<u8>,
    /// Byte offset of each sample's blob inside `data` (θ + 1 entries).
    pub(crate) starts: Vec<u64>,
    pub(crate) data: Blob,
    /// Graph out-CSR offsets (`n + 1`), for bitset decoding.
    pub(crate) gr_offsets: Vec<u64>,
    /// Graph out-CSR targets (`m`), for bitset decoding.
    pub(crate) gr_targets: Vec<u32>,
}

impl CompressedArena {
    fn sample_blob(&self, idx: usize) -> (u8, &[u8]) {
        let lo = self.starts[idx] as usize;
        let hi = self.starts[idx + 1] as usize;
        (self.modes[idx], &self.data.as_slice()[lo..hi])
    }
}

#[derive(Clone, Debug)]
pub(crate) enum ArenaBacking {
    Raw(RawArena),
    Compressed(CompressedArena),
}

/// Lazy per-sample validation state for mapped arenas: 0 = unchecked,
/// 1 = valid. Invalid samples panic immediately instead of storing a state.
#[derive(Debug)]
struct LazyChecks {
    flags: Vec<AtomicU8>,
}

/// The live-edge storage of one pool: a backing plus bookkeeping shared by
/// every backend.
#[derive(Clone, Debug)]
pub(crate) struct PoolArena {
    pub(crate) n: usize,
    pub(crate) theta: usize,
    pub(crate) backing: ArenaBacking,
    /// Present iff the backing is mapped; shared across clones so each
    /// sample is validated once per mapping, not once per clone.
    lazy: Option<Arc<LazyChecks>>,
}

/// A borrowed view of one realisation, ready for per-vertex decoding.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SampleView<'a> {
    Csr {
        offsets: &'a [u32],
        targets: &'a [u32],
    },
    Varint {
        /// Block index: byte offset of every [`VARINT_BLOCK`]-th vertex's
        /// record, relative to `data`.
        index: &'a [u8],
        data: &'a [u8],
    },
    Bitset {
        bits: &'a [u8],
        gr_offsets: &'a [u64],
        gr_targets: &'a [u32],
    },
}

impl<'a> SampleView<'a> {
    /// Calls `f` once per live out-neighbour of `u`, in the stored order
    /// (graph adjacency order for every backend — the orders coincide by
    /// construction, which is what keeps digests and query answers
    /// byte-identical across arena kinds).
    #[inline]
    pub(crate) fn for_each_live(&self, u: u32, mut f: impl FnMut(u32)) {
        match *self {
            SampleView::Csr { offsets, targets } => {
                let lo = offsets[u as usize] as usize;
                let hi = offsets[u as usize + 1] as usize;
                for &t in &targets[lo..hi] {
                    f(t);
                }
            }
            SampleView::Varint { index, data } => {
                let block = u as usize / VARINT_BLOCK;
                let at = 4 * block;
                let mut pos =
                    u32::from_le_bytes(index[at..at + 4].try_into().expect("4-byte index entry"))
                        as usize;
                // Skip the vertices in front of `u` within its block.
                for _ in 0..(u as usize % VARINT_BLOCK) {
                    let deg = read_varint(data, &mut pos).expect("validated varint record");
                    if deg > 0 {
                        skip_varints(data, &mut pos, deg as usize);
                    }
                }
                let deg = read_varint(data, &mut pos).expect("validated varint record");
                if deg == 0 {
                    return;
                }
                let mut t = read_varint(data, &mut pos).expect("validated varint record") as u32;
                f(t);
                for _ in 1..deg {
                    let gap = read_varint(data, &mut pos).expect("validated varint record");
                    t += gap as u32 + 1;
                    f(t);
                }
            }
            SampleView::Bitset {
                bits,
                gr_offsets,
                gr_targets,
            } => {
                let lo = gr_offsets[u as usize] as usize;
                let hi = gr_offsets[u as usize + 1] as usize;
                if lo == hi {
                    return;
                }
                // The bytes covering slots `lo..hi`, the partial first and
                // last ones masked, set bits visited lowest first: slot
                // order, as the graph's adjacency stores the targets.
                let (first, last) = (lo >> 3, (hi - 1) >> 3);
                for (at, &byte) in bits[first..=last].iter().enumerate() {
                    let at = first + at;
                    let mut live = byte;
                    if at == first {
                        live &= 0xFF << (lo & 7);
                    }
                    if at == last {
                        live &= 0xFF >> (7 - ((hi - 1) & 7));
                    }
                    while live != 0 {
                        f(gr_targets[8 * at + live.trailing_zeros() as usize]);
                        live &= live - 1;
                    }
                }
            }
        }
    }

    /// Starts loading the first arena line [`SampleView::for_each_live`]
    /// reads for `u`: its offset in a raw CSR, its block-index entry in a
    /// varint stream, the byte holding its first edge slot in a bitset.
    /// A BFS that calls this as it discovers `u` finds the line cached by
    /// the time it expands `u`.
    #[inline]
    pub(crate) fn prefetch(&self, u: u32) {
        let u = u as usize;
        let line = match *self {
            SampleView::Csr { offsets, .. } => offsets.as_ptr().wrapping_add(u).cast(),
            SampleView::Varint { index, .. } => index.as_ptr().wrapping_add(4 * (u / VARINT_BLOCK)),
            SampleView::Bitset {
                bits, gr_offsets, ..
            } => bits.as_ptr().wrapping_add(gr_offsets[u] as usize >> 3),
        };
        prefetch_line(line);
    }

    /// Decodes the whole realisation into a local-offset CSR pair,
    /// byte-identical to the raw layout.
    pub(crate) fn decode_into(&self, n: usize, offsets: &mut Vec<u32>, targets: &mut Vec<u32>) {
        offsets.clear();
        offsets.reserve(n + 1);
        targets.clear();
        offsets.push(0);
        for u in 0..n as u32 {
            self.for_each_live(u, |t| targets.push(t));
            offsets.push(targets.len() as u32);
        }
    }
}

impl PoolArena {
    pub(crate) fn raw(n: usize, theta: usize, arena: RawArena) -> Self {
        PoolArena {
            n,
            theta,
            backing: ArenaBacking::Raw(arena),
            lazy: None,
        }
    }

    pub(crate) fn compressed(n: usize, theta: usize, arena: CompressedArena) -> Self {
        PoolArena {
            n,
            theta,
            backing: ArenaBacking::Compressed(arena),
            lazy: None,
        }
    }

    /// Marks the arena as mapped: per-sample structural validation is
    /// deferred to the first [`PoolArena::view`] of each sample.
    pub(crate) fn with_lazy_validation(mut self) -> Self {
        let mut flags = Vec::with_capacity(self.theta);
        flags.resize_with(self.theta, || AtomicU8::new(0));
        self.lazy = Some(Arc::new(LazyChecks { flags }));
        self
    }

    pub(crate) fn kind(&self) -> ArenaKind {
        match (&self.backing, self.lazy.is_some()) {
            (ArenaBacking::Raw(_), false) => ArenaKind::Raw,
            (ArenaBacking::Raw(_), true) => ArenaKind::MappedRaw,
            (ArenaBacking::Compressed(_), false) => ArenaKind::Compressed,
            (ArenaBacking::Compressed(_), true) => ArenaKind::MappedCompressed,
        }
    }

    /// Whether the arena is a heap-owned compressed arena, which
    /// `extend_to` grows in place by appending bitset blobs. Raw arenas
    /// (read from older snapshot files) and mapped ones stay immutable.
    pub(crate) fn is_extendable(&self) -> bool {
        matches!(
            (&self.backing, &self.lazy),
            (
                ArenaBacking::Compressed(CompressedArena {
                    data: Blob::Owned(_),
                    ..
                }),
                None
            )
        )
    }

    /// Live-edge count of realisation `idx`.
    pub(crate) fn sample_len(&self, idx: usize) -> u64 {
        match &self.backing {
            ArenaBacking::Raw(raw) => raw.target_start[idx + 1] - raw.target_start[idx],
            ArenaBacking::Compressed(c) => c.lens[idx],
        }
    }

    pub(crate) fn total_live_edges(&self) -> u64 {
        match &self.backing {
            ArenaBacking::Raw(raw) => *raw.target_start.last().expect("θ + 1 entries"),
            ArenaBacking::Compressed(c) => c.lens.iter().sum(),
        }
    }

    /// A per-vertex-decodable view of realisation `idx`. For mapped arenas
    /// the first view of each sample runs the structural validation the
    /// bulk loader would have run up front.
    ///
    /// # Panics
    /// Panics with a diagnostic when a mapped sample fails validation — the
    /// serving layer converts worker panics into typed internal errors.
    pub(crate) fn view(&self, idx: usize) -> SampleView<'_> {
        if let Some(lazy) = &self.lazy {
            let flag = &lazy.flags[idx];
            if flag.load(Ordering::Acquire) == 0 {
                if let Err(reason) = self.validate_sample(idx) {
                    panic!("mapped snapshot sample {idx} is corrupt: {reason}");
                }
                flag.store(1, Ordering::Release);
            }
        }
        self.view_unchecked(idx)
    }

    /// Starts loading the lines the BFS of realisation `idx` reads first,
    /// those of the `seeds`. A mapped realisation not validated yet is
    /// skipped: only its first [`PoolArena::view`] may check it.
    pub(crate) fn prefetch_seeds(&self, idx: usize, seeds: &[VertexId]) {
        if let Some(lazy) = &self.lazy {
            if lazy.flags[idx].load(Ordering::Relaxed) == 0 {
                return;
            }
        }
        let view = self.view_unchecked(idx);
        for seed in seeds {
            view.prefetch(seed.raw());
        }
    }

    fn view_unchecked(&self, idx: usize) -> SampleView<'_> {
        match &self.backing {
            ArenaBacking::Raw(raw) => {
                let (offsets, targets) = raw.sample_csr(idx);
                SampleView::Csr { offsets, targets }
            }
            ArenaBacking::Compressed(c) => {
                let (mode, blob) = c.sample_blob(idx);
                match mode {
                    MODE_BITSET => SampleView::Bitset {
                        bits: blob,
                        gr_offsets: &c.gr_offsets,
                        gr_targets: &c.gr_targets,
                    },
                    _ => {
                        let index_bytes = 4 * varint_blocks(self.n);
                        let (index, data) = blob.split_at(index_bytes);
                        SampleView::Varint { index, data }
                    }
                }
            }
        }
    }

    /// Structural validation of one sample, shared by the bulk loader
    /// (eager) and mapped arenas (lazy): every invariant the estimator's
    /// BFS relies on, so corrupt arenas surface as typed errors or
    /// diagnostics, never as out-of-bounds panics mid-query.
    pub(crate) fn validate_sample(&self, idx: usize) -> Result<(), String> {
        let n = self.n;
        match &self.backing {
            ArenaBacking::Raw(raw) => {
                let (offsets, targets) = raw.sample_csr(idx);
                if offsets[0] != 0
                    || *offsets.last().expect("n + 1 offsets") as usize != targets.len()
                {
                    return Err("offset array does not span its live-edge list".into());
                }
                if !offsets.windows(2).all(|w| w[0] <= w[1]) {
                    return Err("offset array is not monotone".into());
                }
                if targets.iter().any(|&t| (t as usize) >= n) {
                    return Err("live-edge target out of vertex range".into());
                }
                Ok(())
            }
            ArenaBacking::Compressed(c) => {
                let (mode, blob) = c.sample_blob(idx);
                let len = c.lens[idx];
                match mode {
                    MODE_BITSET => {
                        let m = c.gr_targets.len();
                        if blob.len() != bitset_bytes(m) {
                            return Err(format!(
                                "bitset blob is {} bytes, expected {}",
                                blob.len(),
                                bitset_bytes(m)
                            ));
                        }
                        let live: u64 = blob.iter().map(|b| b.count_ones() as u64).sum();
                        // Trailing padding bits beyond m must be clear.
                        let tail_bits = (8 - (m % 8)) % 8;
                        if tail_bits > 0 {
                            let last = *blob.last().expect("nonempty bitset");
                            let pad = last >> (8 - tail_bits);
                            if pad != 0 {
                                return Err("bitset has padding bits set past m".into());
                            }
                        }
                        if live != len {
                            return Err(format!(
                                "bitset popcount {live} disagrees with the directory count {len}"
                            ));
                        }
                        Ok(())
                    }
                    MODE_VARINT => validate_varint_sample(blob, n, len),
                    other => Err(format!("unknown sample encoding tag {other}")),
                }
            }
        }
    }

    /// Validates every sample eagerly (bulk-loaded arenas).
    pub(crate) fn validate_all(&self) -> Result<(), (usize, String)> {
        for idx in 0..self.theta {
            self.validate_sample(idx).map_err(|r| (idx, r))?;
        }
        Ok(())
    }

    /// Heap bytes owned by the arena (allocated capacity plus the fixed
    /// struct and table footprint) and bytes served from a mapping.
    pub(crate) fn memory_bytes(&self) -> (usize, usize) {
        let mut owned = std::mem::size_of::<Self>();
        let mut mapped = 0usize;
        match &self.backing {
            ArenaBacking::Raw(raw) => {
                owned += raw.target_start.capacity() * 8;
                owned += raw.offsets.owned_bytes() + raw.targets.owned_bytes();
                mapped += raw.offsets.mapped_bytes() + raw.targets.mapped_bytes();
            }
            ArenaBacking::Compressed(c) => {
                owned += c.lens.capacity() * 8
                    + c.modes.capacity()
                    + c.starts.capacity() * 8
                    + c.gr_offsets.capacity() * 8
                    + c.gr_targets.capacity() * 4;
                owned += c.data.owned_bytes();
                mapped += c.data.mapped_bytes();
            }
        }
        if let Some(lazy) = &self.lazy {
            owned += lazy.flags.capacity();
        }
        (owned, mapped)
    }

    /// Bytes the same pool would occupy in the heap-resident raw layout —
    /// the denominator of the compression ratio.
    pub(crate) fn raw_equivalent_bytes(&self) -> u64 {
        (self.theta as u64) * ((self.n as u64 + 1) * 4)
            + self.total_live_edges() * 4
            + (self.theta as u64 + 1) * 8
    }
}

/// Asks the CPU to start loading the cache line holding `line` into every
/// cache level, and returns at once; a no-op off x86-64.
#[inline(always)]
fn prefetch_line(line: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults: it dereferences
    // nothing, whatever the address, and `_mm_prefetch` needs only SSE,
    // which every x86-64 target has.
    #[allow(unsafe_code)]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(line.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
}

// ---------------------------------------------------------------------------
// Varint primitives (LEB128)
// ---------------------------------------------------------------------------

/// Number of block-index entries for an `n`-vertex sample.
pub(crate) fn varint_blocks(n: usize) -> usize {
    n.div_ceil(VARINT_BLOCK)
}

/// Bytes of a dense bitset over `m` edge slots.
pub(crate) fn bitset_bytes(m: usize) -> usize {
    m.div_ceil(8)
}

/// A floor on the varint encoding's size of an `n`-vertex realisation with
/// `live` live edges: its block index plus at least one byte per vertex
/// (the degree) and one per live edge. A bitset smaller than this is
/// already the smaller encoding, with no decode needed to tell.
pub(crate) fn varint_size_floor(n: usize, live: u64) -> usize {
    4 * varint_blocks(n) + n + live as usize
}

/// Appends `v` as LEB128 (7 bits per byte, high bit = continuation).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded LEB128 size of `v` in bytes.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Reads one LEB128 value at `*pos`, advancing it. `None` on truncation or
/// an encoding longer than a `u64` can hold.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Skips `count` LEB128 values without decoding them.
#[inline]
fn skip_varints(bytes: &[u8], pos: &mut usize, count: usize) {
    let mut remaining = count;
    while remaining > 0 {
        let byte = bytes[*pos];
        *pos += 1;
        if byte & 0x80 == 0 {
            remaining -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-sample encoding
// ---------------------------------------------------------------------------

/// Exact byte size of the varint encoding of one sample (block index
/// included), or `None` when the targets of some vertex are not strictly
/// increasing (then delta coding does not apply).
fn varint_sample_size(offsets: &[u32], targets: &[u32]) -> Option<usize> {
    let n = offsets.len() - 1;
    let mut size = 4 * varint_blocks(n);
    for u in 0..n {
        let list = &targets[offsets[u] as usize..offsets[u + 1] as usize];
        size += varint_len(list.len() as u64);
        if let Some((&first, rest)) = list.split_first() {
            size += varint_len(u64::from(first));
            let mut prev = first;
            for &t in rest {
                if t <= prev {
                    return None;
                }
                size += varint_len(u64::from(t - prev - 1));
                prev = t;
            }
        }
    }
    Some(size)
}

/// Encodes one sample as delta-varint records behind a block index,
/// appending to `out`.
fn encode_varint_sample(offsets: &[u32], targets: &[u32], out: &mut Vec<u8>) {
    let n = offsets.len() - 1;
    let index_at = out.len();
    out.resize(index_at + 4 * varint_blocks(n), 0);
    let data_at = out.len();
    for u in 0..n {
        if u % VARINT_BLOCK == 0 {
            let entry = ((out.len() - data_at) as u32).to_le_bytes();
            let slot = index_at + 4 * (u / VARINT_BLOCK);
            out[slot..slot + 4].copy_from_slice(&entry);
        }
        let list = &targets[offsets[u] as usize..offsets[u + 1] as usize];
        write_varint(out, list.len() as u64);
        if let Some((&first, rest)) = list.split_first() {
            write_varint(out, u64::from(first));
            let mut prev = first;
            for &t in rest {
                write_varint(out, u64::from(t - prev - 1));
                prev = t;
            }
        }
    }
}

/// Encodes one sample as a dense bitset over the graph's edge slots,
/// appending to `out`. Fails when the sample is not an in-order subsequence
/// of the graph adjacency (such a sample cannot have come from this graph).
pub(crate) fn encode_bitset_sample(
    offsets: &[u32],
    targets: &[u32],
    gr_offsets: &[u64],
    gr_targets: &[u32],
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let n = offsets.len() - 1;
    let m = gr_targets.len();
    let base = out.len();
    out.resize(base + bitset_bytes(m), 0);
    for u in 0..n {
        let live = &targets[offsets[u] as usize..offsets[u + 1] as usize];
        let lo = gr_offsets[u] as usize;
        let hi = gr_offsets[u + 1] as usize;
        let slots = &gr_targets[lo..hi];
        let mut j = 0usize;
        for &t in live {
            while j < slots.len() && slots[j] != t {
                j += 1;
            }
            if j == slots.len() {
                return Err(format!(
                    "vertex {u}: live target {t} is not an out-edge of the graph (or out of order)"
                ));
            }
            let slot = lo as u64 + j as u64;
            out[base + (slot >> 3) as usize] |= 1 << (slot & 7);
            j += 1;
        }
    }
    Ok(())
}

/// Encodes one raw CSR sample into `out` using whichever of the two
/// encodings is smaller, returning `(mode, encoded_len)`.
pub(crate) fn encode_sample(
    offsets: &[u32],
    targets: &[u32],
    gr_offsets: &[u64],
    gr_targets: &[u32],
    out: &mut Vec<u8>,
) -> Result<(u8, usize), String> {
    let before = out.len();
    let bitset = bitset_bytes(gr_targets.len());
    match varint_sample_size(offsets, targets) {
        Some(varint) if varint <= bitset => {
            encode_varint_sample(offsets, targets, out);
            debug_assert_eq!(out.len() - before, varint);
            Ok((MODE_VARINT, out.len() - before))
        }
        _ => {
            encode_bitset_sample(offsets, targets, gr_offsets, gr_targets, out)?;
            Ok((MODE_BITSET, out.len() - before))
        }
    }
}

/// Full structural validation of a varint-encoded sample: the block index
/// must point where the records actually fall, every decoded target must be
/// strictly increasing and in range, and the decoded live-edge count must
/// match the directory.
fn validate_varint_sample(blob: &[u8], n: usize, expected_len: u64) -> Result<(), String> {
    let index_bytes = 4 * varint_blocks(n);
    if blob.len() < index_bytes {
        return Err(format!(
            "varint blob of {} bytes cannot hold its {index_bytes}-byte block index",
            blob.len()
        ));
    }
    let (index, data) = blob.split_at(index_bytes);
    let mut pos = 0usize;
    let mut live = 0u64;
    for u in 0..n {
        if u % VARINT_BLOCK == 0 {
            let at = 4 * (u / VARINT_BLOCK);
            let entry =
                u32::from_le_bytes(index[at..at + 4].try_into().expect("4-byte index entry"));
            if entry as usize != pos {
                return Err(format!(
                    "block index for vertex {u} says byte {entry}, records are at {pos}"
                ));
            }
        }
        let deg = read_varint(data, &mut pos)
            .ok_or_else(|| format!("vertex {u}: truncated degree varint"))?;
        if deg > n as u64 {
            return Err(format!("vertex {u}: live out-degree {deg} exceeds n"));
        }
        live += deg;
        if deg == 0 {
            continue;
        }
        let mut t = read_varint(data, &mut pos)
            .ok_or_else(|| format!("vertex {u}: truncated target varint"))?;
        if t >= n as u64 {
            return Err(format!("vertex {u}: live-edge target {t} out of range"));
        }
        for _ in 1..deg {
            let gap = read_varint(data, &mut pos)
                .ok_or_else(|| format!("vertex {u}: truncated delta varint"))?;
            t = t
                .checked_add(gap + 1)
                .ok_or_else(|| format!("vertex {u}: delta overflow"))?;
            if t >= n as u64 {
                return Err(format!("vertex {u}: live-edge target {t} out of range"));
            }
        }
    }
    if pos != data.len() {
        return Err(format!(
            "varint records end at byte {pos}, blob has {} data bytes",
            data.len()
        ));
    }
    if live != expected_len {
        return Err(format!(
            "decoded live-edge count {live} disagrees with the directory count {expected_len}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundary_values() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "encoded size of {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn read_varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80], &mut pos),
            None,
            "dangling continuation"
        );
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), None, "empty input");
        // 11 continuation bytes cannot fit a u64.
        let over = [0xFFu8; 10];
        let mut pos = 0;
        assert_eq!(read_varint(&over, &mut pos), None, "u64 overflow");
    }

    fn sample_from_lists(lists: &[&[u32]]) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for list in lists {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        (offsets, targets)
    }

    /// Graph where every vertex has out-edges to every higher vertex —
    /// gives the encoder a dense slot space to index into.
    fn complete_dag_csr(n: usize) -> (Vec<u64>, Vec<u32>) {
        let mut gr_offsets = vec![0u64];
        let mut gr_targets = Vec::new();
        for u in 0..n as u32 {
            for t in u + 1..n as u32 {
                gr_targets.push(t);
            }
            gr_offsets.push(gr_targets.len() as u64);
        }
        (gr_offsets, gr_targets)
    }

    fn roundtrip(lists: &[&[u32]], n: usize) {
        let (mut offsets, targets) = sample_from_lists(lists);
        // Vertices past the listed ones have no live edges.
        offsets.resize(n + 1, *offsets.last().expect("nonempty offsets"));
        let (gr_offsets, gr_targets) = complete_dag_csr(n);
        let mut blob = Vec::new();
        let (mode, len) =
            encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).unwrap();
        assert_eq!(blob.len(), len);
        let arena = CompressedArena {
            lens: vec![targets.len() as u64],
            modes: vec![mode],
            starts: vec![0, len as u64],
            data: Blob::Owned(blob),
            gr_offsets,
            gr_targets,
        };
        let arena = PoolArena::compressed(n, 1, arena);
        arena.validate_all().expect("self-encoded sample validates");
        let (mut out_offsets, mut out_targets) = (Vec::new(), Vec::new());
        arena
            .view(0)
            .decode_into(n, &mut out_offsets, &mut out_targets);
        assert_eq!(out_offsets, offsets);
        assert_eq!(out_targets, targets);
    }

    #[test]
    fn encode_decode_roundtrips_both_modes() {
        // Sparse (varint wins) and dense (bitset wins) realisations of the
        // same 40-vertex complete DAG.
        roundtrip(&[&[5, 7, 39], &[], &[3]], 40);
        let dense: Vec<Vec<u32>> = (0..40u32).map(|u| (u + 1..40).collect()).collect();
        let dense_refs: Vec<&[u32]> = dense.iter().map(|v| v.as_slice()).collect();
        roundtrip(&dense_refs, 40);
        // Empty realisation.
        roundtrip(&[&[], &[], &[], &[]], 4);
    }

    #[test]
    fn mode_choice_tracks_density() {
        let n = 64;
        let (gr_offsets, gr_targets) = complete_dag_csr(n);
        let sparse = sample_from_lists(&[&[1u32][..], &[2]]);
        let mut sparse_offsets = sparse.0;
        sparse_offsets.resize(n + 1, *sparse_offsets.last().unwrap());
        let mut blob = Vec::new();
        let (mode, _) = encode_sample(
            &sparse_offsets,
            &sparse.1,
            &gr_offsets,
            &gr_targets,
            &mut blob,
        )
        .unwrap();
        assert_eq!(mode, MODE_VARINT, "2 live edges of 2016 slots");
        let dense: Vec<Vec<u32>> = (0..n as u32).map(|u| (u + 1..n as u32).collect()).collect();
        let (offsets, targets) =
            sample_from_lists(&dense.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        blob.clear();
        let (mode, _) =
            encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).unwrap();
        assert_eq!(mode, MODE_BITSET, "every slot live");
    }

    #[test]
    fn encode_rejects_samples_foreign_to_the_graph() {
        let (gr_offsets, gr_targets) = complete_dag_csr(4);
        // Vertex 2 claims a live edge to 1 — the DAG only has forward edges.
        let (offsets, targets) = sample_from_lists(&[&[], &[], &[1u32][..], &[]]);
        let mut blob = Vec::new();
        assert!(encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).is_err());
    }

    #[test]
    fn validation_catches_flipped_bytes() {
        let n = 64;
        // Sparse lists so the varint encoding wins: byte flips there derail
        // the record stream (block index, degrees or blob consumption).
        let lists: Vec<Vec<u32>> = (0..n as u32)
            .map(|u| {
                if u % 7 == 0 && u + 1 < n as u32 {
                    vec![u + 1]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let (offsets, targets) =
            sample_from_lists(&lists.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let (gr_offsets, gr_targets) = complete_dag_csr(n);
        let mut blob = Vec::new();
        let (mode, len) =
            encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).unwrap();
        assert_eq!(mode, MODE_VARINT);
        let make = |data: Vec<u8>, mode: u8, live: u64| {
            PoolArena::compressed(
                n,
                1,
                CompressedArena {
                    lens: vec![live],
                    modes: vec![mode],
                    starts: vec![0, data.len() as u64],
                    data: Blob::Owned(data),
                    gr_offsets: gr_offsets.clone(),
                    gr_targets: gr_targets.clone(),
                },
            )
        };
        let live = targets.len() as u64;
        assert!(make(blob.clone(), mode, live).validate_all().is_ok());
        for at in [0usize, len / 2, len - 1] {
            let mut bad = blob.clone();
            bad[at] ^= 0x55;
            assert!(
                make(bad, mode, live).validate_all().is_err(),
                "flipped varint byte {at} must not validate"
            );
        }

        // Bitset mode: a single-bit flip changes the popcount, a set padding
        // bit past m is rejected outright, and a wrong blob size never
        // validates. (A flip that *preserves* popcount yields a different
        // but structurally valid realisation — that corruption class is the
        // payload checksum's job, not structural validation's.)
        let dense: Vec<Vec<u32>> = (0..n as u32).map(|u| (u + 1..n as u32).collect()).collect();
        let (offsets, targets) =
            sample_from_lists(&dense.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let mut blob = Vec::new();
        let (mode, _) =
            encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).unwrap();
        assert_eq!(mode, MODE_BITSET);
        let live = targets.len() as u64;
        assert!(make(blob.clone(), mode, live).validate_all().is_ok());
        let mut bad = blob.clone();
        bad[0] ^= 0x01;
        assert!(
            make(bad, mode, live).validate_all().is_err(),
            "popcount drift must not validate"
        );
        let m = gr_targets.len();
        if m % 8 != 0 {
            let mut bad = blob.clone();
            *bad.last_mut().unwrap() |= 0x80;
            assert!(
                make(bad, mode, live).validate_all().is_err(),
                "set padding bit must not validate"
            );
        }
        let mut bad = blob.clone();
        bad.push(0);
        assert!(
            make(bad, mode, live).validate_all().is_err(),
            "oversized bitset must not validate"
        );
    }

    /// The bitset decoder walks set bits byte by byte; for random bitsets
    /// over a graph with hubs it must yield, for every vertex, exactly the
    /// targets a per-slot test of every bit yields, in the same order —
    /// slot ranges that start or end mid-byte, fit in one byte, or span
    /// many bytes alike.
    #[test]
    fn bitset_walk_yields_the_per_slot_targets() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xB175);
        let n = 300u32;
        // Out-degrees 0..12 with three hubs of 150, 299 and 77 slots.
        let (mut gr_offsets, mut gr_targets) = (vec![0u64], Vec::new());
        for u in 0..n {
            let degree = match u {
                3 => 150,
                100 => 299,
                101 => 77,
                _ => rng.gen_range(0..12usize),
            };
            let mut targets: Vec<u32> = (0..n).filter(|&t| t != u).collect();
            targets.shuffle(&mut rng);
            targets.truncate(degree);
            targets.sort_unstable();
            gr_targets.extend(targets);
            gr_offsets.push(gr_targets.len() as u64);
        }
        let m = gr_targets.len();
        for density in [0.05, 0.5, 0.95] {
            let mut bits = vec![0u8; bitset_bytes(m)];
            for slot in 0..m {
                if rng.gen_bool(density) {
                    bits[slot >> 3] |= 1 << (slot & 7);
                }
            }
            let view = SampleView::Bitset {
                bits: &bits,
                gr_offsets: &gr_offsets,
                gr_targets: &gr_targets,
            };
            for u in 0..n {
                let (lo, hi) = (gr_offsets[u as usize], gr_offsets[u as usize + 1]);
                let expected: Vec<u32> = (lo..hi)
                    .filter(|&slot| bits[(slot >> 3) as usize] & (1 << (slot & 7)) != 0)
                    .map(|slot| gr_targets[slot as usize])
                    .collect();
                let mut walked = Vec::new();
                view.for_each_live(u, |t| walked.push(t));
                assert_eq!(walked, expected, "density {density}, vertex {u}");
            }
        }
    }

    #[test]
    fn lazy_validation_panics_on_first_touch_of_a_corrupt_sample() {
        let n = 16;
        let (gr_offsets, gr_targets) = complete_dag_csr(n);
        let lists: Vec<Vec<u32>> = (0..n as u32).map(|u| (u + 1..n as u32).collect()).collect();
        let (offsets, targets) =
            sample_from_lists(&lists.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let mut blob = Vec::new();
        let (mode, len) =
            encode_sample(&offsets, &targets, &gr_offsets, &gr_targets, &mut blob).unwrap();
        blob[len / 2] ^= 0xFF;
        let arena = PoolArena::compressed(
            n,
            1,
            CompressedArena {
                lens: vec![targets.len() as u64],
                modes: vec![mode],
                starts: vec![0, len as u64],
                data: Blob::Owned(blob),
                gr_offsets,
                gr_targets,
            },
        )
        .with_lazy_validation();
        let err = std::panic::catch_unwind(|| arena.view(0)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("corrupt"), "diagnostic panic, got: {msg}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Per-vertex live-target lists over an `n`-vertex complete forward
        /// DAG: sorted, deduplicated, and all strictly greater than the
        /// source (so the fixture graph contains every listed edge).
        fn arb_lists(n: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
            collection::vec(collection::vec(0..n as u32, 0..10), n..=n).prop_map(move |raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(u, mut list)| {
                        list.sort_unstable();
                        list.dedup();
                        list.retain(|&t| t > u as u32);
                        list
                    })
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Delta-varint encoding of a whole sample round-trips bit-for-bit
            /// for arbitrary sorted target lists, and the encoded blob passes
            /// full structural validation.
            #[test]
            fn varint_samples_round_trip(lists in arb_lists(37)) {
                let n = lists.len();
                let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
                let (offsets, targets) = sample_from_lists(&refs);
                let mut blob = Vec::new();
                encode_varint_sample(&offsets, &targets, &mut blob);
                prop_assert!(
                    validate_varint_sample(&blob, n, targets.len() as u64).is_ok(),
                    "self-encoded sample must validate"
                );
                let index_bytes = 4 * varint_blocks(n);
                let view = SampleView::Varint {
                    index: &blob[..index_bytes],
                    data: &blob[index_bytes..],
                };
                let (mut dec_offsets, mut dec_targets) = (Vec::new(), Vec::new());
                view.decode_into(n, &mut dec_offsets, &mut dec_targets);
                prop_assert_eq!(&dec_offsets, &offsets);
                prop_assert_eq!(&dec_targets, &targets);
            }

            /// Raw LEB128 words round-trip and `varint_len` predicts the
            /// encoded width exactly, across the full `u64` range.
            #[test]
            fn raw_varints_round_trip(
                small in collection::vec(0u64..128, 0..8),
                wide in collection::vec(0u64..u64::MAX, 0..8),
                shifts in collection::vec(0u32..64, 0..8),
            ) {
                let mut values = small;
                values.extend(wide);
                values.extend(shifts.iter().map(|&s| 1u64 << s));
                values.push(u64::MAX);
                let mut buf = Vec::new();
                for &v in &values {
                    let before = buf.len();
                    write_varint(&mut buf, v);
                    prop_assert_eq!(buf.len() - before, varint_len(v));
                }
                let mut pos = 0usize;
                for &v in &values {
                    prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
                }
                prop_assert_eq!(pos, buf.len());
            }
        }
    }
}
