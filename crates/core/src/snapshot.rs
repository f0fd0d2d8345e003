//! Versioned binary persistence of a graph plus its resident sample pool.
//!
//! Building a [`SamplePool`] is by far the most expensive step of the
//! pooled estimator — tens of seconds at production θ — yet the pool
//! depends only on `(graph, pool_seed, θ)`. A *snapshot* captures both the
//! graph and the pool in one checksummed file, so a restarted engine
//! warm-starts by bulk-loading (or memory-mapping) the arenas instead of
//! resampling, and a CI run restores a cached pool instead of rebuilding
//! it.
//!
//! # File format
//!
//! All integers are **little-endian**. Every version is a fixed 64-byte
//! header, a checksummed payload, and an 8-byte checksum trailer:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `b"IMINSNAP"` |
//! | 8      | 4    | format version (`u32`; this build reads 1 and 2) |
//! | 12     | 4    | reserved, must be 0 |
//! | 16     | 8    | graph fingerprint ([`DiGraph::fingerprint`]) |
//! | 24     | 8    | pool seed (`u64`) |
//! | 32     | 8    | θ — number of realisations (`u64`, ≥ 1) |
//! | 40     | 8    | number of vertices `n` (`u64`) |
//! | 48     | 8    | number of edges `m` (`u64`) |
//! | 56     | 8    | graph-label length in bytes (`u64`) |
//!
//! Both versions open the payload identically:
//!
//! 1. the graph label (UTF-8, as many bytes as the header announced),
//! 2. the graph section of [`imin_graph::binfmt`] (out-CSR arenas as raw
//!    `u32`/`u64` slices).
//!
//! ## Version 1 pool section (legacy, read-only)
//!
//! A table of θ per-sample live-edge counts (`u64` each), then for every
//! sample its CSR arenas verbatim — `offsets` as `(n + 1) × u32` followed
//! by `targets` as `count × u32`. Still readable; new files are always v2.
//!
//! ## Version 2 pool section
//!
//! An 8-byte section header — arena kind (`u32`: 1 = raw, 2 = compressed)
//! plus 4 reserved zero bytes — then one of two layouts. *pad* means zero
//! bytes up to the next 4096-byte **absolute file offset**, so every bulk
//! array below starts page-aligned and a memory map can serve it in place:
//!
//! | raw (kind 1) | size |
//! |---|---|
//! | target-start table | `(θ + 1) × u64` |
//! | *pad* | 0–4095 |
//! | consolidated offsets | `θ × (n + 1) × u32` |
//! | *pad* | 0–4095 |
//! | consolidated targets | `total_live × u32` |
//!
//! | compressed (kind 2) | size |
//! |---|---|
//! | live-edge counts | `θ × u64` |
//! | encoding tags (0 = varint, 1 = bitset) | `θ × u8` |
//! | blob-start table | `(θ + 1) × u64` |
//! | *pad* | 0–4095 |
//! | sample blobs | `blob_start[θ]` bytes |
//!
//! The trailer is a 64-bit checksum of the payload bytes **including the
//! pads** (a 4-lane multiply–rotate word hash, boundary-independent and
//! fast enough to keep restores bandwidth-bound).
//!
//! # Reading and writing
//!
//! Two restores read v2 files, and they share one parse: the same header
//! read and size check, the same label and graph section reader, and the
//! same v2 section reader, which reads the directory tables, computes the
//! page-aligned positions of the bulk arrays and checks the exact file
//! length. They differ only in where the bulk arrays go:
//!
//! * [`load_snapshot`] streams the file through the checksum and copies
//!   them into heap arenas, then verifies the checksum and validates every
//!   sample eagerly (it is also the only reader of v1 files);
//! * [`map_snapshot`] parses through a cursor over the mapped file and
//!   serves them zero-copy out of the page cache. It **skips the payload
//!   checksum** (hashing the payload would fault in every page, defeating
//!   the point); per-sample structural validation runs lazily on first
//!   touch, and a corrupt sample surfaces as a diagnostic panic the
//!   serving layer converts to a typed internal error.
//!
//! Both are hardened alike: corrupt lengths are cross-checked against the
//! exact file size *before* any allocation, so truncated, oversized or
//! bit-flipped files produce the same [`SnapshotError`]s from either
//! reader, never panics or absurd allocations.
//!
//! One writer emits both versions. It writes to a sibling temp file
//! (`<name>.tmp<pid>-<n>`) and renames it over the target, so saving over
//! the file a mapped pool is served from leaves the mapped pages intact,
//! concurrent saves to one path never interleave, and a failed save leaves
//! the previous file in place. There is no fsync: a crash can lose the new
//! file or leave a temp file behind, never a torn snapshot under the
//! target name.
//!
//! Restore phases (`snap_read`, `snap_validate`, `snap_map`) are reported
//! through the `imin_obs` span layer, so a serving engine surfaces them in
//! its `METRICS` histograms and access log.

use crate::arena::{ArenaBacking, Blob, CompressedArena, PoolArena, RawArena, Words, MODE_BITSET};
use crate::mmap::Mmap;
use crate::pool::{graph_csr_copy, lap_instant, SamplePool};
use crate::{IminError, Result};
use imin_graph::{binfmt, DiGraph};
use imin_obs::{span, Phase};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes at offset 0 of every snapshot file.
pub const MAGIC: [u8; 8] = *b"IMINSNAP";

/// Current snapshot format version (what [`save_snapshot`] writes). Readers
/// accept 1 and 2; everything else is
/// [`SnapshotError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version the readers still accept.
pub const OLDEST_READABLE_VERSION: u32 = 1;

/// Fixed byte size of the snapshot header.
pub const HEADER_BYTES: u64 = 64;

/// Alignment of the v2 bulk arrays (absolute file offsets).
const PAGE: u64 = 4096;

/// Arena-kind tags of the v2 pool section header.
const SECTION_RAW: u32 = 1;
const SECTION_COMPRESSED: u32 = 2;

/// Maximum accepted graph-label length, a sanity bound on header parsing.
const MAX_LABEL_BYTES: u64 = 65_536;

static ZERO_PAGE: [u8; PAGE as usize] = [0u8; PAGE as usize];

/// Zero bytes needed to advance the absolute offset `abs` to the next page
/// boundary (0 when already aligned).
fn pad_len(abs: u64) -> usize {
    ((PAGE - (abs % PAGE)) % PAGE) as usize
}

/// Errors produced while writing or reading snapshot files.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure (open, read, write, create, rename, map).
    Io(std::io::Error),
    /// The file is shorter than its own header/section sizes demand (or
    /// longer — trailing garbage is rejected too).
    Truncated {
        /// Byte size the sections demand.
        expected: u64,
        /// Actual file size.
        actual: u64,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The payload checksum does not match the trailer.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed from the payload.
        computed: u64,
    },
    /// The fingerprint of the deserialised graph does not match the header.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        stored: u64,
        /// Fingerprint recomputed from the graph section.
        computed: u64,
    },
    /// A structurally impossible value (zero θ, oversized label, per-sample
    /// live-edge count exceeding `m`, header/graph-section disagreement,
    /// non-monotone directory tables, …).
    Corrupt {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "snapshot file is truncated or padded: sections demand {expected} bytes, file has {actual}"
            ),
            SnapshotError::BadMagic => {
                write!(f, "not a snapshot file (bad magic, expected \"IMINSNAP\")")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads versions \
                 {OLDEST_READABLE_VERSION} through {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::FingerprintMismatch { stored, computed } => write!(
                f,
                "snapshot graph fingerprint mismatch: header says {stored:#018x}, graph section hashes to {computed:#018x}"
            ),
            SnapshotError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            // An EOF mid-section is a truncation the size pre-checks could
            // not attribute; sizes are unknown at this point.
            SnapshotError::Truncated {
                expected: 0,
                actual: 0,
            }
        } else {
            SnapshotError::Io(err)
        }
    }
}

impl From<SnapshotError> for IminError {
    fn from(err: SnapshotError) -> Self {
        IminError::Snapshot(err)
    }
}

// ---------------------------------------------------------------------------
// Streaming checksum
// ---------------------------------------------------------------------------

/// Boundary-independent streaming checksum over the payload bytes: the byte
/// stream is consumed as little-endian `u64` words round-robined over four
/// independent multiply–rotate lanes (so the four multiply chains overlap in
/// the pipeline), with the total length mixed into the final value. Not
/// cryptographic — it exists to catch torn writes and bit rot.
struct StreamChecksum {
    lanes: [u64; 4],
    pending: [u8; 8],
    pending_len: usize,
    words: u64,
    total: u64,
}

const LANE_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

impl StreamChecksum {
    fn new() -> Self {
        StreamChecksum {
            lanes: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            pending: [0u8; 8],
            pending_len: 0,
            words: 0,
            total: 0,
        }
    }

    #[inline]
    fn push_word(&mut self, word: u64) {
        let lane = &mut self.lanes[(self.words & 3) as usize];
        *lane = (*lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(29);
        self.words += 1;
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let need = 8 - self.pending_len;
            let take = need.min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len == 8 {
                self.push_word(u64::from_le_bytes(self.pending));
                self.pending_len = 0;
            } else {
                return;
            }
        }
        // Re-align so the next word goes to lane 0, then run the hot loop
        // with all four lanes in registers: four independent multiply
        // chains per 32-byte block keep the pipeline full, which is what
        // makes multi-gigabyte restores checksum-bound-free. The word→lane
        // assignment (word i → lane i mod 4) is identical to push_word, so
        // the resulting value does not depend on call boundaries.
        while (self.words & 3) != 0 && bytes.len() >= 8 {
            self.push_word(u64::from_le_bytes(
                bytes[..8].try_into().expect("8-byte word"),
            ));
            bytes = &bytes[8..];
        }
        if (self.words & 3) == 0 {
            let mut lanes = self.lanes;
            let mut blocks = bytes.chunks_exact(32);
            let mut n_blocks = 0u64;
            for block in &mut blocks {
                let w = |at: usize| {
                    u64::from_le_bytes(block[at..at + 8].try_into().expect("8-byte lane word"))
                };
                lanes[0] = (lanes[0] ^ w(0)).wrapping_mul(LANE_PRIME).rotate_left(29);
                lanes[1] = (lanes[1] ^ w(8)).wrapping_mul(LANE_PRIME).rotate_left(29);
                lanes[2] = (lanes[2] ^ w(16)).wrapping_mul(LANE_PRIME).rotate_left(29);
                lanes[3] = (lanes[3] ^ w(24)).wrapping_mul(LANE_PRIME).rotate_left(29);
                n_blocks += 1;
            }
            self.lanes = lanes;
            self.words += n_blocks * 4;
            bytes = blocks.remainder();
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.push_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn value(&self) -> u64 {
        let mut h = self.total ^ 0x5851_F42D_4C95_7F2D;
        for (i, &lane) in self.lanes.iter().enumerate() {
            let mut tail = lane;
            if i == (self.words & 3) as usize && self.pending_len > 0 {
                // Fold the trailing partial word into its would-be lane;
                // `total` already disambiguates zero padding from real
                // zero bytes.
                let mut padded = [0u8; 8];
                padded[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
                tail = (tail ^ u64::from_le_bytes(padded))
                    .wrapping_mul(LANE_PRIME)
                    .rotate_left(29);
            }
            h ^= tail.rotate_left((i as u32 + 1) * 13);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        h ^ (h >> 31)
    }
}

/// `Write` adapter that feeds everything it forwards into the checksum.
struct ChecksumWriter<W: Write> {
    inner: W,
    sum: StreamChecksum,
    written: u64,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            sum: StreamChecksum::new(),
            written: 0,
        }
    }

    /// Writes zero bytes until the **absolute file offset** (header + payload
    /// written so far) reaches the next page boundary.
    fn pad_to_page(&mut self) -> std::io::Result<()> {
        let pad = pad_len(HEADER_BYTES + self.written);
        self.write_all(&ZERO_PAGE[..pad])
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// `Read` adapter that feeds everything it yields into the checksum (and
/// counts it, which is what positions the pad skips).
struct ChecksumReader<R: Read> {
    inner: R,
    sum: StreamChecksum,
}

impl<R: Read> ChecksumReader<R> {
    fn new(inner: R) -> Self {
        ChecksumReader {
            inner,
            sum: StreamChecksum::new(),
        }
    }

    /// Consumes (and checksums) the zero pad up to the absolute file
    /// offset `at`, the page boundary after the next unread byte.
    fn skip_to(&mut self, at: u64) -> std::result::Result<(), SnapshotError> {
        let mut pad = [0u8; PAGE as usize];
        self.read_exact(&mut pad[..(at - HEADER_BYTES - self.sum.total) as usize])?;
        Ok(())
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// The decoded fixed-size snapshot header (plus the label that follows it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version stored in the file.
    pub version: u32,
    /// Structural fingerprint of the stored graph.
    pub graph_fingerprint: u64,
    /// Base seed the pool was built from.
    pub pool_seed: u64,
    /// Number of realisations θ in the pool section.
    pub theta: u64,
    /// Vertex count of the stored graph.
    pub num_vertices: u64,
    /// Edge count of the stored graph.
    pub num_edges: u64,
    /// Label the graph was registered under when the snapshot was saved.
    pub label: String,
}

fn decode_header(bytes: &[u8; 64]) -> std::result::Result<(SnapshotHeader, u64), SnapshotError> {
    let word =
        |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 header bytes"));
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let reserved = u32::from_le_bytes(bytes[12..16].try_into().expect("4 header bytes"));
    if reserved != 0 {
        return Err(SnapshotError::Corrupt {
            reason: format!("reserved header field is {reserved}, expected 0"),
        });
    }
    let header = SnapshotHeader {
        version,
        graph_fingerprint: word(16),
        pool_seed: word(24),
        theta: word(32),
        num_vertices: word(40),
        num_edges: word(48),
        label: String::new(),
    };
    let label_len = word(56);
    if header.theta == 0 {
        return Err(SnapshotError::Corrupt {
            reason: "θ is 0 — a pool always holds at least one realisation".into(),
        });
    }
    if header.num_vertices >= u32::MAX as u64 {
        return Err(SnapshotError::Corrupt {
            reason: format!(
                "{} vertices exceeds the supported maximum",
                header.num_vertices
            ),
        });
    }
    if label_len > MAX_LABEL_BYTES {
        return Err(SnapshotError::Corrupt {
            reason: format!("label length {label_len} exceeds the {MAX_LABEL_BYTES}-byte bound"),
        });
    }
    Ok((header, label_len))
}

/// Byte size of the label + graph sections common to both versions.
/// Computed in `u128` so corrupt headers cannot overflow.
fn common_prefix_size(n: u64, m: u64, label_len: u64) -> u128 {
    // Saturating throughout: a hostile header must yield "impossibly big",
    // never an arithmetic panic (n and m can each be u64::MAX here).
    let (n, m) = (n as u128, m as u128);
    let graph = 16u128
        .saturating_add((n + 1).saturating_mul(8))
        .saturating_add(m.saturating_mul(12));
    (HEADER_BYTES as u128)
        .saturating_add(label_len as u128)
        .saturating_add(graph)
}

/// Minimum possible file size for the given header values — enough to bound
/// θ and n against the actual file size *before* any table allocation. The
/// v1 bound additionally includes every sample's `n + 1` offsets; the v2
/// bound only the smallest possible directory (a compressed pool section).
fn min_file_size(version: u32, n: u64, m: u64, theta: u64, label_len: u64) -> u128 {
    let theta_u = theta as u128;
    let base = common_prefix_size(n, m, label_len);
    let pool = if version == 1 {
        theta_u
            .saturating_mul(8)
            .saturating_add(theta_u.saturating_mul((n as u128 + 1).saturating_mul(4)))
    } else {
        // Section header + the smaller (compressed) directory: lens + modes
        // + starts.
        8u128
            .saturating_add(theta_u.saturating_mul(9))
            .saturating_add((theta_u + 1).saturating_mul(8))
    };
    base.saturating_add(pool).saturating_add(8)
}

// ---------------------------------------------------------------------------
// Bulk I/O helpers
// ---------------------------------------------------------------------------

/// Writes a `u64` slice as little-endian bytes, chunked through a stack
/// buffer so tables of any size stay allocation-free.
fn write_u64s<W: Write>(w: &mut W, vals: &[u64]) -> std::io::Result<()> {
    let mut buf = [0u8; 8 * 512];
    for chunk in vals.chunks(512) {
        for (i, v) in chunk.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 8])?;
    }
    Ok(())
}

/// Reads `len` little-endian `u64`s. `len` has been validated against the
/// file size, so the allocation is bounded by what the file actually holds.
fn read_u64s<R: Read>(r: &mut R, len: usize) -> std::result::Result<Vec<u64>, SnapshotError> {
    let mut out = Vec::with_capacity(len);
    let mut buf = vec![0u8; len.saturating_mul(8).min(4 << 20)];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 8);
        let b = &mut buf[..take * 8];
        r.read_exact(b)?;
        out.extend(
            b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word"))),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Reads `len` little-endian `u32`s in bounded chunks (the multi-gigabyte
/// bulk arrays of a v2 restore go through here).
fn read_u32s<R: Read>(r: &mut R, len: usize) -> std::result::Result<Vec<u32>, SnapshotError> {
    let mut out = Vec::with_capacity(len);
    let mut buf = vec![0u8; len.saturating_mul(4).min(4 << 20)];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 4);
        let b = &mut buf[..take * 4];
        r.read_exact(b)?;
        out.extend(
            b.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte word"))),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Reads exactly `len` raw bytes (compressed blob section).
fn read_bytes<R: Read>(r: &mut R, len: usize) -> std::result::Result<Vec<u8>, SnapshotError> {
    let mut out = vec![0u8; len];
    let mut filled = 0usize;
    // Chunked so a corrupt-but-plausible length cannot demand one giant
    // read_exact; `len` has already been validated against the file size.
    while filled < len {
        let take = (len - filled).min(16 << 20);
        r.read_exact(&mut out[filled..filled + take])?;
        filled += take;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Saving
// ---------------------------------------------------------------------------

/// Facts about a snapshot that was just written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Total file size in bytes (header + payload + trailer).
    pub bytes_written: u64,
    /// Number of realisations θ stored.
    pub theta: usize,
    /// Fingerprint of the stored graph.
    pub graph_fingerprint: u64,
}

fn encode_file_header(
    version: u32,
    graph: &DiGraph,
    pool: &SamplePool,
    label: &str,
    fingerprint: u64,
) -> [u8; HEADER_BYTES as usize] {
    let mut header = [0u8; HEADER_BYTES as usize];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[16..24].copy_from_slice(&fingerprint.to_le_bytes());
    header[24..32].copy_from_slice(&pool.pool_seed().to_le_bytes());
    header[32..40].copy_from_slice(&(pool.theta() as u64).to_le_bytes());
    header[40..48].copy_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    header[48..56].copy_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    header[56..64].copy_from_slice(&(label.len() as u64).to_le_bytes());
    header
}

fn check_label(label: &str) -> Result<()> {
    if label.len() as u64 > MAX_LABEL_BYTES {
        return Err(SnapshotError::Corrupt {
            reason: format!(
                "label of {} bytes exceeds the {MAX_LABEL_BYTES}-byte bound",
                label.len()
            ),
        }
        .into());
    }
    Ok(())
}

/// The payload stream a pool-section writer appends to.
type PayloadWriter = ChecksumWriter<BufWriter<File>>;

/// Numbers the temp files of one process's saves, so two concurrent saves
/// to one path never share a temp file.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes one snapshot of `version`: the header, then the checksummed
/// payload — label, graph section and the pool section `write_pool` emits —
/// then the checksum trailer. The bytes go to a sibling temp file that is
/// renamed over `path` once complete, so a pool still mapped from the old
/// file keeps its pages, concurrent saves never interleave in one file,
/// and a failed save removes the temp file and leaves `path` as it was.
fn write_snapshot(
    path: &Path,
    graph: &DiGraph,
    pool: &SamplePool,
    label: &str,
    version: u32,
    write_pool: impl FnOnce(&mut PayloadWriter) -> std::io::Result<()>,
) -> Result<SnapshotSummary> {
    pool.ensure_matches(graph)?;
    check_label(label)?;
    let fingerprint = graph.fingerprint();
    let header = encode_file_header(version, graph, pool, label, fingerprint);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(
        ".tmp{}-{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = write_file(&tmp, &header, label, graph, write_pool)
        .and_then(|bytes| std::fs::rename(&tmp, path).map(|()| bytes));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(SnapshotSummary {
        bytes_written: written.map_err(SnapshotError::Io)?,
        theta: pool.theta(),
        graph_fingerprint: fingerprint,
    })
}

/// Creates `path` and writes one whole snapshot file into it, returning
/// its size.
fn write_file(
    path: &Path,
    header: &[u8; HEADER_BYTES as usize],
    label: &str,
    graph: &DiGraph,
    write_pool: impl FnOnce(&mut PayloadWriter) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let mut file = BufWriter::with_capacity(4 << 20, File::create(path)?);
    file.write_all(header)?;
    let mut payload = ChecksumWriter::new(file);
    payload.write_all(label.as_bytes())?;
    graph.write_binary(&mut payload)?;
    write_pool(&mut payload)?;
    let trailer = payload.sum.value().to_le_bytes();
    payload.inner.write_all(&trailer)?;
    payload.inner.flush()?;
    Ok(HEADER_BYTES + payload.written + 8)
}

/// Writes `graph` and its resident `pool` (plus the engine-facing `label`)
/// as one version-2 snapshot file at `path`, replacing any existing file
/// by rename (see the module docs). The pool section mirrors the pool's
/// arena: a raw pool is written as page-aligned consolidated CSR arrays
/// (mappable zero-copy on restore), a compressed pool as its directory
/// plus blobs.
///
/// # Errors
/// Returns [`IminError::PoolGraphMismatch`] when the pool was not built
/// from `graph`, and [`IminError::Snapshot`] for I/O failures or an
/// oversized label.
pub fn save_snapshot(
    path: &Path,
    graph: &DiGraph,
    pool: &SamplePool,
    label: &str,
) -> Result<SnapshotSummary> {
    write_snapshot(path, graph, pool, label, FORMAT_VERSION, |w| {
        // Each section header is the arena kind (u32) and 4 reserved zero
        // bytes: one little-endian u64.
        match &pool.arena().backing {
            ArenaBacking::Raw(raw) => {
                w.write_all(&u64::from(SECTION_RAW).to_le_bytes())?;
                write_u64s(w, &raw.target_start)?;
                w.pad_to_page()?;
                binfmt::write_u32s(w, raw.offsets.as_slice())?;
                w.pad_to_page()?;
                binfmt::write_u32s(w, raw.targets.as_slice())
            }
            ArenaBacking::Compressed(c) => {
                w.write_all(&u64::from(SECTION_COMPRESSED).to_le_bytes())?;
                write_u64s(w, &c.lens)?;
                w.write_all(&c.modes)?;
                write_u64s(w, &c.starts)?;
                w.pad_to_page()?;
                w.write_all(c.data.as_slice())
            }
        }
    })
}

/// Writes the legacy version-1 layout (per-sample CSR arrays). Exposed
/// (hidden) so the backward-compat and hostile-input tests can produce
/// genuine v1 files; new code always writes v2.
#[doc(hidden)]
pub fn save_snapshot_v1(
    path: &Path,
    graph: &DiGraph,
    pool: &SamplePool,
    label: &str,
) -> Result<SnapshotSummary> {
    write_snapshot(path, graph, pool, label, 1, |w| {
        for i in 0..pool.theta() {
            w.write_all(&pool.arena().sample_len(i).to_le_bytes())?;
        }
        let (mut offsets, mut targets) = (Vec::new(), Vec::new());
        for i in 0..pool.theta() {
            pool.sample_csr_into(i, &mut offsets, &mut targets);
            binfmt::write_u32s(w, &offsets)?;
            binfmt::write_u32s(w, &targets)?;
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// A snapshot deserialised back into its in-memory form.
#[derive(Debug)]
pub struct RestoredSnapshot {
    /// The stored graph, with its derived arrays rebuilt.
    pub graph: DiGraph,
    /// The stored pool: heap arenas for [`load_snapshot`], arenas served
    /// out of the mapping for [`map_snapshot`].
    pub pool: SamplePool,
    /// The label the graph was saved under (may be empty).
    pub label: String,
    /// The validated header.
    pub header: SnapshotHeader,
}

/// Reads and validates only the header (plus label) of the snapshot at
/// `path` — cheap provenance inspection without touching the arenas.
///
/// # Errors
/// Same header-validation errors as [`load_snapshot`].
pub fn peek_header(path: &Path) -> Result<SnapshotHeader> {
    let mut file = File::open(path).map_err(SnapshotError::Io)?;
    let (mut header, label_len, _) = read_header(&mut file)?;
    read_label(&mut file, &mut header, label_len)?;
    Ok(header)
}

/// Reads and decodes the fixed header at the start of `file`, returning it
/// with the label length and the file size. A file too short to hold a
/// header is [`SnapshotError::BadMagic`] when even its leading bytes are
/// not the magic (it is not a snapshot at all), and
/// [`SnapshotError::Truncated`] when they are.
fn read_header(file: &mut File) -> std::result::Result<(SnapshotHeader, u64, u64), SnapshotError> {
    let file_len = file.metadata()?.len();
    let mut bytes = Vec::with_capacity(HEADER_BYTES as usize);
    Read::by_ref(file)
        .take(HEADER_BYTES)
        .read_to_end(&mut bytes)?;
    let Ok(head) = <[u8; HEADER_BYTES as usize]>::try_from(bytes.as_slice()) else {
        let probe = bytes.len().min(MAGIC.len());
        if bytes[..probe] != MAGIC[..probe] {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated {
            expected: HEADER_BYTES,
            actual: file_len,
        });
    };
    let (header, label_len) = decode_header(&head)?;
    Ok((header, label_len, file_len))
}

/// Opens the snapshot at `path`, reads its header and rejects a file too
/// short for the sections the header announces, before anything is
/// allocated. Returns the file positioned after the header, the header,
/// the label length and the file size. Both restores start here.
fn open_snapshot(path: &Path) -> Result<(File, SnapshotHeader, u64, u64)> {
    let mut file = File::open(path).map_err(SnapshotError::Io)?;
    let (header, label_len, file_len) = read_header(&mut file)?;
    let min_len = min_file_size(
        header.version,
        header.num_vertices,
        header.num_edges,
        header.theta,
        label_len,
    );
    if u128::from(file_len) < min_len {
        return Err(truncated(min_len, file_len));
    }
    Ok((file, header, label_len, file_len))
}

fn truncated(expected: u128, actual: u64) -> IminError {
    SnapshotError::Truncated {
        expected: expected.min(u64::MAX as u128) as u64,
        actual,
    }
    .into()
}

fn check_exact_len(file_len: u64, exact: u128) -> Result<()> {
    if u128::from(file_len) != exact {
        return Err(truncated(exact, file_len));
    }
    Ok(())
}

fn corrupt(reason: String) -> IminError {
    IminError::Snapshot(SnapshotError::Corrupt { reason })
}

fn read_label<R: Read>(
    r: &mut R,
    header: &mut SnapshotHeader,
    label_len: u64,
) -> std::result::Result<(), SnapshotError> {
    let mut label = vec![0u8; label_len as usize];
    r.read_exact(&mut label)?;
    header.label = String::from_utf8_lossy(&label).into_owned();
    Ok(())
}

/// Reads and cross-checks the label + graph sections shared by both
/// versions, returning the graph.
fn read_graph_section<R: Read>(
    payload: &mut R,
    header: &mut SnapshotHeader,
    label_len: u64,
) -> Result<DiGraph> {
    read_label(payload, header, label_len)?;
    let graph = DiGraph::read_binary(payload).map_err(|err| match err {
        imin_graph::GraphError::Io(io) => IminError::Snapshot(SnapshotError::from(io)),
        other => corrupt(other.to_string()),
    })?;
    if graph.num_vertices() as u64 != header.num_vertices
        || graph.num_edges() as u64 != header.num_edges
    {
        return Err(corrupt(format!(
            "graph section is {}v/{}e but the header says {}v/{}e",
            graph.num_vertices(),
            graph.num_edges(),
            header.num_vertices,
            header.num_edges
        )));
    }
    let computed_fingerprint = graph.fingerprint();
    if computed_fingerprint != header.graph_fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            stored: header.graph_fingerprint,
            computed: computed_fingerprint,
        }
        .into());
    }
    Ok(graph)
}

/// Validates a raw target-start table: monotone from 0, per-sample deltas
/// bounded by `m`.
fn check_target_start(target_start: &[u64], m: u64) -> Result<()> {
    if target_start.first() != Some(&0) {
        return Err(corrupt("target-start table does not begin at 0".into()));
    }
    for (i, w) in target_start.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(corrupt(format!(
                "target-start table decreases at sample {i}"
            )));
        }
        if w[1] - w[0] > m {
            return Err(corrupt(format!(
                "sample {i} claims {} live edges, graph has only {m}",
                w[1] - w[0]
            )));
        }
    }
    Ok(())
}

/// Validates a compressed directory (lens / modes / starts).
fn check_compressed_directory(lens: &[u64], modes: &[u8], starts: &[u64], m: u64) -> Result<()> {
    for (i, &len) in lens.iter().enumerate() {
        if len > m {
            return Err(corrupt(format!(
                "sample {i} claims {len} live edges, graph has only {m}"
            )));
        }
    }
    for (i, &mode) in modes.iter().enumerate() {
        if mode > MODE_BITSET {
            return Err(corrupt(format!(
                "sample {i} has unknown encoding tag {mode}"
            )));
        }
    }
    if starts.first() != Some(&0) {
        return Err(corrupt("blob-start table does not begin at 0".into()));
    }
    if let Some(i) = starts.windows(2).position(|w| w[1] < w[0]) {
        return Err(corrupt(format!("blob-start table decreases at sample {i}")));
    }
    Ok(())
}

/// A payload stream that also decides where a v2 pool section's bulk
/// arrays go: [`load_snapshot`]'s checksummed file stream copies them into
/// owned arenas, [`map_snapshot`]'s cursor points at them inside the
/// mapping.
trait PayloadSource: Read {
    /// The `len` words at absolute file offset `at`.
    fn words(&mut self, at: u64, len: usize) -> std::result::Result<Words, SnapshotError>;
    /// The `len` bytes at absolute file offset `at`.
    fn blob(&mut self, at: u64, len: usize) -> std::result::Result<Blob, SnapshotError>;
}

impl<R: Read> PayloadSource for ChecksumReader<R> {
    fn words(&mut self, at: u64, len: usize) -> std::result::Result<Words, SnapshotError> {
        self.skip_to(at)?;
        Ok(Words::Owned(read_u32s(self, len)?))
    }

    fn blob(&mut self, at: u64, len: usize) -> std::result::Result<Blob, SnapshotError> {
        self.skip_to(at)?;
        Ok(Blob::Owned(read_bytes(self, len)?))
    }
}

/// A read cursor over a mapped snapshot file.
struct MapCursor {
    map: Arc<Mmap>,
    /// Absolute file offset of the next unread byte.
    pos: usize,
}

impl Read for MapCursor {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .map
            .bytes()
            .get(self.pos..)
            .unwrap_or_default()
            .read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

impl PayloadSource for MapCursor {
    // `read_v2_section` checked `at + len` against the mapping's length.
    fn words(&mut self, at: u64, len: usize) -> std::result::Result<Words, SnapshotError> {
        let (map, start) = (self.map.clone(), at as usize);
        Ok(Words::Mapped { map, start, len })
    }

    fn blob(&mut self, at: u64, len: usize) -> std::result::Result<Blob, SnapshotError> {
        let (map, start) = (self.map.clone(), at as usize);
        Ok(Blob::Mapped { map, start, len })
    }
}

/// Reads a v2 pool section starting at absolute file offset `at`: the
/// section header and directory tables, then the page-aligned positions of
/// the bulk arrays, checked against the exact `file_len` before `src`
/// places them.
fn read_v2_section<S: PayloadSource>(
    src: &mut S,
    graph: &DiGraph,
    theta: usize,
    at: u128,
    file_len: u64,
) -> Result<PoolArena> {
    let n = graph.num_vertices();
    let m = graph.num_edges() as u64;
    let mut section = [0u8; 8];
    src.read_exact(&mut section).map_err(SnapshotError::from)?;
    let kind = u32::from_le_bytes(section[0..4].try_into().expect("4-byte kind"));
    let reserved = u32::from_le_bytes(section[4..8].try_into().expect("4-byte reserved"));
    if reserved != 0 {
        return Err(corrupt(format!(
            "reserved pool-section field is {reserved}, expected 0"
        )));
    }
    let page_up = |abs: u128| abs + pad_len(abs.min(u64::MAX as u128) as u64) as u128;
    let (at, theta_u) = (at + 8, theta as u128);
    match kind {
        SECTION_RAW => {
            let stride = n + 1;
            let target_start = read_u64s(src, theta + 1)?;
            check_target_start(&target_start, m)?;
            let total = target_start[theta];
            let offsets_at = page_up(at + (theta_u + 1) * 8);
            let targets_at = page_up(offsets_at + theta_u * stride as u128 * 4);
            check_exact_len(file_len, targets_at + u128::from(total) * 4 + 8)?;
            let offsets = src.words(offsets_at as u64, theta * stride)?;
            let targets = src.words(targets_at as u64, total as usize)?;
            let raw = RawArena {
                stride,
                target_start,
                offsets,
                targets,
            };
            Ok(PoolArena::raw(n, theta, raw))
        }
        SECTION_COMPRESSED => {
            let lens = read_u64s(src, theta)?;
            let mut modes = vec![0u8; theta];
            src.read_exact(&mut modes).map_err(SnapshotError::from)?;
            let starts = read_u64s(src, theta + 1)?;
            check_compressed_directory(&lens, &modes, &starts, m)?;
            let data_len = starts[theta];
            let data_at = page_up(at + theta_u * 17 + 8);
            check_exact_len(file_len, data_at + u128::from(data_len) + 8)?;
            let data = src.blob(data_at as u64, data_len as usize)?;
            let (gr_offsets, gr_targets) = graph_csr_copy(graph);
            let compressed = CompressedArena {
                lens,
                modes,
                starts,
                data,
                gr_offsets,
                gr_targets,
            };
            Ok(PoolArena::compressed(n, theta, compressed))
        }
        other => Err(corrupt(format!("unknown pool-section arena kind {other}"))),
    }
}

/// Reads a legacy v1 pool section (per-sample CSR arrays) into a
/// consolidated raw arena.
fn load_v1_pool_section<R: Read>(
    payload: &mut R,
    graph: &DiGraph,
    theta: usize,
    file_len: u64,
    prefix: u128,
) -> Result<PoolArena> {
    let n = graph.num_vertices();
    let m = graph.num_edges() as u64;
    let stride = n + 1;
    // Per-sample live-edge counts; each realisation keeps a subset of the
    // graph's edges, so any count above m is corruption.
    let lens = read_u64s(payload, theta)?;
    let mut target_start = Vec::with_capacity(theta + 1);
    target_start.push(0u64);
    let mut acc = 0u64;
    for (i, &len) in lens.iter().enumerate() {
        if len > m {
            return Err(corrupt(format!(
                "sample {i} claims {len} live edges, graph has only {m}"
            )));
        }
        acc += len;
        target_start.push(acc);
    }
    let total = acc as usize;
    let exact = prefix
        .saturating_add(theta as u128 * 8)
        .saturating_add((theta as u128 * stride as u128 + total as u128) * 4)
        .saturating_add(8);
    check_exact_len(file_len, exact)?;

    // Exact length verified against the real file: the two consolidated
    // allocations below are bounded by bytes the file actually holds.
    let mut offsets: Vec<u32> = Vec::with_capacity(theta * stride);
    let mut targets: Vec<u32> = Vec::with_capacity(total);
    let max_words = lens
        .iter()
        .map(|&len| len as usize)
        .max()
        .unwrap_or(0)
        .max(stride);
    let mut scratch = vec![0u8; max_words * 4];
    for &len in &lens {
        let buf = &mut scratch[..stride * 4];
        payload.read_exact(buf).map_err(SnapshotError::from)?;
        offsets.extend(
            buf.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte word"))),
        );
        let buf = &mut scratch[..len as usize * 4];
        payload.read_exact(buf).map_err(SnapshotError::from)?;
        targets.extend(
            buf.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte word"))),
        );
    }
    Ok(PoolArena::raw(
        n,
        theta,
        RawArena {
            stride,
            target_start,
            offsets: Words::Owned(offsets),
            targets: Words::Owned(targets),
        },
    ))
}

/// Reassembles a restored graph and arena into the reader's result.
fn restored(graph: DiGraph, header: SnapshotHeader, arena: PoolArena) -> RestoredSnapshot {
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    RestoredSnapshot {
        pool: SamplePool::from_arena(n, m, header.pool_seed, arena),
        graph,
        label: header.label.clone(),
        header,
    }
}

/// Loads the snapshot at `path` into heap arenas: validates the header,
/// bulk-loads the graph and pool sections, verifies the payload checksum
/// and the graph fingerprint, and structurally validates every sample.
/// Reads both format versions; a v1 file comes back as a consolidated raw
/// arena bit-identical to the historical layout.
///
/// # Errors
/// Every failure mode is a typed [`SnapshotError`] wrapped in
/// [`IminError::Snapshot`]: missing/unreadable file, bad magic, unsupported
/// version, truncation, checksum mismatch, fingerprint mismatch, or
/// structurally impossible sections. Corrupt input never panics.
pub fn load_snapshot(path: &Path) -> Result<RestoredSnapshot> {
    let (mut file, mut header, label_len, file_len) = open_snapshot(path)?;
    // Restore phases feed the observability span (restores are rare, so
    // the clock reads are always taken).
    let (mut read_ns, mut validate_ns) = (0u64, 0u64);
    let mut mark = Instant::now();
    let mut payload = ChecksumReader::new(&mut file);
    let graph = read_graph_section(&mut payload, &mut header, label_len)?;
    let prefix = common_prefix_size(header.num_vertices, header.num_edges, label_len);
    let theta = header.theta as usize;
    let arena = if header.version == 1 {
        load_v1_pool_section(&mut payload, &graph, theta, file_len, prefix)?
    } else {
        read_v2_section(&mut payload, &graph, theta, prefix, file_len)?
    };
    lap_instant(&mut mark, &mut read_ns);
    if let Err((i, reason)) = arena.validate_all() {
        return Err(corrupt(format!("sample {i}: {reason}")));
    }

    let computed = payload.sum.value();
    let mut trailer = [0u8; 8];
    file.read_exact(&mut trailer).map_err(SnapshotError::from)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed }.into());
    }
    lap_instant(&mut mark, &mut validate_ns);
    span::add_ns(Phase::SnapRead, read_ns);
    span::add_ns(Phase::SnapValidate, validate_ns);
    Ok(restored(graph, header, arena))
}

/// Opens the version-2 snapshot at `path` as a **memory-mapped** pool: the
/// header, graph and directory tables go through the same parse as
/// [`load_snapshot`] (header, fingerprint and exact-size validation
/// included), but the bulk arrays stay in the mapping and are served
/// zero-copy, so the restore cost is independent of pool size.
///
/// The payload checksum is **not** verified — hashing the payload would
/// fault in every page, which is exactly what mapping avoids. Instead every
/// sample is structurally validated on its first use; a corrupt sample
/// raises a diagnostic panic that the serving layer converts to a typed
/// internal error. Callers must not truncate or rewrite the file in place
/// while the pool is alive ([`save_snapshot`] replaces files by rename,
/// which is safe).
///
/// # Errors
/// As [`load_snapshot`], plus [`SnapshotError::Corrupt`] for v1 files
/// (their layout is not mappable — use the bulk loader) and on big-endian
/// hosts (the on-disk words cannot be viewed in place).
pub fn map_snapshot(path: &Path) -> Result<RestoredSnapshot> {
    if cfg!(target_endian = "big") {
        return Err(corrupt(
            "memory-mapped restore requires a little-endian host; use the bulk loader".into(),
        ));
    }
    let (mut map_ns, mut validate_ns) = (0u64, 0u64);
    let mut mark = Instant::now();
    let (file, mut header, label_len, _) = open_snapshot(path)?;
    if header.version < 2 {
        return Err(corrupt(format!(
            "version-{} snapshots have no page-aligned sections and cannot be memory-mapped; \
             use the bulk loader",
            header.version
        )));
    }
    let mut cursor = MapCursor {
        map: Arc::new(Mmap::map(&file).map_err(SnapshotError::Io)?),
        pos: HEADER_BYTES as usize,
    };
    lap_instant(&mut mark, &mut map_ns);
    // Sections are bounded by the mapping's own length, so no mapped slice
    // can run past it.
    let map_len = cursor.map.len() as u64;
    let graph = read_graph_section(&mut cursor, &mut header, label_len)?;
    let prefix = common_prefix_size(header.num_vertices, header.num_edges, label_len);
    let arena = read_v2_section(&mut cursor, &graph, header.theta as usize, prefix, map_len)?;
    // Graph parse, fingerprint and directory checks: the eager part of a
    // mapped restore (per-sample validation is lazy).
    lap_instant(&mut mark, &mut validate_ns);
    span::add_ns(Phase::SnapMap, map_ns);
    span::add_ns(Phase::SnapValidate, validate_ns);
    Ok(restored(graph, header, arena.with_lazy_validation()))
}

/// The checksum of a payload byte slice, exactly as the trailer stores it.
/// Exposed (hidden) so corruption tests and external tooling can re-seal a
/// deliberately patched payload; not part of the supported API surface.
#[doc(hidden)]
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut sum = StreamChecksum::new();
    sum.update(payload);
    sum.value()
}

/// Order-sensitive 64-bit digest of every arena byte of the pool (θ, the
/// per-sample offsets and targets, decoded to the canonical raw layout
/// whatever the backend). Two pools have equal digests iff their stored
/// realisations are byte-identical — the cheap way for benchmarks and tests
/// to prove compress / `extend_to` / save–restore bit-identity without
/// holding two multi-gigabyte pools side by side.
pub fn pool_digest(pool: &SamplePool) -> u64 {
    let mut sum = StreamChecksum::new();
    sum.push_word(pool.theta() as u64);
    let (mut offsets, mut targets) = (Vec::new(), Vec::new());
    for i in 0..pool.theta() {
        pool.sample_csr_into(i, &mut offsets, &mut targets);
        sum.push_word(offsets.len() as u64);
        sum.push_word(targets.len() as u64);
        for &o in &offsets {
            sum.push_word(o as u64);
        }
        for &t in &targets {
            sum.push_word(t as u64);
        }
    }
    sum.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_boundary_independent() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut whole = StreamChecksum::new();
        whole.update(&bytes);
        for split in [1usize, 3, 7, 8, 63, 64, 999] {
            let mut parts = StreamChecksum::new();
            parts.update(&bytes[..split]);
            parts.update(&bytes[split..]);
            assert_eq!(parts.value(), whole.value(), "split at {split}");
        }
        // Single-byte dribble.
        let mut dribble = StreamChecksum::new();
        for b in &bytes {
            dribble.update(std::slice::from_ref(b));
        }
        assert_eq!(dribble.value(), whole.value());
    }

    #[test]
    fn checksum_distinguishes_content_length_and_padding() {
        let mut a = StreamChecksum::new();
        a.update(b"abc");
        let mut b = StreamChecksum::new();
        b.update(b"abc\0");
        assert_ne!(a.value(), b.value(), "zero padding must not collide");
        let mut c = StreamChecksum::new();
        c.update(b"abd");
        assert_ne!(a.value(), c.value());
        assert_ne!(StreamChecksum::new().value(), a.value());
    }

    #[test]
    fn min_file_size_does_not_overflow_on_hostile_headers() {
        // u64::MAX everywhere must not panic (u128 arithmetic).
        for version in [1u32, 2] {
            let huge = min_file_size(version, u64::MAX - 2, u64::MAX, u64::MAX, u64::MAX);
            assert!(huge > u64::MAX as u128);
        }
    }

    #[test]
    fn pad_len_reaches_the_next_page_boundary() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(4096), 0);
        assert_eq!(pad_len(1), 4095);
        assert_eq!(pad_len(4095), 1);
        assert_eq!(pad_len(8192 + 17), 4096 - 17);
        for abs in [0u64, 1, 63, 64, 4095, 4096, 4097, 123_456] {
            assert_eq!((abs + pad_len(abs) as u64) % 4096, 0, "abs={abs}");
        }
    }
}
