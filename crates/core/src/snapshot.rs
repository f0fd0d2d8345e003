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
//! Two restore paths read v2 files:
//!
//! * [`load_snapshot`] — bulk copy into heap arenas, full checksum and
//!   eager structural validation (and the only reader of v1 files);
//! * [`map_snapshot`] — maps the file and serves the bulk arrays zero-copy
//!   out of the page cache. It validates the header, graph fingerprint and
//!   directory tables eagerly but **skips the payload checksum** (hashing
//!   the payload would fault in every page, defeating the point);
//!   per-sample structural validation runs lazily on first touch, and a
//!   corrupt sample surfaces as a diagnostic panic the serving layer
//!   converts to a typed internal error.
//!
//! Every reader path is hardened: corrupt lengths are cross-checked
//! against the exact file size *before* any allocation, so truncated,
//! oversized or bit-flipped files produce [`SnapshotError`]s, never panics
//! or absurd allocations.
//!
//! Restore phases (`snap_read`, `snap_validate`, `snap_map`) are reported
//! through the `imin_obs` span layer, so a serving engine surfaces them in
//! its `METRICS` histograms and access log. Setting the
//! `IMIN_SNAPSHOT_TRACE` environment variable additionally prints the same
//! breakdown to stderr from [`load_snapshot`] / [`map_snapshot`] — the
//! quickest way to tell a slow disk from slow memory provisioning when a
//! restore underperforms.

use crate::arena::{ArenaBacking, Blob, CompressedArena, PoolArena, RawArena, Words, MODE_BITSET};
use crate::mmap::Mmap;
use crate::pool::{graph_csr_copy, SamplePool};
use crate::{IminError, Result};
use imin_graph::{binfmt, DiGraph};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

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
    /// An underlying I/O failure (open, read, write, create, map).
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

    /// Absolute file offset of the next unread payload byte.
    fn abs(&self) -> u64 {
        HEADER_BYTES + self.sum.total
    }

    /// Consumes (and checksums) the zero pad up to the next page boundary.
    fn skip_pad(&mut self) -> std::result::Result<(), SnapshotError> {
        let pad = pad_len(self.abs());
        let mut buf = [0u8; PAGE as usize];
        self.read_exact(&mut buf[..pad])?;
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

/// Writes `graph` and its resident `pool` (plus the engine-facing `label`)
/// as one version-2 snapshot file at `path`, overwriting any existing file.
/// The pool section mirrors the pool's arena: a raw pool is written as
/// page-aligned consolidated CSR arrays (mappable zero-copy on restore), a
/// compressed pool as its directory plus blobs.
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
    pool.ensure_matches(graph)?;
    check_label(label)?;
    let fingerprint = graph.fingerprint();
    let file = File::create(path).map_err(SnapshotError::Io)?;
    let mut writer = BufWriter::with_capacity(4 << 20, file);
    let header = encode_file_header(FORMAT_VERSION, graph, pool, label, fingerprint);
    writer.write_all(&header).map_err(SnapshotError::Io)?;

    let mut payload = ChecksumWriter::new(writer);
    let io_err = SnapshotError::Io;
    payload.write_all(label.as_bytes()).map_err(io_err)?;
    graph.write_binary(&mut payload).map_err(io_err)?;
    match &pool.arena().backing {
        ArenaBacking::Raw(raw) => {
            payload
                .write_all(&SECTION_RAW.to_le_bytes())
                .and_then(|()| payload.write_all(&0u32.to_le_bytes()))
                .map_err(io_err)?;
            write_u64s(&mut payload, &raw.target_start).map_err(io_err)?;
            payload.pad_to_page().map_err(io_err)?;
            binfmt::write_u32s(&mut payload, raw.offsets.as_slice()).map_err(io_err)?;
            payload.pad_to_page().map_err(io_err)?;
            binfmt::write_u32s(&mut payload, raw.targets.as_slice()).map_err(io_err)?;
        }
        ArenaBacking::Compressed(c) => {
            payload
                .write_all(&SECTION_COMPRESSED.to_le_bytes())
                .and_then(|()| payload.write_all(&0u32.to_le_bytes()))
                .map_err(io_err)?;
            write_u64s(&mut payload, &c.lens).map_err(io_err)?;
            payload.write_all(&c.modes).map_err(io_err)?;
            write_u64s(&mut payload, &c.starts).map_err(io_err)?;
            payload.pad_to_page().map_err(io_err)?;
            payload.write_all(c.data.as_slice()).map_err(io_err)?;
        }
    }
    let checksum = payload.sum.value();
    let payload_bytes = payload.written;
    let mut writer = payload.inner;
    writer.write_all(&checksum.to_le_bytes()).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Ok(SnapshotSummary {
        bytes_written: HEADER_BYTES + payload_bytes + 8,
        theta: pool.theta(),
        graph_fingerprint: fingerprint,
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
    pool.ensure_matches(graph)?;
    check_label(label)?;
    let fingerprint = graph.fingerprint();
    let file = File::create(path).map_err(SnapshotError::Io)?;
    let mut writer = BufWriter::with_capacity(4 << 20, file);
    let header = encode_file_header(1, graph, pool, label, fingerprint);
    writer.write_all(&header).map_err(SnapshotError::Io)?;

    let mut payload = ChecksumWriter::new(writer);
    let io_err = SnapshotError::Io;
    payload.write_all(label.as_bytes()).map_err(io_err)?;
    graph.write_binary(&mut payload).map_err(io_err)?;
    let theta = pool.theta();
    for i in 0..theta {
        payload
            .write_all(&pool.arena().sample_len(i).to_le_bytes())
            .map_err(io_err)?;
    }
    let (mut offsets, mut targets) = (Vec::new(), Vec::new());
    for i in 0..theta {
        pool.sample_csr_into(i, &mut offsets, &mut targets);
        binfmt::write_u32s(&mut payload, &offsets).map_err(io_err)?;
        binfmt::write_u32s(&mut payload, &targets).map_err(io_err)?;
    }
    let checksum = payload.sum.value();
    let payload_bytes = payload.written;
    let mut writer = payload.inner;
    writer.write_all(&checksum.to_le_bytes()).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Ok(SnapshotSummary {
        bytes_written: HEADER_BYTES + payload_bytes + 8,
        theta,
        graph_fingerprint: fingerprint,
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
    let header_bytes = read_header_bytes(&mut file, path)?;
    let (mut header, label_len) = decode_header(&header_bytes)?;
    let mut label = vec![0u8; label_len as usize];
    read_exact_sized(&mut file, &mut label, path)?;
    header.label = String::from_utf8_lossy(&label).into_owned();
    Ok(header)
}

/// Reads the fixed 64-byte header. A file too short to hold one is
/// reported as [`SnapshotError::BadMagic`] when even its leading bytes are
/// not the magic (it is not a snapshot at all), and as
/// [`SnapshotError::Truncated`] when they are.
fn read_header_bytes(
    file: &mut File,
    path: &Path,
) -> std::result::Result<[u8; HEADER_BYTES as usize], SnapshotError> {
    let mut buf = [0u8; HEADER_BYTES as usize];
    let mut filled = 0usize;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(SnapshotError::Io(err)),
        }
    }
    if filled < buf.len() {
        let probe = filled.min(MAGIC.len());
        if buf[..probe] != MAGIC[..probe] {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated {
            expected: HEADER_BYTES,
            actual: std::fs::metadata(path)
                .map(|m| m.len())
                .unwrap_or(filled as u64),
        });
    }
    Ok(buf)
}

/// `read_exact` with EOF reported as [`SnapshotError::Truncated`] carrying
/// the actual file size.
fn read_exact_sized(
    file: &mut File,
    buf: &mut [u8],
    path: &Path,
) -> std::result::Result<(), SnapshotError> {
    file.read_exact(buf).map_err(|err| {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                expected: buf.len() as u64,
                actual: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            }
        } else {
            SnapshotError::Io(err)
        }
    })
}

fn corrupt(reason: String) -> IminError {
    IminError::Snapshot(SnapshotError::Corrupt { reason })
}

/// Reads and cross-checks the label + graph sections shared by both
/// versions, returning the graph.
fn read_graph_section<R: Read>(
    payload: &mut R,
    header: &mut SnapshotHeader,
    label_len: u64,
) -> Result<DiGraph> {
    let mut label = vec![0u8; label_len as usize];
    payload
        .read_exact(&mut label)
        .map_err(SnapshotError::from)?;
    header.label = String::from_utf8_lossy(&label).into_owned();
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

fn check_exact_len(file_len: u64, exact: u128) -> Result<()> {
    if u128::from(file_len) != exact {
        return Err(SnapshotError::Truncated {
            expected: exact.min(u64::MAX as u128) as u64,
            actual: file_len,
        }
        .into());
    }
    Ok(())
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
    let mut file = File::open(path).map_err(SnapshotError::Io)?;
    let file_len = file.metadata().map_err(SnapshotError::Io)?.len();

    let header_bytes = read_header_bytes(&mut file, path)?;
    let (mut header, label_len) = decode_header(&header_bytes)?;
    let (n, m, theta) = (
        header.num_vertices as usize,
        header.num_edges as usize,
        header.theta as usize,
    );

    // Every section length below derives from the header; reject files that
    // cannot possibly hold them before allocating anything.
    let min_len = min_file_size(
        header.version,
        header.num_vertices,
        header.num_edges,
        header.theta,
        label_len,
    );
    if (file_len as u128) < min_len {
        return Err(SnapshotError::Truncated {
            expected: min_len.min(u64::MAX as u128) as u64,
            actual: file_len,
        }
        .into());
    }

    // Restore phases feed the observability span (restores are rare, so
    // the two clock reads are always taken); `IMIN_SNAPSHOT_TRACE` prints
    // the same breakdown to stderr for quick command-line diagnosis.
    let trace = std::env::var_os("IMIN_SNAPSHOT_TRACE").is_some();
    let (mut read_ns, mut validate_ns) = (0u64, 0u64);
    let mut mark = std::time::Instant::now();
    let mut payload = ChecksumReader::new(&mut file);
    let graph = read_graph_section(&mut payload, &mut header, label_len)?;
    let prefix = common_prefix_size(header.num_vertices, header.num_edges, label_len);

    let arena = if header.version == 1 {
        load_v1_pool_section(&mut payload, &graph, theta, file_len, prefix)?
    } else {
        load_v2_pool_section(&mut payload, &graph, theta, file_len, prefix)?
    };
    crate::pool::lap_instant(&mut mark, &mut read_ns);
    if let Err((i, reason)) = arena.validate_all() {
        return Err(corrupt(format!("sample {i}: {reason}")));
    }

    let computed = payload.sum.value();
    let mut trailer = [0u8; 8];
    read_exact_sized(&mut file, &mut trailer, path)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed }.into());
    }
    crate::pool::lap_instant(&mut mark, &mut validate_ns);
    imin_obs::span::add_ns(imin_obs::Phase::SnapRead, read_ns);
    imin_obs::span::add_ns(imin_obs::Phase::SnapValidate, validate_ns);
    if trace {
        imin_obs::trace_line(
            "snapshot",
            &format!(
                "read {:.3}s validate {:.3}s ({} bytes, v{})",
                read_ns as f64 / 1e9,
                validate_ns as f64 / 1e9,
                file_len,
                header.version
            ),
        );
    }

    let pool = SamplePool::from_arena(n, m, header.pool_seed, arena);
    Ok(RestoredSnapshot {
        graph,
        pool,
        label: header.label.clone(),
        header,
    })
}

/// Reads a legacy v1 pool section (per-sample CSR arrays) into a
/// consolidated raw arena.
fn load_v1_pool_section<R: Read>(
    payload: &mut ChecksumReader<R>,
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

/// Reads a v2 pool section (either arena kind) into heap arenas.
fn load_v2_pool_section<R: Read>(
    payload: &mut ChecksumReader<R>,
    graph: &DiGraph,
    theta: usize,
    file_len: u64,
    prefix: u128,
) -> Result<PoolArena> {
    let n = graph.num_vertices();
    let m = graph.num_edges() as u64;
    let mut section = [0u8; 8];
    payload
        .read_exact(&mut section)
        .map_err(SnapshotError::from)?;
    let kind = u32::from_le_bytes(section[0..4].try_into().expect("4-byte kind"));
    let reserved = u32::from_le_bytes(section[4..8].try_into().expect("4-byte reserved"));
    if reserved != 0 {
        return Err(corrupt(format!(
            "reserved pool-section field is {reserved}, expected 0"
        )));
    }
    match kind {
        SECTION_RAW => {
            let stride = n + 1;
            let target_start = read_u64s(payload, theta + 1)?;
            check_target_start(&target_start, m)?;
            let total = target_start[theta];
            let tables_end = prefix + 8 + (theta as u128 + 1) * 8;
            let pad1 = pad_len(tables_end.min(u64::MAX as u128) as u64) as u128;
            let offsets_bytes = theta as u128 * stride as u128 * 4;
            let targets_at = tables_end + pad1 + offsets_bytes;
            let pad2 = pad_len(targets_at.min(u64::MAX as u128) as u64) as u128;
            let exact = targets_at + pad2 + total as u128 * 4 + 8;
            check_exact_len(file_len, exact)?;
            payload.skip_pad()?;
            let offsets = read_u32s(payload, theta * stride)?;
            payload.skip_pad()?;
            let targets = read_u32s(payload, total as usize)?;
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
        SECTION_COMPRESSED => {
            let lens = read_u64s(payload, theta)?;
            let mut modes = vec![0u8; theta];
            payload
                .read_exact(&mut modes)
                .map_err(SnapshotError::from)?;
            let starts = read_u64s(payload, theta + 1)?;
            check_compressed_directory(&lens, &modes, &starts, m)?;
            let data_len = starts[theta];
            let data_at = prefix + 8 + theta as u128 * 17 + 8;
            let pad = pad_len(data_at.min(u64::MAX as u128) as u64) as u128;
            let exact = data_at + pad + data_len as u128 + 8;
            check_exact_len(file_len, exact)?;
            payload.skip_pad()?;
            let data = read_bytes(payload, data_len as usize)?;
            let (gr_offsets, gr_targets) = graph_csr_copy(graph);
            Ok(PoolArena::compressed(
                n,
                theta,
                CompressedArena {
                    lens,
                    modes,
                    starts,
                    data: Blob::Owned(data),
                    gr_offsets,
                    gr_targets,
                },
            ))
        }
        other => Err(corrupt(format!("unknown pool-section arena kind {other}"))),
    }
}

/// Bounds-checked slice of the mapped file.
fn take(bytes: &[u8], at: usize, len: usize) -> std::result::Result<&[u8], SnapshotError> {
    let end = at.checked_add(len).ok_or(SnapshotError::Truncated {
        expected: u64::MAX,
        actual: bytes.len() as u64,
    })?;
    if end > bytes.len() {
        return Err(SnapshotError::Truncated {
            expected: end as u64,
            actual: bytes.len() as u64,
        });
    }
    Ok(&bytes[at..end])
}

fn decode_u64_table(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
        .collect()
}

/// Opens the version-2 snapshot at `path` as a **memory-mapped** pool: the
/// graph and directory tables are deserialised eagerly (with the same
/// header, fingerprint and exact-size validation as [`load_snapshot`]), but
/// the bulk arrays stay in the mapping and are served zero-copy, so the
/// restore cost is independent of pool size.
///
/// The payload checksum is **not** verified — hashing the payload would
/// fault in every page, which is exactly what mapping avoids. Instead every
/// sample is structurally validated on its first use; a corrupt sample
/// raises a diagnostic panic that the serving layer converts to a typed
/// internal error. Callers must keep the file unmodified while the pool is
/// alive.
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
    let mut mark = std::time::Instant::now();
    let map = Arc::new(Mmap::map_file(path).map_err(SnapshotError::Io)?);
    crate::pool::lap_instant(&mut mark, &mut map_ns);
    let bytes = map.bytes();
    let file_len = bytes.len() as u64;
    if bytes.len() < HEADER_BYTES as usize {
        let probe = bytes.len().min(MAGIC.len());
        if bytes[..probe] != MAGIC[..probe] {
            return Err(SnapshotError::BadMagic.into());
        }
        return Err(SnapshotError::Truncated {
            expected: HEADER_BYTES,
            actual: file_len,
        }
        .into());
    }
    let header_bytes: [u8; HEADER_BYTES as usize] = bytes[..HEADER_BYTES as usize]
        .try_into()
        .expect("64 header bytes");
    let (mut header, label_len) = decode_header(&header_bytes)?;
    if header.version < 2 {
        return Err(corrupt(format!(
            "version-{} snapshots have no page-aligned sections and cannot be memory-mapped; \
             use the bulk loader",
            header.version
        )));
    }
    let (n, m, theta) = (
        header.num_vertices as usize,
        header.num_edges,
        header.theta as usize,
    );
    let min_len = min_file_size(
        header.version,
        header.num_vertices,
        header.num_edges,
        header.theta,
        label_len,
    );
    if (file_len as u128) < min_len {
        return Err(SnapshotError::Truncated {
            expected: min_len.min(u64::MAX as u128) as u64,
            actual: file_len,
        }
        .into());
    }

    // Label + graph: parsed out of the mapping through the ordinary binary
    // reader (the graph is tiny next to the pool; its derived arrays have
    // to be rebuilt on the heap anyway).
    let label_bytes = take(bytes, HEADER_BYTES as usize, label_len as usize)?;
    header.label = String::from_utf8_lossy(label_bytes).into_owned();
    let graph_at = HEADER_BYTES as usize + label_len as usize;
    let mut cursor = &bytes[graph_at..];
    let before = cursor.len();
    let graph = DiGraph::read_binary(&mut cursor).map_err(|err| match err {
        imin_graph::GraphError::Io(io) => IminError::Snapshot(SnapshotError::from(io)),
        other => corrupt(other.to_string()),
    })?;
    let graph_size = before - cursor.len();
    if graph.num_vertices() != n || graph.num_edges() as u64 != m {
        return Err(corrupt(format!(
            "graph section is {}v/{}e but the header says {n}v/{m}e",
            graph.num_vertices(),
            graph.num_edges()
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

    let mut at = graph_at + graph_size;
    let section = take(bytes, at, 8)?;
    let kind = u32::from_le_bytes(section[0..4].try_into().expect("4-byte kind"));
    let reserved = u32::from_le_bytes(section[4..8].try_into().expect("4-byte reserved"));
    if reserved != 0 {
        return Err(corrupt(format!(
            "reserved pool-section field is {reserved}, expected 0"
        )));
    }
    at += 8;
    let arena = match kind {
        SECTION_RAW => {
            let stride = n + 1;
            let target_start = decode_u64_table(take(bytes, at, (theta + 1) * 8)?);
            at += (theta + 1) * 8;
            check_target_start(&target_start, m)?;
            let total = target_start[theta];
            at += pad_len(at as u64);
            let offsets_at = at;
            let offsets_bytes = theta as u128 * stride as u128 * 4;
            let targets_at_u128 = offsets_at as u128 + offsets_bytes;
            let pad2 = pad_len(targets_at_u128.min(u64::MAX as u128) as u64) as u128;
            let exact = targets_at_u128 + pad2 + total as u128 * 4 + 8;
            check_exact_len(file_len, exact)?;
            let targets_at = (targets_at_u128 + pad2) as usize;
            PoolArena::raw(
                n,
                theta,
                RawArena {
                    stride,
                    target_start,
                    offsets: Words::Mapped {
                        map: map.clone(),
                        start: offsets_at,
                        len: theta * stride,
                    },
                    targets: Words::Mapped {
                        map: map.clone(),
                        start: targets_at,
                        len: total as usize,
                    },
                },
            )
        }
        SECTION_COMPRESSED => {
            let lens = decode_u64_table(take(bytes, at, theta * 8)?);
            at += theta * 8;
            let modes = take(bytes, at, theta)?.to_vec();
            at += theta;
            let starts = decode_u64_table(take(bytes, at, (theta + 1) * 8)?);
            at += (theta + 1) * 8;
            check_compressed_directory(&lens, &modes, &starts, m)?;
            let data_len = starts[theta];
            at += pad_len(at as u64);
            let exact = at as u128 + data_len as u128 + 8;
            check_exact_len(file_len, exact)?;
            let (gr_offsets, gr_targets) = graph_csr_copy(&graph);
            PoolArena::compressed(
                n,
                theta,
                CompressedArena {
                    lens,
                    modes,
                    starts,
                    data: Blob::Mapped {
                        map: map.clone(),
                        start: at,
                        len: data_len as usize,
                    },
                    gr_offsets,
                    gr_targets,
                },
            )
        }
        other => return Err(corrupt(format!("unknown pool-section arena kind {other}"))),
    };
    // Header decode, graph parse, fingerprint and directory checks: the
    // eager part of a mapped restore (per-sample validation is lazy).
    crate::pool::lap_instant(&mut mark, &mut validate_ns);
    imin_obs::span::add_ns(imin_obs::Phase::SnapMap, map_ns);
    imin_obs::span::add_ns(imin_obs::Phase::SnapValidate, validate_ns);
    if std::env::var_os("IMIN_SNAPSHOT_TRACE").is_some() {
        imin_obs::trace_line(
            "snapshot",
            &format!(
                "map {:.3}s validate {:.3}s ({} bytes, v{}, lazy samples)",
                map_ns as f64 / 1e9,
                validate_ns as f64 / 1e9,
                file_len,
                header.version
            ),
        );
    }
    let pool = SamplePool::from_arena(
        n,
        graph.num_edges(),
        header.pool_seed,
        arena.with_lazy_validation(),
    );
    Ok(RestoredSnapshot {
        graph,
        pool,
        label: header.label.clone(),
        header,
    })
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
