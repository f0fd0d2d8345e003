//! Snapshot round-trips, every documented failure path, and the
//! `extend_to` bit-identity contract: a pool grown 1k→10k must be
//! indistinguishable — arena bytes and blocker selections at any thread
//! count — from a pool freshly built at θ = 10k.

use imin_core::pool::{
    pooled_advanced_greedy_in, pooled_decrease, pooled_greedy_replace_in, PoolWorkspace,
};
use imin_core::snapshot::{
    load_snapshot, map_snapshot, peek_header, pool_digest, save_snapshot, save_snapshot_v1,
    SnapshotError, FORMAT_VERSION,
};
use imin_core::{ArenaKind, IminError, RestoredSnapshot, SamplePool};
use imin_diffusion::ProbabilityModel;
use imin_graph::{generators, DiGraph, VertexId};
use std::path::{Path, PathBuf};

fn wc_pa(n: usize, seed: u64) -> DiGraph {
    ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
        .unwrap()
}

/// Unique temp path per test; best-effort cleanup on drop.
struct TempSnap(PathBuf);

impl TempSnap {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-snapshot-test-{}-{tag}.iminsnap",
            std::process::id()
        ));
        TempSnap(path)
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn saved_snapshot(tag: &str) -> (DiGraph, SamplePool, TempSnap) {
    let graph = wc_pa(150, 7);
    let pool = SamplePool::build_with_threads(&graph, 40, 99, 2).unwrap();
    let tmp = TempSnap::new(tag);
    save_snapshot(&tmp.0, &graph, &pool, "pa-150/wc").unwrap();
    (graph, pool, tmp)
}

#[test]
fn round_trip_restores_graph_and_pool_bit_for_bit() {
    let (graph, pool, tmp) = saved_snapshot("roundtrip");
    let restored = load_snapshot(&tmp.0).unwrap();

    assert_eq!(restored.label, "pa-150/wc");
    assert_eq!(restored.header.version, FORMAT_VERSION);
    assert_eq!(restored.header.pool_seed, 99);
    assert_eq!(restored.graph.fingerprint(), graph.fingerprint());
    assert!(restored.graph.validate().is_ok());

    assert_eq!(restored.pool.theta(), pool.theta());
    assert_eq!(restored.pool.pool_seed(), pool.pool_seed());
    for i in 0..pool.theta() {
        assert_eq!(
            restored.pool.sample_csr(i),
            pool.sample_csr(i),
            "sample {i}"
        );
    }
    assert_eq!(pool_digest(&restored.pool), pool_digest(&pool));

    // The restored pair answers queries exactly like the original.
    let seeds = [VertexId::new(0), VertexId::new(3)];
    let before = pooled_advanced_greedy_in(
        &pool,
        &seeds,
        &vec![false; graph.num_vertices()],
        4,
        1,
        &mut PoolWorkspace::new(),
    )
    .unwrap();
    let after = pooled_advanced_greedy_in(
        &restored.pool,
        &seeds,
        &vec![false; restored.graph.num_vertices()],
        4,
        1,
        &mut PoolWorkspace::new(),
    )
    .unwrap();
    assert_eq!(before.blockers, after.blockers);
    assert_eq!(before.estimated_spread, after.estimated_spread);
}

#[test]
fn peek_header_reads_provenance_without_the_arenas() {
    let (graph, pool, tmp) = saved_snapshot("peek");
    let header = peek_header(&tmp.0).unwrap();
    assert_eq!(header.theta, pool.theta() as u64);
    assert_eq!(header.pool_seed, 99);
    assert_eq!(header.num_vertices, graph.num_vertices() as u64);
    assert_eq!(header.num_edges, graph.num_edges() as u64);
    assert_eq!(header.graph_fingerprint, graph.fingerprint());
    assert_eq!(header.label, "pa-150/wc");
}

#[test]
fn save_rejects_a_pool_graph_mismatch() {
    let graph = wc_pa(150, 7);
    let pool = SamplePool::build(&graph, 8, 1).unwrap();
    let other = wc_pa(60, 7);
    let tmp = TempSnap::new("mismatch");
    assert!(matches!(
        save_snapshot(&tmp.0, &other, &pool, "x"),
        Err(IminError::PoolGraphMismatch { .. })
    ));
}

type Reader = fn(&Path) -> imin_core::Result<RestoredSnapshot>;

/// Writes `bytes` to a temp file and requires every reader to refuse it
/// with a snapshot error that passes `check`.
fn expect_err_from(
    readers: &[(&str, Reader)],
    bytes: Vec<u8>,
    tag: &str,
    check: impl Fn(&SnapshotError) -> bool,
    what: &str,
) {
    let tmp = TempSnap::new(tag);
    std::fs::write(&tmp.0, bytes).unwrap();
    for (name, read) in readers {
        match read(&tmp.0) {
            Err(IminError::Snapshot(err)) => {
                assert!(
                    check(&err),
                    "{what} ({name}): unexpected snapshot error {err:?}"
                )
            }
            other => panic!("{what} ({name}): expected a snapshot error, got {other:?}"),
        }
    }
}

/// A defect in the header, graph section or directory: both readers must
/// refuse it with the same typed error.
fn expect_snapshot_err(
    bytes: Vec<u8>,
    tag: &str,
    check: impl Fn(&SnapshotError) -> bool,
    what: &str,
) {
    let readers: [(&str, Reader); 2] = [("load", load_snapshot), ("map", map_snapshot)];
    expect_err_from(&readers, bytes, tag, check, what);
}

/// A checksum or per-sample defect: only the bulk loader checks these up
/// front; the map path defers them to first touch by design
/// (`mapped_corruption_panics_with_a_diagnostic_on_first_touch`).
fn expect_load_err(bytes: Vec<u8>, tag: &str, check: impl Fn(&SnapshotError) -> bool, what: &str) {
    expect_err_from(&[("load", load_snapshot)], bytes, tag, check, what);
}

#[test]
fn missing_files_surface_as_io_errors() {
    let tmp = TempSnap::new("missing");
    match load_snapshot(&tmp.0) {
        Err(IminError::Snapshot(SnapshotError::Io(err))) => {
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound)
        }
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let (_, _, tmp) = saved_snapshot("magic-src");
    let mut bytes = std::fs::read(&tmp.0).unwrap();
    bytes[0] ^= 0xFF;
    expect_snapshot_err(
        bytes,
        "magic",
        |e| matches!(e, SnapshotError::BadMagic),
        "flipped magic byte",
    );
    // A file that is not a snapshot at all.
    expect_snapshot_err(
        b"hello, world -- definitely not a snapshot".to_vec(),
        "not-a-snapshot",
        |e| matches!(e, SnapshotError::BadMagic),
        "arbitrary file",
    );
}

#[test]
fn version_mismatch_is_rejected() {
    let (_, _, tmp) = saved_snapshot("version-src");
    let mut bytes = std::fs::read(&tmp.0).unwrap();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    expect_snapshot_err(
        bytes,
        "version",
        |e| {
            matches!(
                e,
                SnapshotError::UnsupportedVersion { found, supported }
                    if *found == FORMAT_VERSION + 1 && *supported == FORMAT_VERSION
            )
        },
        "bumped version field",
    );
}

#[test]
fn truncation_at_every_region_is_detected() {
    let (_, _, tmp) = saved_snapshot("trunc-src");
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Empty, mid-header, mid-graph-section, mid-arena, and a chopped
    // trailer.
    for cut in [0, 10, 63, 200, bytes.len() / 2, bytes.len() - 3] {
        expect_snapshot_err(
            bytes[..cut].to_vec(),
            &format!("trunc-{cut}"),
            |e| matches!(e, SnapshotError::Truncated { .. }),
            &format!("truncated at {cut}"),
        );
    }
    // Trailing garbage is rejected just as loudly.
    let mut padded = bytes;
    padded.extend_from_slice(b"junk");
    expect_snapshot_err(
        padded,
        "padded",
        |e| matches!(e, SnapshotError::Truncated { .. }),
        "trailing garbage",
    );
}

#[test]
fn payload_corruption_fails_the_checksum() {
    let (_, _, tmp) = saved_snapshot("checksum-src");
    let bytes = std::fs::read(&tmp.0).unwrap();
    // Flip one bit deep inside the pool arenas (well past header + graph).
    let mut corrupt = bytes.clone();
    let at = bytes.len() - 64;
    corrupt[at] ^= 0x01;
    expect_load_err(
        corrupt,
        "checksum",
        |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
        "flipped arena bit",
    );
    // Corrupting the stored trailer itself is the same defect.
    let mut corrupt = bytes;
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x80;
    expect_load_err(
        corrupt,
        "trailer",
        |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
        "flipped trailer bit",
    );
}

#[test]
fn fingerprint_mismatch_is_detected() {
    let (_, _, tmp) = saved_snapshot("fingerprint-src");
    let mut bytes = std::fs::read(&tmp.0).unwrap();
    // Lie about the fingerprint in the header; the graph section itself is
    // intact, so this must surface as the dedicated mismatch error.
    bytes[16] ^= 0xFF;
    expect_snapshot_err(
        bytes,
        "fingerprint",
        |e| matches!(e, SnapshotError::FingerprintMismatch { .. }),
        "patched header fingerprint",
    );
}

/// Re-seals a patched snapshot: recomputes the payload checksum and writes
/// it into the trailer, so the corruption reaches the structural checks
/// instead of being caught by the checksum.
fn reseal(bytes: &mut [u8]) {
    let payload_end = bytes.len() - 8;
    let checksum = imin_core::snapshot::payload_checksum(&bytes[64..payload_end]);
    bytes[payload_end..].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn checksum_valid_but_malformed_arenas_are_typed_errors_not_panics() {
    let (graph, pool, tmp) = saved_snapshot("forged");
    let bytes = std::fs::read(&tmp.0).unwrap();
    let n = graph.num_vertices();
    // Compute where the last sample's final target lives: 4 bytes before
    // the 8-byte trailer.
    let last_target_at = bytes.len() - 8 - 4;
    let mut forged = bytes.clone();
    forged[last_target_at..last_target_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    reseal(&mut forged);
    expect_load_err(
        forged,
        "forged-target",
        |e| matches!(e, SnapshotError::Corrupt { .. }),
        "out-of-range live-edge target with a valid checksum",
    );

    // Break the first sample's offset array (non-monotone / wrong span):
    // it starts right after header + label + graph section + lens table.
    let label_len = 9; // "pa-150/wc"
    let graph_bytes = 16 + (n as u64 + 1) * 8 + graph.num_edges() as u64 * 12;
    let offsets_at = (64 + label_len + graph_bytes + pool.theta() as u64 * 8) as usize;
    let mut forged = bytes;
    forged[offsets_at..offsets_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut forged);
    expect_load_err(
        forged,
        "forged-offsets",
        |e| matches!(e, SnapshotError::Corrupt { .. }),
        "broken offset array with a valid checksum",
    );
}

#[test]
fn zero_theta_headers_are_corrupt() {
    let (_, _, tmp) = saved_snapshot("theta-src");
    let mut bytes = std::fs::read(&tmp.0).unwrap();
    bytes[32..40].copy_from_slice(&0u64.to_le_bytes());
    expect_snapshot_err(
        bytes,
        "theta",
        |e| matches!(e, SnapshotError::Corrupt { .. }),
        "zeroed theta",
    );
}

// ---------------------------------------------------------------------------
// Format v2: compressed sections, v1 backward compatibility, mmap restore
// ---------------------------------------------------------------------------

#[test]
fn v1_snapshots_remain_readable() {
    let graph = wc_pa(150, 7);
    let pool = SamplePool::build_with_threads(&graph, 40, 99, 2).unwrap();
    let tmp = TempSnap::new("v1-compat");
    save_snapshot_v1(&tmp.0, &graph, &pool, "pa-150/wc").unwrap();
    assert_eq!(peek_header(&tmp.0).unwrap().version, 1);
    let restored = load_snapshot(&tmp.0).unwrap();
    assert_eq!(restored.header.version, 1);
    assert_eq!(restored.pool.arena_kind(), ArenaKind::Raw);
    assert_eq!(pool_digest(&restored.pool), pool_digest(&pool));
    for i in 0..pool.theta() {
        assert_eq!(
            restored.pool.sample_csr(i),
            pool.sample_csr(i),
            "sample {i}"
        );
    }
}

#[test]
fn compressed_pools_round_trip_through_v2_snapshots() {
    let graph = wc_pa(150, 7);
    let raw = SamplePool::build_with_threads(&graph, 40, 99, 2).unwrap();
    let pool = raw.compress(&graph, 2).unwrap();
    assert_eq!(pool.arena_kind(), ArenaKind::Compressed);
    let tmp = TempSnap::new("v2-compressed");
    save_snapshot(&tmp.0, &graph, &pool, "pa-150/wc").unwrap();
    let restored = load_snapshot(&tmp.0).unwrap();
    assert_eq!(restored.pool.arena_kind(), ArenaKind::Compressed);
    // The compressed round trip decodes to the same realisations as the raw
    // pool it came from.
    assert_eq!(pool_digest(&restored.pool), pool_digest(&raw));
    for i in 0..raw.theta() {
        assert_eq!(restored.pool.sample_csr(i), raw.sample_csr(i), "sample {i}");
    }
}

#[test]
fn mapped_snapshots_serve_byte_identical_queries() {
    let graph = wc_pa(150, 7);
    let raw = SamplePool::build_with_threads(&graph, 40, 99, 2).unwrap();
    let compressed = raw.compress(&graph, 1).unwrap();
    let seeds = [VertexId::new(0), VertexId::new(3)];
    let forbidden = vec![false; graph.num_vertices()];
    let mut ws = PoolWorkspace::new();
    let reference = pooled_advanced_greedy_in(&raw, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
    let gr_ref = pooled_greedy_replace_in(&raw, &graph, &seeds, &forbidden, 4, 1, &mut ws).unwrap();
    for (tag, pool, kind) in [
        ("map-raw", &raw, ArenaKind::MappedRaw),
        ("map-compressed", &compressed, ArenaKind::MappedCompressed),
    ] {
        let tmp = TempSnap::new(tag);
        save_snapshot(&tmp.0, &graph, pool, "pa-150/wc").unwrap();
        let restored = map_snapshot(&tmp.0).unwrap();
        assert_eq!(restored.pool.arena_kind(), kind, "{tag}");
        assert_eq!(pool_digest(&restored.pool), pool_digest(&raw), "{tag}");
        for threads in [1usize, 2, 8] {
            let sel =
                pooled_advanced_greedy_in(&restored.pool, &seeds, &forbidden, 4, threads, &mut ws)
                    .unwrap();
            assert_eq!(sel.blockers, reference.blockers, "{tag} threads={threads}");
            assert_eq!(sel.estimated_spread, reference.estimated_spread);
            // Every GreedyReplace phase reads the mapped arena too.
            let (mapped, g) = (&restored.pool, &restored.graph);
            let gr = pooled_greedy_replace_in(mapped, g, &seeds, &forbidden, 4, threads, &mut ws)
                .unwrap();
            assert_eq!(gr.blockers, gr_ref.blockers, "GR {tag} threads={threads}");
            assert_eq!(gr.estimated_spread, gr_ref.estimated_spread);
        }
        // Saving the mapped pool over the file it is served from replaces
        // the file by rename: the mapped pages stay valid, so the pool
        // still answers, and the new file maps to the same realisations.
        save_snapshot(&tmp.0, &restored.graph, &restored.pool, "pa-150/wc").unwrap();
        let sel =
            pooled_advanced_greedy_in(&restored.pool, &seeds, &forbidden, 4, 2, &mut ws).unwrap();
        assert_eq!(sel.blockers, reference.blockers, "{tag} after SAVE");
        assert_eq!(sel.estimated_spread, reference.estimated_spread);
        let remapped = map_snapshot(&tmp.0).unwrap();
        assert_eq!(remapped.pool.arena_kind(), kind, "{tag} remapped");
        assert_eq!(
            pool_digest(&remapped.pool),
            pool_digest(&raw),
            "{tag} remapped"
        );
    }
}

#[test]
fn map_snapshot_rejects_truncated_and_legacy_files() {
    let (graph, pool, tmp) = saved_snapshot("map-trunc-src");
    let bytes = std::fs::read(&tmp.0).unwrap();
    for cut in [10, 70, bytes.len() / 2, bytes.len() - 3] {
        let t = TempSnap::new(&format!("map-trunc-{cut}"));
        std::fs::write(&t.0, &bytes[..cut]).unwrap();
        match map_snapshot(&t.0) {
            Err(IminError::Snapshot(SnapshotError::Truncated { .. })) => {}
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    // Version-1 files have no page-aligned sections; mapping must refuse
    // with a pointer at the bulk loader rather than serving garbage.
    let t = TempSnap::new("map-v1");
    save_snapshot_v1(&t.0, &graph, &pool, "x").unwrap();
    match map_snapshot(&t.0) {
        Err(IminError::Snapshot(SnapshotError::Corrupt { reason })) => assert!(
            reason.contains("memory-mapped"),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected Corrupt for a mapped v1 file, got {other:?}"),
    }
}

/// Byte offset of the compressed section's lens table: header + label +
/// graph section + the 8-byte pool-section header.
fn compressed_lens_at(graph: &DiGraph, label_len: u64) -> usize {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    (64 + label_len + 16 + (n + 1) * 8 + m * 12 + 8) as usize
}

#[test]
fn corrupt_compressed_directories_are_typed_errors_not_panics() {
    let graph = wc_pa(150, 7);
    let pool = SamplePool::build_with_threads(&graph, 40, 99, 2)
        .unwrap()
        .compress(&graph, 1)
        .unwrap();
    let tmp = TempSnap::new("compressed-forge-src");
    save_snapshot(&tmp.0, &graph, &pool, "pa-150/wc").unwrap();
    let bytes = std::fs::read(&tmp.0).unwrap();
    let lens_at = compressed_lens_at(&graph, 9);

    // A lens entry that disagrees with its blob fails sample validation.
    let mut forged = bytes.clone();
    let lens0 = u64::from_le_bytes(forged[lens_at..lens_at + 8].try_into().unwrap());
    forged[lens_at..lens_at + 8].copy_from_slice(&(lens0 + 1).to_le_bytes());
    reseal(&mut forged);
    expect_load_err(
        forged,
        "compressed-lens",
        |e| matches!(e, SnapshotError::Corrupt { .. }),
        "inflated lens entry with a valid checksum",
    );

    // An unknown mode tag dies in the directory check.
    let modes_at = lens_at + pool.theta() * 8;
    let mut forged = bytes.clone();
    forged[modes_at] = 7;
    reseal(&mut forged);
    expect_snapshot_err(
        forged,
        "compressed-mode",
        |e| matches!(e, SnapshotError::Corrupt { .. }),
        "invalid mode tag with a valid checksum",
    );

    // Truncation inside the blob region is length-checked before any decode.
    expect_snapshot_err(
        bytes[..bytes.len() - 64].to_vec(),
        "compressed-trunc",
        |e| matches!(e, SnapshotError::Truncated { .. }),
        "truncated blob region",
    );
}

#[test]
fn mapped_corruption_panics_with_a_diagnostic_on_first_touch() {
    let graph = wc_pa(150, 7);
    let pool = SamplePool::build_with_threads(&graph, 40, 99, 2)
        .unwrap()
        .compress(&graph, 1)
        .unwrap();
    let tmp = TempSnap::new("map-lazy-src");
    save_snapshot(&tmp.0, &graph, &pool, "pa-150/wc").unwrap();
    let mut forged = std::fs::read(&tmp.0).unwrap();
    // Inflate sample 0's directory count. The map path skips the payload
    // checksum (hashing would fault in the whole file), so the mapping
    // succeeds and the defect must surface on first touch of the sample.
    let lens_at = compressed_lens_at(&graph, 9);
    let lens0 = u64::from_le_bytes(forged[lens_at..lens_at + 8].try_into().unwrap());
    forged[lens_at..lens_at + 8].copy_from_slice(&(lens0 + 1).to_le_bytes());
    let t = TempSnap::new("map-lazy");
    std::fs::write(&t.0, &forged).unwrap();
    let restored = map_snapshot(&t.0).unwrap();
    let err =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| restored.pool.sample_csr(0)))
            .unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("corrupt") && msg.contains("sample 0"),
        "diagnostic panic, got: {msg}"
    );
}

// ---------------------------------------------------------------------------
// extend_to: 1k → 10k bit-identity at scale
// ---------------------------------------------------------------------------

#[test]
fn extend_1k_to_10k_is_bit_identical_to_a_fresh_build() {
    let graph = wc_pa(150, 11);
    let n = graph.num_vertices();
    let fresh = SamplePool::build_with_threads(&graph, 10_000, 42, 4).unwrap();
    let mut grown = SamplePool::build_with_threads(&graph, 1_000, 42, 2).unwrap();
    assert_eq!(grown.extend_to(&graph, 10_000, 8).unwrap(), 9_000);

    // Arena bytes: every offset and every target of every realisation.
    assert_eq!(pool_digest(&grown), pool_digest(&fresh));
    for i in (0..10_000).step_by(97) {
        assert_eq!(grown.sample_csr(i), fresh.sample_csr(i), "sample {i}");
    }

    // Identical blocker selections at 1/2/8 threads, and identical
    // candidate estimates.
    let seeds = [VertexId::new(0)];
    let forbidden = vec![false; n];
    let mut ws = PoolWorkspace::new();
    let reference = pooled_advanced_greedy_in(&fresh, &seeds, &forbidden, 3, 1, &mut ws).unwrap();
    for threads in [1usize, 2, 8] {
        let sel =
            pooled_advanced_greedy_in(&grown, &seeds, &forbidden, 3, threads, &mut ws).unwrap();
        assert_eq!(sel.blockers, reference.blockers, "threads={threads}");
        assert_eq!(sel.estimated_spread, reference.estimated_spread);
    }
    let est_fresh = pooled_decrease(&fresh, &seeds, &forbidden, 2).unwrap();
    let est_grown = pooled_decrease(&grown, &seeds, &forbidden, 8).unwrap();
    assert_eq!(est_fresh.delta, est_grown.delta);
    assert_eq!(est_fresh.average_reached, est_grown.average_reached);
}

#[test]
fn snapshots_of_extended_pools_equal_snapshots_of_fresh_pools() {
    let graph = wc_pa(80, 5);
    let fresh = SamplePool::build(&graph, 30, 3).unwrap();
    let mut grown = SamplePool::build(&graph, 10, 3).unwrap();
    grown.extend_to(&graph, 30, 2).unwrap();
    let tmp_a = TempSnap::new("fresh-pool");
    let tmp_b = TempSnap::new("grown-pool");
    save_snapshot(&tmp_a.0, &graph, &fresh, "g").unwrap();
    save_snapshot(&tmp_b.0, &graph, &grown, "g").unwrap();
    assert_eq!(
        std::fs::read(&tmp_a.0).unwrap(),
        std::fs::read(&tmp_b.0).unwrap(),
        "whole snapshot files are byte-identical"
    );
}
