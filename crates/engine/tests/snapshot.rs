//! Snapshot protocol round-trips: a "restarted" engine (a fresh
//! `SharedEngine` behind the same `answer_line` state machine the TCP
//! server and `imin-cli local` use) must answer queries byte-identically
//! after `RESTORE`, `POOL` must be idempotent/incremental, and every
//! snapshot failure mode must come back as a one-line `ERR …`, never a
//! panic or a dropped connection.

use imin_engine::protocol::payload_field;
use imin_engine::{answer_line, SharedEngine};
use std::path::PathBuf;

fn engine() -> SharedEngine {
    SharedEngine::new().with_threads(2)
}

fn ok(line: &str, engine: &SharedEngine) -> String {
    let (reply, _) = answer_line(line, engine);
    assert!(reply.starts_with("OK"), "'{line}' failed: {reply}");
    reply
}

fn err(line: &str, engine: &SharedEngine) -> String {
    let (reply, quit) = answer_line(line, engine);
    assert!(reply.starts_with("ERR"), "'{line}' should fail: {reply}");
    assert!(!quit, "errors must not drop the connection");
    reply
}

/// The query-answer fields that must be byte-identical across a
/// save/restart/restore cycle (timings and cache flags naturally differ).
fn answer_fields(reply: &str) -> (String, String) {
    let payload = reply.strip_prefix("OK ").expect("OK reply");
    (
        payload_field(payload, "blockers").expect("blockers field"),
        payload_field(payload, "spread").expect("spread field"),
    )
}

struct TempSnap(PathBuf);

impl TempSnap {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-engine-proto-{}-{tag}.iminsnap",
            std::process::id()
        ));
        TempSnap(path)
    }

    fn arg(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn restore_after_restart_answers_byte_identically() {
    let tmp = TempSnap::new("roundtrip");
    let first = engine();
    ok("LOAD pa n=250 m0=3 seed=7 model=wc", &first);
    let pool_reply = ok("POOL 300 42", &first);
    assert!(pool_reply.contains("source=built"), "{pool_reply}");
    let before = ok("QUERY ic seeds=0,5 budget=3 alg=advanced", &first);
    let save_reply = ok(&format!("SAVE {}", tmp.arg()), &first);
    assert!(save_reply.contains("fingerprint="), "{save_reply}");

    // "Restart": a brand-new engine that has seen nothing but RESTORE.
    let second = engine();
    let restore_reply = ok(&format!("RESTORE {}", tmp.arg()), &second);
    assert!(restore_reply.contains("n=250"), "{restore_reply}");
    assert!(restore_reply.contains("theta=300"), "{restore_reply}");
    let after = ok("QUERY ic seeds=0,5 budget=3 alg=advanced", &second);
    assert!(after.contains("cached=false"), "{after}");
    assert_eq!(
        answer_fields(&before),
        answer_fields(&after),
        "restored engine must answer byte-identically"
    );

    // Provenance is visible, and the restored label survived the file.
    let stats = ok("STATS", &second);
    assert!(stats.contains("pool_source=restored:"), "{stats}");
    assert!(stats.contains("graph=pa(n=250,m0=3,seed=7)/WC"), "{stats}");

    // POOL matching the restored pool is a no-op that keeps the cache…
    let noop = ok("POOL 300 42", &second);
    assert!(noop.contains("source=resident"), "{noop}");
    let cached = ok("QUERY ic seeds=0,5 budget=3 alg=advanced", &second);
    assert!(cached.contains("cached=true"), "{cached}");

    // …and a growing POOL extends in place instead of resampling.
    let grow = ok("POOL 450 42", &second);
    assert!(grow.contains("source=extended"), "{grow}");
    let stats = ok("STATS", &second);
    assert!(stats.contains("pool_source=extended:300"), "{stats}");
    assert!(stats.contains("theta=450"), "{stats}");
}

#[test]
fn extended_pools_answer_like_fresh_pools_over_the_protocol() {
    // Engine A grows 200 → 400; engine B builds 400 directly.
    let a = engine();
    ok("LOAD pa n=200 m0=3 seed=9 model=wc", &a);
    assert!(ok("POOL 200 7", &a).contains("source=built"));
    assert!(ok("POOL 400 7", &a).contains("source=extended"));
    let grown = ok("QUERY ic seeds=1 budget=3 alg=replace", &a);

    let b = engine();
    ok("LOAD pa n=200 m0=3 seed=9 model=wc", &b);
    assert!(ok("POOL 400 7", &b).contains("source=built"));
    let fresh = ok("QUERY ic seeds=1 budget=3 alg=replace", &b);
    assert_eq!(answer_fields(&grown), answer_fields(&fresh));
}

#[test]
fn snapshot_failure_modes_are_one_line_errs() {
    let e = engine();
    // Lifecycle errors first.
    let reply = err("SAVE /tmp/unused.iminsnap", &e);
    assert!(reply.contains("no graph"), "{reply}");
    ok("LOAD pa n=60 m0=2 seed=1 model=wc", &e);
    let reply = err("SAVE /tmp/unused.iminsnap", &e);
    assert!(reply.contains("no sample pool"), "{reply}");

    // Missing file.
    let reply = err("RESTORE /nonexistent/nowhere.iminsnap", &e);
    assert!(
        reply.contains("I/O error") || reply.contains("snapshot"),
        "{reply}"
    );

    // Not a snapshot at all.
    let garbage = TempSnap::new("garbage");
    std::fs::write(&garbage.0, b"this is not a snapshot file").unwrap();
    let reply = err(&format!("RESTORE {}", garbage.arg()), &e);
    assert!(reply.contains("bad magic"), "{reply}");

    // A real snapshot, then truncated / bit-flipped on disk.
    ok("POOL 50 3", &e);
    let snap = TempSnap::new("corrupt");
    ok(&format!("SAVE {}", snap.arg()), &e);
    let bytes = std::fs::read(&snap.0).unwrap();

    std::fs::write(&snap.0, &bytes[..bytes.len() / 2]).unwrap();
    let reply = err(&format!("RESTORE {}", snap.arg()), &e);
    assert!(reply.contains("truncated"), "{reply}");

    // Move one live coin of the last realisation's bitset to a dead slot of
    // the same byte: the popcount holds and any set of live edges is a
    // realisation, so only the payload checksum can tell.
    let mut flipped = bytes.clone();
    let at = (bytes.len() - 40..bytes.len() - 9)
        .find(|&i| bytes[i] != 0 && bytes[i] != 0xFF)
        .expect("a byte with live and dead slots");
    let byte = bytes[at];
    flipped[at] ^= (byte & byte.wrapping_neg()) | (!byte & (!byte).wrapping_neg());
    std::fs::write(&snap.0, &flipped).unwrap();
    let reply = err(&format!("RESTORE {}", snap.arg()), &e);
    assert!(reply.contains("checksum mismatch"), "{reply}");

    let mut wrong_version = bytes.clone();
    wrong_version[8] = 0xEE;
    std::fs::write(&snap.0, &wrong_version).unwrap();
    let reply = err(&format!("RESTORE {}", snap.arg()), &e);
    assert!(
        reply.contains("unsupported snapshot format version"),
        "{reply}"
    );

    let mut wrong_fingerprint = bytes;
    wrong_fingerprint[20] ^= 0xFF;
    std::fs::write(&snap.0, &wrong_fingerprint).unwrap();
    let reply = err(&format!("RESTORE {}", snap.arg()), &e);
    assert!(reply.contains("fingerprint mismatch"), "{reply}");

    // After all that abuse the engine still works and kept its state.
    let reply = ok("STATS", &e);
    assert!(reply.contains("theta=50"), "{reply}");
    assert!(ok("QUERY ic seeds=0 budget=1 alg=advanced", &e).contains("blockers="));
}
