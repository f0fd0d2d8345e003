//! Protocol fuzzing: 10 000 seeded-random hostile request lines — raw
//! bytes (including invalid UTF-8), printable garbage, truncated verbs,
//! numeric overflows, oversized fields and single-byte mutations of valid
//! lines — through the same [`answer_line`] state machine the TCP server
//! loops over. Every input must produce exactly one well-formed reply line
//! and leave the connection (and the engine) alive: no panic, no hang, no
//! dropped connection, no poisoned lock. Over real TCP, invalid UTF-8 and
//! a line past the server's length cap get the same treatment.
//!
//! The generators are seeded, so a failure reproduces identically on every
//! machine and every run.

use imin_engine::server::MAX_REQUEST_LINE;
use imin_engine::{answer_line, Client, Server, SharedEngine};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Valid lines the mutation and truncation generators start from. `QUIT`
/// is deliberately absent: it is the one verb allowed to close the
/// connection, which would make the "never quits" assertion conditional.
/// The snapshot verbs point inside `dir` so that the occasional mutant
/// whose `SAVE` actually succeeds cannot litter the filesystem.
fn templates(dir: &std::path::Path) -> Vec<String> {
    let snap = dir.join("fuzz.iminsnap").display().to_string();
    vec![
        "PING".into(),
        "STATS".into(),
        "LOAD pa n=120 m0=3 seed=7 model=wc".into(),
        "LOAD er n=90 p=0.05 seed=3 model=const:0.1".into(),
        "POOL 200 5".into(),
        "QUERY ic seeds=0,5 budget=3 alg=advanced".into(),
        "QUERY ic seeds=1 budget=2 alg=replace".into(),
        "QUERY ic seeds=0 budget=2 alg=advanced intervene=edge".into(),
        "QUERY ic seeds=0 budget=2 alg=replace intervene=prebunk:0.25".into(),
        format!("SAVE {snap}"),
        format!("RESTORE {snap}"),
    ]
}

/// A scratch directory deleted (with everything mutants wrote into it)
/// when the test ends.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("imin-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts the universal contract: one reply line, `OK `/`ERR ` prefixed,
/// no embedded newline, and the connection stays open.
fn assert_well_formed(input: &str, reply: &str, quit: bool) {
    assert!(
        reply.starts_with("OK") || reply.starts_with("ERR"),
        "unprefixed reply for {input:?}: {reply:?}"
    );
    assert!(
        !reply.contains('\n'),
        "multi-line reply for {input:?}: {reply:?}"
    );
    assert!(!quit, "input {input:?} must not close the connection");
}

#[test]
fn ten_thousand_hostile_lines_never_panic_or_drop_the_connection() {
    let engine = SharedEngine::new().with_threads(1);
    let scratch = TempDir::new();
    let templates = templates(&scratch.0);
    let mut rng = SmallRng::seed_from_u64(0xF022_6D15_BEEF);
    let mut fuzzed = 0usize;

    // 4 000 raw byte strings, run through the same lossy conversion the
    // server applies to socket bytes. Random bytes essentially always
    // contain invalid UTF-8 or unparseable tokens → always ERR.
    for _ in 0..4_000 {
        let len = rng.gen_range(0usize..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let line = String::from_utf8_lossy(&bytes);
        let line = line.trim_end_matches(['\n', '\r']);
        // A multi-line blob arrives as separate requests over TCP; fuzz the
        // first segment like the reader would.
        let line = line.split('\n').next().unwrap_or("");
        let (reply, quit) = answer_line(line, &engine);
        assert_well_formed(line, &reply, quit);
        assert!(
            reply.starts_with("ERR"),
            "garbage parsed?! {line:?} → {reply}"
        );
        fuzzed += 1;
    }

    // 2 000 printable-ASCII garbage lines.
    for _ in 0..2_000 {
        let len = rng.gen_range(1usize..120);
        let line: String = (0..len)
            .map(|_| char::from(rng.gen_range(0x20u8..0x7F)))
            .collect();
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        assert!(
            reply.starts_with("ERR"),
            "garbage parsed?! {line:?} → {reply}"
        );
        fuzzed += 1;
    }

    // 2 000 truncated verbs: a valid line cut strictly short.
    for _ in 0..2_000 {
        let template = templates.choose(&mut rng).expect("templates nonempty");
        let cut = rng.gen_range(0usize..template.len());
        let line = &template[..cut];
        let (reply, quit) = answer_line(line, &engine);
        assert_well_formed(line, &reply, quit);
        fuzzed += 1;
    }

    // 1 000 numeric overflows: every number swollen past u64/usize. These
    // must fail in the parser, long before any allocation could happen.
    for _ in 0..1_000 {
        let huge: String = (0..rng.gen_range(25usize..60))
            .map(|_| char::from(rng.gen_range(b'1'..=b'9')))
            .collect();
        let line = match rng.gen_range(0u8..4) {
            0 => format!("POOL {huge} 1"),
            1 => format!("POOL 100 {huge}"),
            2 => format!("LOAD pa n={huge} m0=3 seed=1 model=wc"),
            _ => format!("QUERY ic seeds={huge} budget=1"),
        };
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        assert!(
            reply.starts_with("ERR"),
            "overflow parsed?! {line:?} → {reply}"
        );
        fuzzed += 1;
    }

    // 500 oversized fields: kilobytes of seeds, absurd paths, giant tokens.
    for _ in 0..500 {
        let line = match rng.gen_range(0u8..3) {
            0 => {
                let seeds: Vec<String> = (0..rng.gen_range(500usize..2_000))
                    .map(|_| rng.gen_range(0u32..1_000_000).to_string())
                    .collect();
                format!("QUERY ic seeds={} budget=2", seeds.join(","))
            }
            1 => format!("SAVE /tmp/{}", "x".repeat(rng.gen_range(1_000usize..8_000))),
            _ => format!("LOAD pa n=100 m0=3 seed=1 model={}", "w".repeat(4_000)),
        };
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        fuzzed += 1;
    }

    // 500 single-byte mutations of valid lines. Some mutants stay valid
    // (flipping a digit of `n=120` is still a LOAD) — the contract under
    // test is only "well-formed reply, connection survives".
    for _ in 0..500 {
        let template = templates.choose(&mut rng).expect("templates nonempty");
        let mut bytes = template.as_bytes().to_vec();
        let at = rng.gen_range(0usize..bytes.len());
        bytes[at] = match rng.gen_range(0u8..3) {
            0 => rng.gen_range(0x20u8..0x7F), // random printable
            1 => bytes[at].wrapping_add(1),   // off-by-one byte
            _ => b' ',                        // token splitter
        };
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        fuzzed += 1;
    }

    assert_eq!(fuzzed, 10_000);

    // After all that abuse the engine still serves a clean lifecycle.
    let (reply, _) = answer_line("PING", &engine);
    assert_eq!(reply, "OK pong");
    let (reply, _) = answer_line("STATS", &engine);
    assert!(reply.starts_with("OK"), "{reply}");
}

#[test]
fn malformed_intervene_values_answer_typed_errors_and_never_panic() {
    let engine = SharedEngine::new().with_threads(1);

    // Hand-picked malformed specs: unknown families, out-of-range and
    // non-numeric alphas, missing or doubled separators, empty values.
    for bad in [
        "quantum",
        "vertexx",
        "edge:0.5",
        "prebunk",
        "prebunk:",
        "prebunk:-0.1",
        "prebunk:1.5",
        "prebunk:nan",
        "prebunk:inf",
        "prebunk:0.5:0.5",
        "prebunk:0,5",
        "PREBUNK;1",
        ":",
        "",
    ] {
        let line = format!("QUERY ic seeds=0 budget=1 intervene={bad}");
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        assert!(
            reply.starts_with("ERR") && reply.contains("invalid intervention"),
            "malformed intervene {bad:?} → {reply}"
        );
    }

    // 2 000 seeded-random intervene values: printable garbage and mangled
    // prebunk alphas. Anything that happens to parse must still answer one
    // well-formed line (the engine has no graph, so ERR either way).
    let mut rng = SmallRng::seed_from_u64(0x17E0_73B0_0CAF);
    for _ in 0..2_000 {
        let value: String = (0..rng.gen_range(0usize..24))
            .map(|_| char::from(rng.gen_range(0x21u8..0x7F)))
            .collect();
        let line = format!("QUERY ic seeds=0 budget=1 intervene={value}");
        let (reply, quit) = answer_line(&line, &engine);
        assert_well_formed(&line, &reply, quit);
        assert!(reply.starts_with("ERR"), "{line:?} → {reply}");
    }

    // The engine survives the abuse.
    let (reply, _) = answer_line("PING", &engine);
    assert_eq!(reply, "OK pong");
}

#[test]
fn invalid_utf8_over_tcp_gets_an_err_reply_and_keeps_the_connection() {
    let addr = Server::bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Raw invalid UTF-8 (overlong/stray continuation bytes) plus a NUL.
    writer
        .write_all(b"\xFF\xFE garbage \x80\x00 verbs\n")
        .expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(
        reply.starts_with("ERR"),
        "invalid UTF-8 must answer ERR, got {reply:?}"
    );

    // The connection survived: a normal request still works on it.
    writer.write_all(b"PING\n").expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert_eq!(reply.trim_end(), "OK pong");

    // And the server as a whole is healthy for fresh connections too.
    let mut probe = Client::connect(addr).expect("second connection");
    assert_eq!(probe.send_raw("PING").expect("ping"), "OK pong");
}

#[test]
fn an_oversized_request_line_gets_one_err_and_keeps_the_connection() {
    let addr = Server::bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // One byte past the cap and no newline yet: the reply must not wait
    // for the rest of the line.
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert_eq!(
        reply.trim_end(),
        "ERR request line too long (max 1048576 bytes)"
    );

    // The rest of that line is dropped up to its newline; the next line is
    // a fresh request on the same connection, answered once.
    writer
        .write_all(b"still the same oversized line\nPING\n")
        .expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert_eq!(reply.trim_end(), "OK pong");

    // Other connections never noticed.
    let mut probe = Client::connect(addr).expect("second connection");
    assert_eq!(probe.send_raw("PING").expect("ping"), "OK pong");
}
