//! End-to-end observability checks:
//!
//! * **Byte identity** — blocker and edge selections of every
//!   intervention family are identical with tracing on, tracing off
//!   (`--no-obs`), and on a serial 1-thread engine, over both raw and
//!   compressed arenas. Observability must never change an answer.
//! * **Trace accounting** — on a single-query-thread engine, a traced
//!   query's phase times sum to within 10% of its reported elapsed time
//!   for every intervention family (wall clock == CPU time only when one
//!   thread computes).
//! * **Wire format** — `QUERY … trace=1` replies carry `trace_id=`,
//!   `disposition=` and all eight query-phase keys; `METRICS` over real
//!   TCP parses as Prometheus exposition; a snapshot restore records the
//!   snapshot phases and a forward pool build or extension the pool
//!   phases; the access log emits one well-formed line per request.

use imin_core::Intervention;
use imin_engine::{AccessLog, AlgorithmKind, Client, LogFormat, Query, Server, SharedEngine};
use imin_graph::{generators, DiGraph, VertexId};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn wc_graph(n: usize, seed: u64) -> DiGraph {
    imin_diffusion::ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
        .unwrap()
}

fn query(seed: usize, budget: usize) -> Query {
    Query {
        seeds: vec![VertexId::new(seed)],
        budget,
        algorithm: AlgorithmKind::AdvancedGreedy,
        intervention: Intervention::BlockVertices,
    }
}

#[test]
fn blocker_selections_are_byte_identical_with_observability_on_and_off() {
    let graph = wc_graph(600, 13);

    let serial = SharedEngine::new().with_threads(1);
    serial.load_graph(graph.clone(), "parity".into());
    serial.ensure_pool(400, 5).unwrap();

    let on = SharedEngine::new().with_threads(1);
    on.load_graph(graph.clone(), "parity".into());
    on.ensure_pool(400, 5).unwrap();

    let off = SharedEngine::new()
        .with_threads(1)
        .with_observability(false);
    off.load_graph(graph.clone(), "parity".into());
    off.ensure_pool(400, 5).unwrap();

    // Raw arena first, then the compressed re-encoding of the same pool.
    for arena in ["raw", "compressed"] {
        if arena == "compressed" {
            serial.compress_pool().unwrap();
            on.compress_pool().unwrap();
            off.compress_pool().unwrap();
        }
        let edge = Intervention::BlockEdges;
        let prebunk = Intervention::Prebunk { alpha: 0.2 };
        for (seed, budget, algorithm, intervention) in [
            (
                0,
                3,
                AlgorithmKind::AdvancedGreedy,
                Intervention::BlockVertices,
            ),
            (
                7,
                2,
                AlgorithmKind::GreedyReplace,
                Intervention::BlockVertices,
            ),
            (
                23,
                4,
                AlgorithmKind::AdvancedGreedy,
                Intervention::BlockVertices,
            ),
            (0, 3, AlgorithmKind::AdvancedGreedy, edge),
            (7, 2, AlgorithmKind::GreedyReplace, edge),
            (0, 3, AlgorithmKind::AdvancedGreedy, prebunk),
            (7, 2, AlgorithmKind::GreedyReplace, prebunk),
        ] {
            let q = Query {
                seeds: vec![VertexId::new(seed)],
                budget,
                algorithm,
                intervention,
            };
            let expect = serial.query(&q).unwrap();
            let traced = on.query(&q).unwrap();
            let untraced = off.query(&q).unwrap();
            assert_eq!(
                traced.blockers, expect.blockers,
                "{arena} {intervention}: tracing must not change the answer"
            );
            assert_eq!(
                untraced.blockers, expect.blockers,
                "{arena} {intervention}: --no-obs must not change the answer"
            );
            assert_eq!(traced.blocked_edges, expect.blocked_edges);
            assert_eq!(untraced.blocked_edges, expect.blocked_edges);
            assert_eq!(traced.estimated_spread, expect.estimated_spread);
            assert_eq!(untraced.estimated_spread, expect.estimated_spread);
        }
    }
}

#[test]
fn traced_phase_times_sum_close_to_the_reported_elapsed_time() {
    // One query thread: the phase laps accumulate on the same wall clock
    // the elapsed time is measured on, so the sum must track it closely.
    // A heavy query keeps the fixed per-query overhead (locking, reply
    // formatting) far below the 10% band. Every intervention family runs
    // the same phased estimator kernel, so the band holds for each.
    let engine = SharedEngine::new().with_threads(1).with_query_threads(1);
    engine.load_graph(wc_graph(2000, 17), "sum-check".into());
    engine.ensure_pool(1500, 5).unwrap();

    for intervention in [
        Intervention::BlockVertices,
        Intervention::BlockEdges,
        Intervention::Prebunk { alpha: 0.2 },
    ] {
        let result = engine
            .query(&Query {
                intervention,
                ..query(1, 4)
            })
            .unwrap();
        let phases = result.phases.expect("observability is on by default");
        let total = phases.total_us() as f64;
        let elapsed = result.elapsed.as_micros() as f64;
        assert!(
            total >= 0.9 * elapsed && total <= 1.1 * elapsed,
            "{intervention}: phase sum {total}µs must be within 10% of elapsed {elapsed}µs"
        );
        assert!(result.trace_id > 0, "computed queries get a trace id");
    }
}

#[test]
fn trace_replies_and_metrics_work_over_real_tcp() {
    let server = Server::with_shared(
        "127.0.0.1:0",
        SharedEngine::new().with_threads(1).with_query_threads(1),
    )
    .expect("bind");
    let addr = server.spawn().expect("spawn");
    let mut client = Client::connect(addr).expect("connect");

    assert!(client
        .send_raw("LOAD pa n=400 m0=3 seed=7 model=wc")
        .unwrap()
        .starts_with("OK"));
    assert!(client.send_raw("POOL 300 5").unwrap().starts_with("OK"));

    // trace=1: the reply grows trace_id / disposition / phases fields.
    let reply = client
        .send_raw("QUERY ic seeds=1 budget=2 alg=advanced trace=1")
        .unwrap();
    assert!(reply.starts_with("OK blockers="), "{reply}");
    assert!(reply.contains(" trace_id="), "{reply}");
    assert!(reply.contains(" disposition=computed"), "{reply}");
    for key in [
        "clone:", "probe:", "sample:", "decode:", "bfs:", "domtree:", "credit:", "select:",
    ] {
        assert!(reply.contains(key), "missing phase '{key}' in {reply}");
    }
    // The realisations the kernel rebuilt: the first pass rebuilds all θ,
    // the second only those the first pick can change.
    let field = |key: &str| -> usize {
        let value = imin_engine::protocol::payload_field(&reply, key);
        value
            .unwrap_or_else(|| panic!("no {key}= in {reply}"))
            .parse()
            .unwrap()
    };
    let (recomputed, samples) = (field("recomputed"), field("samples"));
    assert!(
        (300..=samples).contains(&recomputed),
        "recomputed={recomputed} must lie in [θ, samples={samples}]"
    );
    // Every rebuild after the untreated first pass replays its record.
    assert_eq!(
        field("replayed"),
        recomputed - 300,
        "replayed= is recomputed= minus θ: {reply}"
    );

    // The identical query again: a cache hit, still carrying the original
    // computation's phase breakdown.
    let reply = client
        .send_raw("QUERY ic seeds=1 budget=2 alg=advanced trace=1")
        .unwrap();
    assert!(reply.contains(" disposition=cache_hit"), "{reply}");
    assert!(reply.contains(" phases=clone:"), "{reply}");

    // An untraced query must not leak trace fields.
    let reply = client
        .send_raw("QUERY ic seeds=2 budget=2 alg=advanced")
        .unwrap();
    assert!(!reply.contains("trace_id="), "{reply}");
    assert!(!reply.contains("recomputed="), "{reply}");
    assert!(!reply.contains("replayed="), "{reply}");

    // METRICS over the wire: framed as OK lines=<n>, parses as exposition.
    let body = client.metrics().expect("metrics");
    assert!(
        body.contains("# TYPE imin_request_duration_seconds histogram"),
        "{body}"
    );
    assert!(
        body.contains("imin_request_duration_seconds_count{verb=\"query\"} 3"),
        "three queries must show in the verb histogram: {body}"
    );
    assert!(body.contains("imin_queries_total 3"), "{body}");
    assert!(
        body.contains("# TYPE imin_realisations_recomputed_total counter"),
        "{body}"
    );
    let counted = body
        .lines()
        .find_map(|l| l.strip_prefix("imin_realisations_recomputed_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("recomputed counter sample");
    assert!(
        (600..=1200).contains(&counted),
        "two computed budget-2 queries on θ=300 rebuild between 2θ and 4θ: {counted}"
    );
    assert!(
        body.contains("# TYPE imin_realisations_replayed_total counter"),
        "{body}"
    );
    let replayed = body
        .lines()
        .find_map(|l| l.strip_prefix("imin_realisations_replayed_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("replayed counter sample");
    assert_eq!(
        replayed,
        counted - 600,
        "two computed queries replay all but their first passes' 2θ: {counted}"
    );
    assert!(
        body.contains("imin_algorithm_compute_seconds_count{algorithm=\"advanced\"} 2"),
        "{body}"
    );
    // The connection still speaks the line protocol after the multi-line
    // reply — framing must not desynchronise it.
    client.ping().expect("ping after METRICS");
}

#[test]
fn sketch_queries_record_their_phases_without_a_registry_restart() {
    // One engine, no restarts: the rsample/cover histograms must appear in
    // the exposition as soon as a sketch-backend query runs, because the
    // phase registry is sized statically from the Phase enum.
    let engine = SharedEngine::new().with_threads(1).with_query_threads(1);
    engine.load_graph(wc_graph(400, 21), "sketch-obs".into());

    // Before any sketch activity the phase series exist (count 0) — the
    // family is static, not lazily registered.
    let before = engine.metrics_text();
    for phase in ["rsample", "cover"] {
        let needle = format!("imin_query_phase_seconds_count{{phase=\"{phase}\"}} 0");
        assert!(before.contains(&needle), "missing '{needle}' in exposition");
    }

    engine.ensure_sketch_pool(300, 9).unwrap();
    let result = engine
        .query(&Query {
            seeds: vec![VertexId::new(1)],
            budget: 3,
            algorithm: AlgorithmKind::RisGreedy,
            intervention: Intervention::BlockVertices,
        })
        .unwrap();
    let phases = result.phases.expect("observability is on by default");
    assert!(
        phases.get(imin_engine::Phase::Cover) > 0,
        "the cover phase must have been lapped: {phases:?}"
    );

    let text = engine.metrics_text();
    for phase in ["cover", "select"] {
        let needle = format!("imin_query_phase_seconds_count{{phase=\"{phase}\"}} 1");
        assert!(text.contains(&needle), "missing '{needle}' in exposition");
    }
    assert!(
        text.contains("imin_algorithm_compute_seconds_count{algorithm=\"ris-greedy\"} 1"),
        "{text}"
    );
    assert!(text.contains("imin_sketch_builds_total 1"), "{text}");
    assert!(text.contains("imin_sketch_theta 300"), "{text}");
    assert!(text.contains("imin_sketch_bytes"), "{text}");

    // The whole document stays well-formed Prometheus text format: every
    // line is a comment or `name[{labels}] value`, every sample's family
    // was announced by a preceding # TYPE, and histogram bucket counts are
    // cumulative (monotone non-decreasing, ending at +Inf == _count).
    let mut announced = std::collections::HashSet::new();
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(typed) = rest.strip_prefix("TYPE ") {
                let family = typed.split_whitespace().next().unwrap();
                announced.insert(family.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .expect("sample lines are 'series value'");
        let name = series.split('{').next().unwrap();
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_count")
            .trim_end_matches("_sum");
        assert!(
            announced.contains(family) || announced.contains(name),
            "sample '{name}' has no preceding # TYPE line"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample value in '{line}'"
        );
        if name.ends_with("_bucket") {
            let count: u64 = value.parse().expect("bucket counts are integers");
            let key = series.split("le=").next().unwrap().to_string();
            if let Some((prev_key, prev)) = &last_bucket {
                if *prev_key == key {
                    assert!(count >= *prev, "non-monotone buckets at '{line}'");
                }
            }
            last_bucket = Some((key, count));
        } else {
            last_bucket = None;
        }
    }
}

#[test]
fn snapshot_restore_records_the_snapshot_phases() {
    let engine = SharedEngine::new().with_threads(1);
    engine.load_graph(wc_graph(300, 19), "snap".into());
    engine.ensure_pool(200, 5).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("imin-obs-restore-{}.iminsnap", std::process::id()));
    engine.save_snapshot(&path).unwrap();

    let fresh = SharedEngine::new().with_threads(1);
    fresh.restore_snapshot(&path).unwrap();
    let text = fresh.metrics_text();
    let _ = std::fs::remove_file(&path);
    for phase in ["snap_read", "snap_validate"] {
        let needle = format!("imin_snapshot_phase_seconds_count{{phase=\"{phase}\"}} 1");
        assert!(text.contains(&needle), "missing '{needle}' in exposition");
    }
    assert!(text.contains("imin_snapshot_restores_total 1"), "{text}");
}

#[test]
fn pool_builds_and_extensions_record_the_pool_phases() {
    let engine = SharedEngine::new().with_threads(2);
    engine.load_graph(wc_graph(300, 19), "pool".into());
    let counts = |engine: &SharedEngine| {
        let text = engine.metrics_text();
        ["sample", "assemble"].map(|phase| {
            let needle = format!("imin_pool_phase_seconds_count{{phase=\"{phase}\"}} ");
            let line = text
                .lines()
                .find(|line| line.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing '{needle}' in exposition"));
            line[needle.len()..].parse::<u64>().unwrap()
        })
    };
    assert_eq!(counts(&engine), [0, 0]);
    engine.ensure_pool(200, 5).unwrap(); // built
    assert_eq!(counts(&engine), [1, 1]);
    engine.ensure_pool(200, 5).unwrap(); // resident: nothing sampled
    assert_eq!(counts(&engine), [1, 1]);
    engine.ensure_pool(260, 5).unwrap(); // extended
    assert_eq!(counts(&engine), [2, 2]);
    engine.ensure_sketch_pool(500, 5).unwrap(); // the sketch backend has no pool phases
    assert_eq!(counts(&engine), [2, 2]);
    engine.set_observability(false);
    engine.ensure_pool(200, 6).unwrap(); // built, untraced
    assert_eq!(counts(&engine), [2, 2]);
}

/// A `Write` sink the test can read back: the access log writes through
/// the Arc, the assertions read the captured bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_access_log_emits_one_structured_line_per_request() {
    let sink = SharedBuf::default();
    let server = Server::with_shared(
        "127.0.0.1:0",
        SharedEngine::new().with_threads(1).with_query_threads(1),
    )
    .expect("bind")
    // slow_ms=0: every request is "slow", so query lines carry phases.
    .with_access_log(AccessLog::to_writer(
        LogFormat::Json,
        0,
        Box::new(sink.clone()),
    ));
    let addr = server.spawn().expect("spawn");
    let mut client = Client::connect(addr).expect("connect");

    assert!(client
        .send_raw("LOAD pa n=300 m0=3 seed=7 model=wc")
        .unwrap()
        .starts_with("OK"));
    assert!(client.send_raw("POOL 200 5").unwrap().starts_with("OK"));
    assert!(client
        .send_raw("QUERY ic seeds=1 budget=2 alg=advanced")
        .unwrap()
        .starts_with("OK"));
    assert!(client.send_raw("NONSENSE").unwrap().starts_with("ERR"));
    drop(client);

    // The log line is written before the reply, so four replies received
    // implies four lines captured.
    let captured = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = captured.lines().collect();
    assert_eq!(lines.len(), 4, "one line per request:\n{captured}");
    assert!(
        lines[0].contains("\"verb\":\"LOAD\"") && lines[0].contains("\"ok\":true"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"verb\":\"POOL\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"verb\":\"QUERY\"")
            && lines[2].contains("\"disposition\":\"computed\"")
            && lines[2].contains("\"trace_id\":1")
            && lines[2].contains("\"phases\":{"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"verb\":\"NONSENSE\"") && lines[3].contains("\"ok\":false"),
        "{}",
        lines[3]
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"ts_ms\":") && line.ends_with('}'),
            "JSON shape: {line}"
        );
    }
}
