//! Concurrency stress: 32 client threads hammering one TCP server with a
//! mix of identical and distinct queries, checked three ways —
//!
//! 1. **Byte parity**: every `blockers=`/`spread=` answer equals a serial
//!    replay of the same question on a fresh 1-thread [`SharedEngine`]
//!    driven from one thread (the oracle). Concurrent execution must be
//!    invisible in the answers.
//! 2. **Counter consistency**: on a primed engine every valid query is
//!    exactly one of cache-hit / coalesced / computed / rejected, the
//!    in-flight gauge returns to zero, and nothing is rejected under the
//!    default admission budget.
//! 3. **Metrics coherence**: the `METRICS` exposition parses as
//!    well-formed Prometheus text (strict mini-parser below) and its
//!    histogram counts agree with the serving counters — the query-verb
//!    histogram saw every query, each query phase recorded once per
//!    computed leader, and the per-algorithm histograms partition the
//!    computed count.
//! 4. **Liveness**: after the storm the server still answers a clean
//!    lifecycle on a fresh connection — no poisoned lock anywhere.
//!
//! Plus focused tests for the two load-shedding behaviours: guaranteed
//! coalescing of a simultaneous burst, and `ERR busy retry_after_ms=…`
//! once the admission budget is exhausted.

use imin_engine::protocol::{parse_request, payload_field, Request};
use imin_engine::{Client, Server, SharedEngine};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 32;
const QUERIES_PER_CLIENT: usize = 12;
const GRAPH: &str = "LOAD pa n=1500 m0=3 seed=7 model=wc";
const POOL_THETA: usize = 500;
const POOL_SEED: u64 = 5;

/// The deterministic request schedule of one client thread: a mix of one
/// hot query everybody shares, a handful of warm queries shared by a few
/// threads, and cold queries unique to this thread.
fn schedule(thread: usize) -> Vec<String> {
    (0..QUERIES_PER_CLIENT)
        .map(|i| match i % 3 {
            0 => "QUERY ic seeds=1 budget=3 alg=advanced".to_string(),
            1 => format!(
                "QUERY ic seeds={},8 budget=2 alg=advanced",
                10 + (thread % 4) // shared by ~8 threads each
            ),
            _ => format!(
                "QUERY ic seeds={} budget=2 alg=replace",
                100 + thread * QUERIES_PER_CLIENT + i // unique
            ),
        })
        .collect()
}

/// The serial oracle: answers a protocol `QUERY` line on a fresh
/// 1-thread engine primed identically to the server, formatted exactly
/// like the server's reply fields.
fn oracle_answer(engine: &SharedEngine, line: &str) -> (String, String) {
    let Ok(Request::Query { query, .. }) = parse_request(line) else {
        panic!("oracle got a non-query line: {line}");
    };
    let result = engine.query(&query).expect("oracle query");
    let blockers = result
        .blockers
        .iter()
        .map(|b| b.raw().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let spread = result
        .estimated_spread
        .map(|s| format!("{s:.6}"))
        .unwrap_or_else(|| "nan".into());
    (blockers, spread)
}

#[test]
fn thirty_two_clients_answer_byte_identically_to_the_serial_oracle() {
    let server = Server::with_shared(
        "127.0.0.1:0",
        SharedEngine::new().with_threads(1).with_query_threads(1),
    )
    .expect("bind");
    let shared = server.engine();
    let addr = server.spawn().expect("spawn");

    // Prime over the wire, like a real operator would.
    let mut admin = Client::connect(addr).expect("connect admin");
    assert!(admin.send_raw(GRAPH).expect("load").starts_with("OK"));
    assert!(admin
        .send_raw(&format!("POOL {POOL_THETA} {POOL_SEED}"))
        .expect("pool")
        .starts_with("OK"));
    let primed_stats = shared.stats();

    // The storm: every thread records (request, blockers, spread).
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for thread in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect worker");
            barrier.wait();
            let mut answers = Vec::new();
            for line in schedule(thread) {
                let reply = client.send_raw(&line).expect("query reply");
                assert!(reply.starts_with("OK"), "{line} → {reply}");
                let payload = reply.strip_prefix("OK ").unwrap();
                answers.push((
                    line,
                    payload_field(payload, "blockers").expect("blockers field"),
                    payload_field(payload, "spread").expect("spread field"),
                ));
            }
            answers
        }));
    }
    let all_answers: Vec<(String, String, String)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(all_answers.len(), CLIENTS * QUERIES_PER_CLIENT);

    // Serial replay on the 1-thread oracle.
    let oracle = SharedEngine::new().with_threads(1);
    let Ok(Request::Load(_)) = parse_request(GRAPH) else {
        panic!("graph line must parse")
    };
    oracle.load_graph(
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&imin_graph::generators::preferential_attachment(1500, 3, true, 1.0, 7).unwrap())
            .unwrap(),
        "oracle".into(),
    );
    oracle.ensure_pool(POOL_THETA, POOL_SEED).unwrap();
    for (line, blockers, spread) in &all_answers {
        let (expect_blockers, expect_spread) = oracle_answer(&oracle, line);
        assert_eq!(
            (blockers, spread),
            (&expect_blockers, &expect_spread),
            "32-way answer diverged from serial oracle on {line}"
        );
    }

    // Counter identity: every query is exactly one of the four outcomes.
    let stats = shared.stats();
    let queries = stats.queries - primed_stats.queries;
    assert_eq!(queries, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(
        stats.cache_hits + stats.coalesced + stats.computed + stats.rejected,
        queries,
        "hit/coalesced/computed/rejected must partition the queries: {stats:?}"
    );
    assert_eq!(stats.rejected, 0, "default budget must admit 32 clients");
    assert_eq!(stats.inflight, 0, "gauge returns to zero after the storm");
    assert!(
        stats.cache_hits + stats.coalesced > 0,
        "identical queries must share work: {stats:?}"
    );
    // 11 distinct questions exist (1 hot + 4 warm + unique per slot*thread);
    // the pool must have computed each at most once … per cache lifetime.
    assert!(
        stats.computed >= 1 + 4 + (CLIENTS * QUERIES_PER_CLIENT / 3) as u64,
        "every distinct question computes at least once: {stats:?}"
    );

    // Metrics coherence: the exposition is well-formed and its histogram
    // counts agree with the counters scraped above.
    let samples = parse_exposition(&shared.metrics_text());
    assert_eq!(
        metric_value(
            &samples,
            "imin_request_duration_seconds_count",
            &[("verb", "query")]
        ),
        stats.queries as f64,
        "the query-verb histogram must see every query"
    );
    for phase in [
        "clone", "probe", "sample", "decode", "bfs", "domtree", "credit", "select",
    ] {
        assert_eq!(
            metric_value(
                &samples,
                "imin_query_phase_seconds_count",
                &[("phase", phase)]
            ),
            stats.computed as f64,
            "phase '{phase}' must record exactly once per computed leader"
        );
    }
    let per_algorithm: f64 = samples
        .iter()
        .filter(|s| s.name == "imin_algorithm_compute_seconds_count")
        .map(|s| s.value)
        .sum();
    assert_eq!(
        per_algorithm, stats.computed as f64,
        "per-algorithm histograms must partition the computed count"
    );
    assert_eq!(
        metric_value(&samples, "imin_queries_total", &[]),
        stats.queries as f64
    );
    assert_eq!(
        metric_value(&samples, "imin_query_rejected_total", &[]),
        0.0
    );

    // Liveness: a fresh connection runs a clean lifecycle afterwards.
    let mut probe = Client::connect(addr).expect("post-storm connection");
    probe.ping().expect("ping after storm");
    let stats_line = probe.stats().expect("stats after storm");
    assert!(stats_line.contains("inflight=0"), "{stats_line}");
    assert!(probe
        .send_raw("QUERY ic seeds=2 budget=2 alg=advanced")
        .expect("query after storm")
        .starts_with("OK blockers="));
}

#[test]
fn a_simultaneous_burst_of_one_question_coalesces_onto_one_computation() {
    let engine = Arc::new(SharedEngine::new().with_threads(1));
    engine.load_graph(
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&imin_graph::generators::preferential_attachment(800, 3, true, 1.0, 9).unwrap())
            .unwrap(),
        "burst".into(),
    );
    engine.ensure_pool(400, 3).unwrap();

    // Three rounds, each over a *fresh* question (never cached), so every
    // round must coalesce: the barrier releases all threads into query()
    // together and the single-flight map lets exactly one lead.
    for round in 0..3usize {
        let threads = 8usize;
        let before = engine.stats();
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let query = imin_engine::Query {
                    seeds: vec![imin_graph::VertexId::new(20 + round)],
                    budget: 4,
                    algorithm: imin_engine::AlgorithmKind::AdvancedGreedy,
                    intervention: imin_core::Intervention::BlockVertices,
                };
                std::thread::spawn(move || {
                    barrier.wait();
                    engine.query(&query).expect("burst query")
                })
            })
            .collect();
        let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for answer in &answers[1..] {
            assert_eq!(answer.blockers, answers[0].blockers);
            assert_eq!(answer.estimated_spread, answers[0].estimated_spread);
        }
        let after = engine.stats();
        assert_eq!(after.computed - before.computed, 1, "one leader per round");
        assert_eq!(
            (after.cache_hits + after.coalesced) - (before.cache_hits + before.coalesced),
            threads as u64 - 1,
            "everyone else rode along"
        );
    }
}

#[test]
fn exhausted_admission_budget_answers_err_busy_over_the_wire() {
    let server = Server::with_shared(
        "127.0.0.1:0",
        SharedEngine::new()
            .with_threads(1)
            .with_query_threads(1)
            .with_max_inflight(1),
    )
    .expect("bind");
    let shared = server.engine();
    let addr = server.spawn().expect("spawn");

    let mut admin = Client::connect(addr).expect("connect");
    assert!(admin
        .send_raw("LOAD pa n=3000 m0=3 seed=11 model=wc")
        .expect("load")
        .starts_with("OK"));
    assert!(admin
        .send_raw("POOL 2000 1")
        .expect("pool")
        .starts_with("OK"));

    // A deliberately heavy leader occupies the whole budget…
    let leader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("leader connect");
        client
            .send_raw("QUERY ic seeds=0 budget=6 alg=advanced")
            .expect("leader reply")
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while shared.stats().inflight == 0 {
        assert!(Instant::now() < deadline, "leader never started computing");
        std::thread::yield_now();
    }

    // …so a *distinct* query is rejected with the typed busy error.
    let reply = admin
        .send_raw("QUERY ic seeds=7 budget=2 alg=advanced")
        .expect("rejected reply");
    assert!(
        reply.starts_with("ERR busy retry_after_ms="),
        "expected busy rejection, got {reply}"
    );
    let hint: u64 = reply
        .rsplit('=')
        .next()
        .unwrap()
        .parse()
        .expect("numeric retry hint");
    assert!(hint >= 1, "hint must be a usable backoff: {reply}");
    assert_eq!(shared.stats().rejected, 1);

    // The leader finishes fine, the budget frees, the retry succeeds.
    assert!(leader.join().unwrap().starts_with("OK blockers="));
    let retry = admin
        .send_raw("QUERY ic seeds=7 budget=2 alg=advanced")
        .expect("retry reply");
    assert!(retry.starts_with("OK blockers="), "{retry}");
    assert_eq!(shared.stats().inflight, 0);
}

/// One parsed exposition sample: metric name, label pairs, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses one `{…}` label block, honouring quoted values (which may
/// contain commas — graph labels do) and backslash escapes.
fn parse_labels(block: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    loop {
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        assert_eq!(chars.next(), Some('='), "label without '=': {block}");
        assert_eq!(chars.next(), Some('"'), "unquoted label value: {block}");
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => value.push(chars.next().expect("dangling escape")),
                Some('"') => break,
                Some(c) => value.push(c),
                None => panic!("unterminated label value: {block}"),
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => return labels,
            Some(c) => panic!("unexpected '{c}' after a label in {block}"),
        }
    }
}

/// A label-set key that ignores `le`, for grouping histogram buckets into
/// series.
fn series_key(labels: &[(String, String)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    parts.sort();
    parts.join(",")
}

/// A deliberately strict parser for the subset of the Prometheus text
/// format the engine emits. Every line must be a `# HELP`/`# TYPE`
/// comment or a `name[{labels}] value` sample, and every family announced
/// as a histogram must have cumulative non-decreasing buckets whose
/// `+Inf` bucket equals `_count`, plus a `_sum` sample per series.
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "no blank lines in the exposition");
        if let Some(comment) = line.strip_prefix("# ") {
            let mut tokens = comment.splitn(3, ' ');
            match tokens.next().expect("comment keyword") {
                "HELP" => {
                    tokens.next().expect("HELP metric name");
                    assert!(tokens.next().is_some(), "HELP without text: '{line}'");
                }
                "TYPE" => {
                    let name = tokens.next().expect("TYPE metric name").to_string();
                    let kind = tokens.next().expect("TYPE kind").to_string();
                    assert!(
                        matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                        "unknown TYPE '{kind}' in '{line}'"
                    );
                    types.insert(name, kind);
                }
                other => panic!("unknown comment keyword '{other}' in '{line}'"),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without a value: '{line}'"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in '{line}'"));
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let rest = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed label block in '{line}'"));
                (name.to_string(), parse_labels(rest))
            }
            None => (series.to_string(), Vec::new()),
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    for sample in &samples {
        let family = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_sum"))
            .or_else(|| sample.name.strip_suffix("_count"))
            .filter(|family| types.get(*family).is_some_and(|k| k == "histogram"))
            .unwrap_or(&sample.name);
        assert!(
            types.contains_key(family),
            "sample '{}' has no # TYPE announcement",
            sample.name
        );
    }
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let mut series: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
        for sample in samples.iter().filter(|s| s.name == bucket_name) {
            let le = sample
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .unwrap_or_else(|| panic!("{bucket_name} sample without le"));
            let le = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse().expect("numeric le")
            };
            series
                .entry(series_key(&sample.labels))
                .or_default()
                .push((le, sample.value));
        }
        assert!(!series.is_empty(), "histogram {family} has no buckets");
        for (key, mut buckets) in series {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in buckets.windows(2) {
                assert!(
                    pair[1].1 >= pair[0].1,
                    "{family}{{{key}}} buckets must be cumulative"
                );
            }
            let (last_le, inf_count) = *buckets.last().unwrap();
            assert!(last_le.is_infinite(), "{family}{{{key}}} must end at +Inf");
            let count = samples
                .iter()
                .find(|s| s.name == format!("{family}_count") && series_key(&s.labels) == key)
                .unwrap_or_else(|| panic!("{family}{{{key}}} missing _count"));
            assert_eq!(
                inf_count, count.value,
                "{family}{{{key}}}: +Inf bucket must equal _count"
            );
            assert!(
                samples
                    .iter()
                    .any(|s| s.name == format!("{family}_sum") && series_key(&s.labels) == key),
                "{family}{{{key}}} missing _sum"
            );
        }
    }
    samples
}

/// Looks up one sample by name and (a subset of) its labels.
fn metric_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .unwrap_or_else(|| panic!("missing metric {name} {labels:?}"))
        .value
}
