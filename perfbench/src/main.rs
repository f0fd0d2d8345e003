//! `perfbench` — one run of one workload against a fresh `imin-serve`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server <imin-serve binary> --out-dir <dir> [--commit <id>]
//! ```
//!
//! A run sets the server up (three times, on fresh processes, when
//! untraced: `setup_s` is the median; `restart` also restores on nine fresh
//! servers per set-up for `ready_s`), drives the measured window from two
//! client connections in a closed loop, answers the fixed probe questions,
//! reads the server's peak RSS, stops it, and re-solves the probes
//! in-process to check the wire answers byte for byte. With `--trace 1`
//! the window's queries carry `trace=1`, and the run then times each
//! crate's layers in-process. The last stdout line is the result object;
//! the full record (tallies, provenance, span self times) and, when traced,
//! the spans themselves go to `--out-dir`. `perfbench/run.py` builds the
//! binaries and calls this.

mod check;
mod layers;
mod trace;
mod wire;
mod workload;

use check::{check_shape, Answer, Reference};
use imin_obs::PhaseBreakdown;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{field, num_field, Conn, ServerProc, Tally};
use workload::{Stream, Workload, HELD_OUT_SEED, LOAD_LINE};

/// Untraced runs set up this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Fresh servers that restore the snapshot in each `restart` set-up.
const RESTORE_REPS: usize = 9;
/// Client connections driving the window.
const CLIENTS: usize = 2;
/// Round trips sampled for `server.ping_rtt_us` and `server.wire_us`.
const WIRE_SAMPLES: usize = 200;
/// Window requests kept as spans (and counted in the phase means) in a
/// traced run: all of them on every workload but `sketch-hot`.
const MAX_REQUEST_SPANS: usize = 50_000;

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Linear-interpolated quantile of an unsorted, non-empty list.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let mut take = |key: &str| map.remove(key).ok_or(format!("missing --{key}"));
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server: take("server")?.into(),
        out_dir: take("out-dir")?.into(),
        commit: take("commit").unwrap_or_else(|_| "unknown".into()),
    };
    match map.keys().next() {
        Some(extra) => Err(format!("unknown flag --{extra}")),
        None => Ok(args),
    }
}

/// The run's scratch directory (snapshot files), removed however the run
/// ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> std::io::Result<TempDir> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One set-up of a fresh server, ready for the window.
struct SetUp {
    server: ServerProc,
    /// Wall time of every set-up request (plus, for `restart`, both server
    /// starts and stopping server A).
    secs: f64,
    /// Round trip of the request that made the estimator resident: `POOL`,
    /// or `RESTORE … mode=map` on `restart`.
    ready_secs: f64,
}

fn set_up(
    workload: Workload,
    bin: &Path,
    snapshot: &Path,
    tally: &mut Tally,
) -> Result<SetUp, String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    if workload == Workload::Restart {
        let first = ServerProc::start(bin).map_err(io)?;
        let mut conn = Conn::connect(first.addr).map_err(io)?;
        for line in [
            LOAD_LINE.to_string(),
            workload.pool_line(),
            "COMPRESS".to_string(),
            format!("SAVE {}", snapshot.display()),
        ] {
            conn.expect_ok(&line, tally).map_err(io)?;
        }
        drop((conn, first));
        // The set-up ends with the first fresh server's RESTORE; a few more
        // fresh servers restore the same file so `ready_s` is a median.
        let restore = format!("RESTORE {} mode=map", snapshot.display());
        let (mut secs, mut ready) = (0.0, Vec::new());
        let mut server = None;
        for _ in 0..RESTORE_REPS {
            drop(server.take());
            let fresh = ServerProc::start(bin).map_err(io)?;
            let mut conn = Conn::connect(fresh.addr).map_err(io)?;
            let (_, rtt) = conn.expect_ok(&restore, tally).map_err(io)?;
            if ready.is_empty() {
                secs = start.elapsed().as_secs_f64();
            }
            ready.push(rtt.as_secs_f64());
            server = Some(fresh);
        }
        return Ok(SetUp {
            server: server.expect("at least one restore"),
            secs,
            ready_secs: quantile(&ready, 0.5),
        });
    }
    let server = ServerProc::start(bin).map_err(io)?;
    let mut conn = Conn::connect(server.addr).map_err(io)?;
    let start = Instant::now();
    conn.expect_ok(LOAD_LINE, tally).map_err(io)?;
    let (_, ready) = conn.expect_ok(&workload.pool_line(), tally).map_err(io)?;
    Ok(SetUp {
        server,
        secs: start.elapsed().as_secs_f64(),
        ready_secs: ready.as_secs_f64(),
    })
}

/// One answered window request.
struct Sample {
    index: usize,
    start: Instant,
    rtt: Duration,
    /// `phases=` of a computed traced reply, in µs per query phase.
    phases: Option<PhaseBreakdown>,
    rounds: f64,
    samples: f64,
}

/// What one client saw in the window.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
    /// First answer seen per question id (repeating workloads only).
    answers: HashMap<usize, Answer>,
    problems: Vec<String>,
}

fn parse_phases(reply: &str) -> Option<PhaseBreakdown> {
    let mut breakdown = PhaseBreakdown::new();
    for item in field(reply, "phases")?.split(',') {
        let (name, us) = item.split_once(':')?;
        if let Some(&(phase, _)) = layers::PHASES.iter().find(|(p, _)| p.name() == name) {
            breakdown.set(phase, us.parse().ok()?);
        }
    }
    Some(breakdown)
}

fn drive_client(
    stream: &Stream,
    addr: std::net::SocketAddr,
    next: &AtomicUsize,
    deadline: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.problems.push(format!("connect: {e}"));
            return log;
        }
    };
    let repeats = stream.len().is_none();
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if stream.len().is_some_and(|len| index >= len) {
            break;
        }
        let mut line = stream.line(index);
        if trace {
            line.push_str(" trace=1");
        }
        let start = Instant::now();
        let (reply, rtt) = match conn.request(&line, &mut log.tally) {
            Ok(answered) => answered,
            Err(e) => {
                log.problems.push(format!("{line:?}: {e}"));
                break;
            }
        };
        if let Err(problem) = check_shape(&line, reply) {
            log.problems.push(problem);
            continue;
        }
        if repeats {
            let answer = Answer::from_reply(reply).expect("shape-checked reply");
            let first = log
                .answers
                .entry(stream.question_id(index))
                .or_insert_with(|| answer.clone());
            if *first != answer {
                log.problems
                    .push(format!("{line:?} answered {answer:?}, earlier {first:?}"));
            }
        }
        let computed = field(reply, "disposition") == Some("computed");
        log.samples.push(Sample {
            index,
            start,
            rtt,
            phases: if computed { parse_phases(reply) } else { None },
            rounds: num_field(reply, "rounds").unwrap_or(0.0),
            samples: num_field(reply, "samples").unwrap_or(0.0),
        });
    }
    log
}

/// Counters of a `STATS` reply.
fn stats_counter(reply: &str, key: &str) -> f64 {
    num_field(reply, key).unwrap_or(0.0)
}

/// The outcome of one run.
struct Outcome {
    correct: bool,
    tallies: Vec<(&'static str, Tally)>,
    metrics: Metrics,
    provenance: String,
    problems: Vec<String>,
    tracer: Tracer,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let workload = args.workload;
    let stream = Stream::new(workload, args.seed);
    let tmp =
        TempDir::create(args.out_dir.join(format!("tmp-{}", std::process::id()))).map_err(io)?;
    let tmp = tmp.0.as_path();
    let snapshot = tmp.join("restart.iminsnap");
    if snapshot.display().to_string().contains(char::is_whitespace) {
        return Err(format!(
            "snapshot path {} has whitespace",
            snapshot.display()
        ));
    }
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();
    let (mut setup_tally, mut after_tally) = (Tally::default(), Tally::default());

    // ---- set-up -------------------------------------------------------
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setup_secs, mut ready_secs) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let (done, _) = tracer.time("setup", |_| {
            set_up(workload, &args.server, &snapshot, &mut setup_tally)
        });
        let done = done?;
        setup_secs.push(done.secs);
        ready_secs.push(done.ready_secs);
        server = Some(done.server);
    }
    let server = server.expect("at least one set-up");
    let mut conn = Conn::connect(server.addr).map_err(io)?;
    let (stats_before, _) = conn.expect_ok("STATS", &mut after_tally).map_err(io)?;

    // ---- measured window ----------------------------------------------
    let next = AtomicUsize::new(0);
    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs(args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| drive_client(&stream, server.addr, &next, deadline, args.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window_tally = Tally::default();
    let mut samples = Vec::new();
    let mut answers: HashMap<usize, Answer> = HashMap::new();
    for log in logs {
        window_tally.add(&log.tally);
        problems.extend(log.problems);
        samples.extend(log.samples);
        for (id, answer) in log.answers {
            if let Some(other) = answers.insert(id, answer.clone()) {
                if other != answer {
                    problems.push(format!("question {id} answered {answer:?} and {other:?}"));
                }
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("no reply in the window: {problems:?}"));
    }
    let window_end = samples
        .iter()
        .map(|s| s.start + s.rtt)
        .max()
        .expect("non-empty");
    let window_secs = (window_end - window_start).as_secs_f64();
    let latencies: Vec<f64> = samples.iter().map(|s| s.rtt.as_secs_f64() * 1e3).collect();
    let (stats_after, _) = conn.expect_ok("STATS", &mut after_tally).map_err(io)?;

    // ---- probes, wire extras, peak RSS --------------------------------
    let probes = workload.probes();
    let mut probe_answers = Vec::new();
    for line in &probes {
        let (reply, rtt) = conn.request(line, &mut after_tally).map_err(io)?;
        let reply = reply.to_string();
        tracer.record("wire.probe", Instant::now() - rtt, rtt, None, None);
        match check_shape(line, &reply) {
            Ok(()) => probe_answers.push(Answer::from_reply(&reply).expect("shape-checked reply")),
            Err(problem) => problems.push(problem),
        }
    }
    let mut wire = Metrics::default();
    if args.trace {
        let (mut ping, mut hit, mut elapsed) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..WIRE_SAMPLES {
            let (_, rtt) = conn.expect_ok("PING", &mut after_tally).map_err(io)?;
            ping.push(rtt.as_secs_f64() * 1e6);
            let (reply, rtt) = conn.expect_ok(&probes[0], &mut after_tally).map_err(io)?;
            hit.push(rtt.as_secs_f64() * 1e6);
            elapsed.push(num_field(&reply, "elapsed_us").unwrap_or(0.0));
        }
        wire.push("server.ping_rtt_us", layers::median(&ping), "us");
        wire.push(
            "server.wire_us",
            layers::median(&hit) - layers::median(&elapsed),
            "us",
        );
    }
    let rss_mb = server.vm_hwm_kib().map_err(io)? as f64 / 1024.0;
    drop(conn);
    drop(server);

    // ---- in-process reference answers ---------------------------------
    let (reference, _) = tracer.time("check.build", |_| Reference::build(workload, &snapshot));
    let reference = reference?;
    for (line, wire_answer) in probes.iter().zip(&probe_answers) {
        let (expected, _) = tracer.time("check.solve", |_| reference.answer(line));
        match expected {
            Ok(expected) if expected == *wire_answer => {}
            Ok(expected) => problems.push(format!(
                "{line:?}: wire {wire_answer:?}, in-process {expected:?}"
            )),
            Err(e) => problems.push(format!("{line:?}: in-process solve failed: {e}")),
        }
    }
    drop(reference);
    let spreads: Vec<f64> = probe_answers
        .iter()
        .filter_map(|a| a.spread.parse().ok())
        .collect();

    // ---- metrics --------------------------------------------------------
    let mut total = Tally::default();
    for t in [&setup_tally, &window_tally, &after_tally] {
        total.add(t);
    }
    let mut metrics = Metrics::default();
    let (p50, p90) = (quantile(&latencies, 0.5), quantile(&latencies, 0.9));
    if !args.trace {
        metrics.push("setup_s", quantile(&setup_secs, 0.5), "s");
        metrics.push("ready_s", quantile(&ready_secs, 0.5), "s");
        metrics.push("query_p50_ms", p50, "ms");
        metrics.push("query_p90_ms", p90, "ms");
        metrics.push("qps", samples.len() as f64 / window_secs, "1/s");
        metrics.push(
            "answered_frac",
            total.ok as f64 / total.sent as f64,
            "ratio",
        );
        metrics.push(
            "spread_mean",
            spreads.iter().sum::<f64>() / spreads.len().max(1) as f64,
            "vertices",
        );
        metrics.push("rss_peak_mb", rss_mb, "MB");
    } else {
        // Wire requests as spans, server-reported phases as their children.
        let window = tracer.record(
            "window",
            window_start,
            window_end - window_start,
            None,
            None,
        );
        let mut wire_phases = PhaseBreakdown::new();
        let mut computed = 0u64;
        let (mut rounds, mut consulted) = (0.0, 0.0);
        samples.sort_by_key(|s| s.index);
        for s in samples.iter().take(MAX_REQUEST_SPANS) {
            let id = tracer.record("wire.QUERY", s.start, s.rtt, Some(window), Some(s.index));
            if let Some(phases) = &s.phases {
                computed += 1;
                rounds += s.rounds;
                consulted += s.samples;
                // Laid end to end from the request's start; the server sums
                // them across its query threads, so they may overrun it.
                let mut at = s.start;
                for (phase, _) in layers::PHASES {
                    let us = Duration::from_micros(phases.get(phase));
                    wire_phases.add_us(phase, phases.get(phase));
                    if !us.is_zero() {
                        tracer.record(
                            &format!("phase.{}", phase.name()),
                            at,
                            us,
                            Some(id),
                            Some(s.index),
                        );
                        at += us;
                    }
                }
            }
        }
        let (in_process, _) = tracer.time("layers", |t| layers::measure(&stream, t, tmp));
        let (layer_metrics, fallback) = in_process?;
        let delta =
            |key: &str| stats_counter(&stats_after, key) - stats_counter(&stats_before, key);
        for (phase, name) in layers::PHASES {
            let per_query = match wire_phases.get(phase) {
                0 => fallback.get(phase) as f64,
                us => us as f64 / computed as f64,
            };
            metrics.push(name, per_query / 1e3, "ms");
        }
        let computed = computed.max(1) as f64;
        metrics.push("select.rounds", rounds / computed, "count");
        metrics.push("select.samples", consulted / computed, "count");
        metrics.push(
            "engine.hit_ratio",
            delta("cache_hits") / delta("queries").max(1.0),
            "ratio",
        );
        metrics.push("engine.coalesced", delta("coalesced"), "count");
        metrics.push("trace.query_p50_ms", p50, "ms");
        metrics.0.extend(wire.0);
        metrics.0.extend(layer_metrics.0);
    }

    let threads = |key: &str| field(&stats_after, key).unwrap_or("?").to_string();
    let mem_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("MemTotal:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0);
    let provenance = format!(
        "{{\"host_cores\": {}, \"host_mem_mb\": {}, \"commit\": \"{}\", \"graph\": \"{LOAD_LINE}\", \"pool\": \"{}\", \"theta\": {}, \"server_threads\": {}, \"server_query_threads\": {}, \"clients\": {CLIENTS}, \"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"window_replies\": {}, \"replies_beyond_p90\": {}}}",
        imin_diffusion::montecarlo::default_threads(),
        mem_kib / 1024,
        args.commit,
        workload.pool_line(),
        workload.theta(),
        threads("threads"),
        threads("query_threads"),
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        latencies.len(),
        latencies.iter().filter(|&&l| l > p90).count(),
    );
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            problems.push(format!("metric {name} is {value}"));
        }
    }
    Ok(Outcome {
        correct: problems.is_empty() && total.failed() == 0,
        tallies: vec![
            ("setup", setup_tally),
            ("window", window_tally),
            ("after", after_tally),
            ("total", total),
        ],
        metrics,
        provenance,
        problems,
        tracer,
    })
}

fn write_record(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let tallies: Vec<String> = outcome
        .tallies
        .iter()
        .map(|(k, t)| format!("\"{k}\": {}", t.json()))
        .collect();
    let self_times: Vec<String> = outcome
        .tracer
        .self_time_by_name()
        .iter()
        .map(|(name, us)| format!("\"{name}\": {:.1}", us))
        .collect();
    let record = format!(
        "{{\"correct\": {}, \"metrics\": {}, \"requests\": {{{}}}, \"provenance\": {}, \"self_time_us\": {{{}}}, \"problems\": {}}}\n",
        outcome.correct,
        outcome.metrics.json(),
        tallies.join(", "),
        outcome.provenance,
        self_times.join(", "),
        outcome.problems.len(),
    );
    std::fs::write(args.out_dir.join(format!("result-{stem}.json")), record)?;
    if args.trace {
        std::fs::write(
            args.out_dir.join(format!("spans-{stem}.jsonl")),
            outcome.tracer.to_jsonl(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::from(2);
        }
    };
    for problem in outcome.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {problem}");
    }
    if let Err(e) = write_record(&args, &outcome) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    println!("provenance {}", outcome.provenance);
    for (stage, tally) in &outcome.tallies {
        println!("requests {stage:<6} {}", tally.json());
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let total = outcome.tallies.last().expect("total tally").1;
    let metrics = if outcome.correct {
        outcome.metrics.json()
    } else {
        "{}".into()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct,
        total.sent,
        total.failed()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
