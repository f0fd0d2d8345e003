//! Threaded TCP server speaking the line protocol of [`crate::protocol`].
//!
//! One OS thread per connection, all connections sharing one
//! [`SharedEngine`]: queries execute **in parallel** against `Arc`
//! snapshots of the immutable (graph, pool) pair, identical in-flight
//! queries coalesce onto one computation, and the state-transition verbs
//! (`LOAD` / `POOL` / `RESTORE`) remain exclusive — see [`crate::shared`]
//! for the concurrency contract. Every request line gets exactly one reply
//! line; malformed input (including invalid UTF-8) produces `ERR <reason>`
//! and keeps the connection open, and a panicking handler answers
//! `ERR internal: …` on its own connection without disturbing any other.
//! A request line longer than [`MAX_REQUEST_LINE`] bytes answers one
//! `ERR request line too long …` and is dropped up to its newline, so no
//! client can grow server memory without bound.
//!
//! Under overload the server sheds load instead of queueing unboundedly:
//! once `max_inflight` distinct queries are computing, further distinct
//! queries get `ERR busy retry_after_ms=<hint>` (cache hits and coalesced
//! followers are always admitted — they cost no pool work).
//!
//! With [`Server::with_access_log`] every request additionally produces one
//! structured access-log line (text or JSON): verb, outcome, wall-clock
//! latency, disposition and trace id, plus the per-phase breakdown for
//! requests at or above the log's slow-query threshold.

use crate::engine::{PoolBackend, Query};
use crate::protocol::{parse_request, LoadSpec, ModelSpec, Request};
use crate::shared::{panic_message, take_last_observation, SharedEngine};
use imin_diffusion::ProbabilityModel;
use imin_graph::edgelist::{load_edge_list, EdgeListOptions};
use imin_graph::{generators, DiGraph};
use imin_obs::{AccessLog, AccessRecord};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The longest request line the server reads, in bytes before the `\n`.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A bound (but not yet accepting) protocol server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: Arc<SharedEngine>,
    access_log: Option<Arc<AccessLog>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with a fresh
    /// engine.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::with_shared(addr, SharedEngine::new())
    }

    /// Binds to `addr` with a caller-configured concurrent engine.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn with_shared(addr: impl ToSocketAddrs, engine: SharedEngine) -> std::io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine: Arc::new(engine),
            access_log: None,
        })
    }

    /// Attaches a structured access log: one line per request on every
    /// connection (see [`AccessLog`] for the text/JSON schema).
    #[must_use]
    pub fn with_access_log(mut self, log: AccessLog) -> Self {
        self.access_log = Some(Arc::new(log));
        self
    }

    /// The shared engine every connection answers from — benchmarks and
    /// tests use this to read counters or prime state in-process.
    pub fn engine(&self) -> Arc<SharedEngine> {
        Arc::clone(&self.engine)
    }

    /// The address the server is listening on (useful with port 0).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one thread per connection.
    ///
    /// # Errors
    /// Returns only if the listener itself fails.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            // One short reply line per request: Nagle only buys each round
            // trip a delayed-ACK stall (~40ms on Linux loopback).
            let _ = stream.set_nodelay(true);
            let engine = Arc::clone(&self.engine);
            let access_log = self.access_log.clone();
            std::thread::spawn(move || {
                // A vanished client is not a server error.
                let _ = serve_connection(stream, &engine, access_log.as_deref());
            });
        }
        Ok(())
    }

    /// Starts the accept loop on a background thread and returns the bound
    /// address — the in-process form the protocol tests use.
    ///
    /// # Errors
    /// Propagates socket errors from address resolution.
    pub fn spawn(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok(addr)
    }
}

/// Serves one connection: read a line, answer a line, until `QUIT` or EOF.
///
/// Lines are read as **bytes** and converted lossily: a client that sends
/// invalid UTF-8 gets a normal `ERR` reply (the replacement characters
/// never parse as a verb) instead of having its connection dropped
/// mid-session. At most [`MAX_REQUEST_LINE`] + 1 bytes of a line are
/// buffered; a longer line is answered before its newline arrives, then
/// skipped.
fn serve_connection(
    stream: TcpStream,
    engine: &SharedEngine,
    access_log: Option<&AccessLog>,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break; // EOF
        }
        let oversized = buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n');
        if oversized {
            buf.clear(); // not a request: the access log records verb `-`
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim_end_matches(['\n', '\r']);
        // Blank lines still get a reply (`ERR empty request`) — a client
        // that sends one must not be left waiting forever.
        let start = Instant::now();
        let (reply, quit) = if oversized {
            (
                format!("ERR request line too long (max {MAX_REQUEST_LINE} bytes)"),
                false,
            )
        } else {
            answer_line(line, engine)
        };
        if let Some(log) = access_log {
            log_request(log, line, &reply, start.elapsed().as_micros() as u64);
        }
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if oversized {
            skip_line(&mut reader)?;
        }
        if quit {
            break;
        }
    }
    Ok(())
}

/// Drops the rest of the current line, up to and including its newline
/// (or EOF), one buffered chunk at a time.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(end) => {
                reader.consume(end + 1);
                return Ok(());
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

/// Emits one access-log line for a served request. The verb is the first
/// whitespace token of the request line (uppercased, `-` when blank); the
/// engine's thread-local observation supplies disposition, trace id and
/// phase breakdown when the verb produced one.
fn log_request(log: &AccessLog, line: &str, reply: &str, latency_us: u64) {
    let verb = line
        .split_whitespace()
        .next()
        .map(|tok| tok.to_ascii_uppercase())
        .unwrap_or_else(|| "-".into());
    let observation = take_last_observation();
    log.record(&AccessRecord {
        verb: &verb,
        ok: reply.starts_with("OK"),
        latency_us,
        disposition: observation.as_ref().map_or("-", |o| o.disposition),
        trace_id: observation.as_ref().map_or(0, |o| o.trace_id),
        phases: observation.as_ref().and_then(|o| o.phases.as_ref()),
    });
}

/// Produces the reply line for one request line, plus whether the
/// connection should close. This is the whole protocol state machine: the
/// TCP server loops over it from any number of connection threads at once,
/// and `imin-cli local` drives it against an in-process engine without any
/// socket.
///
/// A handler that panics is caught here and answered as
/// `ERR internal: <panic message>`; no engine lock stays poisoned (they
/// all recover via [`std::sync::PoisonError::into_inner`]), so the
/// connection — and every other connection — keeps working.
pub fn answer_line(line: &str, engine: &SharedEngine) -> (String, bool) {
    match parse_request(line) {
        Err(reason) => (format!("ERR {reason}"), false),
        Ok(Request::Quit) => ("OK bye".into(), true),
        Ok(Request::Ping) => ("OK pong".into(), false),
        Ok(request) => {
            let reply = catch_unwind(AssertUnwindSafe(|| execute(request, engine)))
                .unwrap_or_else(|panic| format!("ERR internal: {}", panic_message(&*panic)));
            (reply, false)
        }
    }
}

/// Builds the graph described by a `LOAD` spec.
fn build_graph(spec: &LoadSpec) -> Result<(DiGraph, String), String> {
    let (topology, label, default_p) = match spec {
        LoadSpec::PreferentialAttachment {
            n,
            m0,
            bidirectional,
            seed,
            ..
        } => (
            generators::preferential_attachment(*n, *m0, *bidirectional, 1.0, *seed)
                .map_err(|e| e.to_string())?,
            format!("pa(n={n},m0={m0},seed={seed})"),
            true,
        ),
        LoadSpec::ErdosRenyi { n, p, seed, .. } => (
            generators::erdos_renyi(*n, *p, 1.0, *seed).map_err(|e| e.to_string())?,
            format!("er(n={n},p={p},seed={seed})"),
            true,
        ),
        LoadSpec::File { path, .. } => {
            let loaded =
                load_edge_list(path, &EdgeListOptions::default()).map_err(|e| e.to_string())?;
            (loaded.graph, format!("file({path})"), false)
        }
    };
    let model = match spec {
        LoadSpec::PreferentialAttachment { model, .. }
        | LoadSpec::ErdosRenyi { model, .. }
        | LoadSpec::File { model, .. } => *model,
    };
    let model = match model {
        ModelSpec::WeightedCascade => ProbabilityModel::WeightedCascade,
        ModelSpec::Trivalency { seed } => ProbabilityModel::Trivalency { seed },
        ModelSpec::Constant(p) => ProbabilityModel::Constant(p),
        ModelSpec::Keep => ProbabilityModel::Keep,
    };
    // Generator topologies carry a placeholder probability of 1.0; refuse to
    // silently treat that as a real IC assignment.
    if default_p && model == ProbabilityModel::Keep {
        return Err("generator graphs need an explicit model (wc, tri or const:<p>)".into());
    }
    let graph = model.apply(&topology).map_err(|e| e.to_string())?;
    Ok((graph, format!("{label}/{}", model.label())))
}

/// Executes a state-touching request against the engine.
fn execute(request: Request, engine: &SharedEngine) -> String {
    #[cfg(test)]
    if panic_injected() {
        panic!("injected handler panic");
    }
    match request {
        Request::Load(spec) => match build_graph(&spec) {
            Err(reason) => format!("ERR {reason}"),
            Ok((graph, label)) => {
                let (n, m) = (graph.num_vertices(), graph.num_edges());
                engine.load_graph(graph, label);
                format!("OK n={n} m={m}")
            }
        },
        Request::Pool {
            theta,
            seed,
            backend: PoolBackend::Forward,
        } => match engine.ensure_pool(theta, seed) {
            Err(err) => format!("ERR {err}"),
            Ok((info, action)) => format!(
                "OK theta={} seed={} build_ms={} bytes={} live_edges={} source={} backend=forward",
                info.theta,
                info.seed,
                info.build_time.as_millis(),
                info.memory_bytes,
                info.live_edges,
                action.label()
            ),
        },
        Request::Pool {
            theta,
            seed,
            backend: PoolBackend::Sketch,
        } => match engine.ensure_sketch_pool(theta, seed) {
            Err(err) => format!("ERR {err}"),
            Ok((info, action)) => format!(
                "OK theta={} seed={} build_ms={} bytes={} members={} avg_size={:.2} source={} \
                 backend=sketch",
                info.theta_r,
                info.seed,
                info.build_time.as_millis(),
                info.memory_bytes,
                info.total_members,
                info.avg_sketch_size,
                action.label()
            ),
        },
        Request::Save { path } => match engine.save_snapshot(&path) {
            Err(err) => format!("ERR {err}"),
            Ok(summary) => format!(
                "OK path={path} bytes={} theta={} fingerprint={:016x}",
                summary.bytes_written, summary.theta, summary.graph_fingerprint
            ),
        },
        Request::Restore { path, mode } => match engine.restore_snapshot_with(&path, mode) {
            Err(err) => format!("ERR {err}"),
            Ok(info) => {
                let (theta, seed, bytes, ms) = (
                    info.theta,
                    info.seed,
                    info.memory_bytes,
                    info.build_time.as_millis(),
                );
                let (n, m) = engine
                    .view()
                    .graph
                    .map(|g| (g.num_vertices(), g.num_edges()))
                    .unwrap_or((0, 0));
                format!(
                    "OK n={n} m={m} theta={theta} seed={seed} bytes={bytes} restore_ms={ms} \
                     mode={} arena={}",
                    mode.label(),
                    info.arena.as_str()
                )
            }
        },
        Request::Compress => match engine.compress_pool() {
            Err(err) => format!("ERR {err}"),
            Ok(info) => format!(
                "OK theta={} bytes={} ratio={:.4} arena={} compress_ms={}",
                info.theta,
                info.memory_bytes,
                info.compression_ratio,
                info.arena.as_str(),
                info.build_time.as_millis()
            ),
        },
        Request::Query { query, trace } => run_query(&query, trace, engine),
        Request::Stats => stats_line(engine),
        Request::Metrics => {
            let text = engine.metrics_text();
            let body = text.trim_end_matches('\n');
            format!("OK lines={}\n{body}", body.lines().count())
        }
        // Ping/Quit are handled before the engine is consulted.
        Request::Ping => "OK pong".into(),
        Request::Quit => "OK bye".into(),
    }
}

fn run_query(query: &Query, trace: bool, engine: &SharedEngine) -> String {
    match engine.query(query) {
        Err(err) => format!("ERR {err}"),
        Ok(result) => {
            let blockers = result
                .blockers
                .iter()
                .map(|b| b.raw().to_string())
                .collect::<Vec<_>>()
                .join(",");
            // Edge-mode selections carry their edges in a dedicated field;
            // vertex and prebunk replies stay byte-identical to before the
            // intervention families existed (the field is simply absent).
            let edges = if result.blocked_edges.is_empty() {
                String::new()
            } else {
                let list = result
                    .blocked_edges
                    .iter()
                    .map(|(u, v)| format!("{}-{}", u.raw(), v.raw()))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(" edges={list}")
            };
            let mut reply = format!(
                "OK blockers={blockers}{edges} spread={} cached={} rounds={} samples={} \
                 elapsed_us={}",
                result
                    .estimated_spread
                    .map(|s| format!("{s:.6}"))
                    .unwrap_or_else(|| "nan".into()),
                result.from_cache,
                result.rounds,
                result.samples_consulted,
                result.elapsed.as_micros()
            );
            if trace {
                let phases = result
                    .phases
                    .as_ref()
                    .map(|p| p.render(&imin_obs::QUERY_PHASES))
                    .unwrap_or_else(|| "none".into());
                reply.push_str(&format!(
                    " trace_id={} disposition={} phases={phases} recomputed={}",
                    result.trace_id,
                    result.disposition.as_str(),
                    result.recomputed
                ));
            }
            reply
        }
    }
}

fn stats_line(engine: &SharedEngine) -> String {
    let stats = engine.stats();
    let view = engine.view();
    let (n, m) = view
        .graph
        .as_ref()
        .map(|g| (g.num_vertices(), g.num_edges()))
        .unwrap_or((0, 0));
    let label = if view.graph_label.is_empty() {
        "none".to_string()
    } else {
        view.graph_label.clone()
    };
    let (theta, pool_seed, pool_bytes, pool_source, pool_arena, pool_ratio) = view
        .pool_info
        .as_ref()
        .map(|p| {
            (
                p.theta,
                p.seed,
                p.memory_bytes,
                p.provenance.label(),
                p.arena.as_str(),
                p.compression_ratio,
            )
        })
        .unwrap_or((0, 0, 0, "none".into(), "none", 0.0));
    let (sketch_theta, sketch_seed, sketch_bytes, sketch_members, sketch_source) = view
        .sketch_info
        .as_ref()
        .map(|s| {
            (
                s.theta_r,
                s.seed,
                s.memory_bytes,
                s.total_members,
                s.provenance.label(),
            )
        })
        .unwrap_or((0, 0, 0, 0, "none".into()));
    format!(
        "OK graph={label} n={n} m={m} theta={theta} pool_seed={pool_seed} pool_bytes={pool_bytes} \
         pool_source={pool_source} pool_arena={pool_arena} pool_ratio={pool_ratio:.4} \
         queries={} cache_hits={} cache_entries={} threads={} \
         query_threads={} max_inflight={} inflight={} coalesced={} rejected={} computed={} \
         lat_load_us={} lat_pool_us={} lat_query_us={} lat_save_us={} lat_restore_us={} \
         sketch_theta={sketch_theta} sketch_seed={sketch_seed} sketch_bytes={sketch_bytes} \
         sketch_members={sketch_members} sketch_source={sketch_source} \
         sketch_builds={} sketch_reuses={}",
        stats.queries,
        stats.cache_hits,
        engine.cache_entries(),
        engine.threads(),
        engine.query_threads(),
        engine.max_inflight(),
        stats.inflight,
        stats.coalesced,
        stats.rejected,
        stats.computed,
        stats.lat_load_us,
        stats.lat_pool_us,
        stats.lat_query_us,
        stats.lat_save_us,
        stats.lat_restore_us,
        stats.sketch_builds,
        stats.sketch_reuses,
    )
}

#[cfg(test)]
thread_local! {
    static INJECT_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test hook: makes the next [`execute`] calls on this thread panic, to
/// prove the `ERR internal` recovery path.
#[cfg(test)]
fn panic_injected() -> bool {
    INJECT_PANIC.with(|f| f.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SharedEngine {
        SharedEngine::new().with_threads(1)
    }

    #[test]
    fn answer_line_walks_the_whole_lifecycle() {
        let engine = engine();
        let (reply, _) = answer_line("PING", &engine);
        assert_eq!(reply, "OK pong");
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=1", &engine);
        assert!(reply.starts_with("ERR"), "query before LOAD: {reply}");
        let (reply, _) = answer_line("LOAD pa n=120 m0=3 seed=7 model=wc", &engine);
        assert!(reply.starts_with("OK n=120"), "{reply}");
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=1", &engine);
        assert!(reply.starts_with("ERR"), "query before POOL: {reply}");
        let (reply, _) = answer_line("POOL 200 5", &engine);
        assert!(reply.starts_with("OK theta=200 seed=5"), "{reply}");
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ag", &engine);
        assert!(reply.starts_with("OK blockers="), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ag", &engine);
        assert!(reply.contains("cached=true"), "{reply}");
        let (reply, _) = answer_line("STATS", &engine);
        assert!(
            reply.contains("queries=4") && reply.contains("cache_hits=1"),
            "{reply}"
        );
        assert!(
            reply.contains("computed=1")
                && reply.contains("coalesced=0")
                && reply.contains("rejected=0")
                && reply.contains("inflight=0"),
            "{reply}"
        );
        let (reply, quit) = answer_line("QUIT", &engine);
        assert_eq!(reply, "OK bye");
        assert!(quit);
    }

    #[test]
    fn compress_and_mapped_restore_over_the_protocol_surface() {
        let engine = engine();
        let (reply, _) = answer_line("COMPRESS", &engine);
        assert!(reply.starts_with("ERR"), "COMPRESS before LOAD: {reply}");
        let (reply, _) = answer_line("LOAD pa n=150 m0=3 seed=7 model=wc", &engine);
        assert!(reply.starts_with("OK"), "{reply}");
        let (reply, _) = answer_line("POOL 120 5", &engine);
        assert!(reply.starts_with("OK"), "{reply}");
        let (raw_answer, _) = answer_line("QUERY ic seeds=0 budget=2", &engine);
        assert!(raw_answer.starts_with("OK blockers="), "{raw_answer}");
        let (reply, _) = answer_line("STATS", &engine);
        assert!(
            reply.contains("pool_arena=raw") && reply.contains(" pool_ratio="),
            "{reply}"
        );

        let (reply, _) = answer_line("COMPRESS", &engine);
        assert!(
            reply.starts_with("OK theta=120") && reply.contains("arena=compressed"),
            "{reply}"
        );
        let (compressed_answer, _) = answer_line("QUERY ic seeds=0 budget=2", &engine);
        assert!(
            compressed_answer.contains("cached=true"),
            "{compressed_answer}"
        );
        let (reply, _) = answer_line("STATS", &engine);
        assert!(reply.contains("pool_arena=compressed"), "{reply}");

        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-server-maprestore-{}.iminsnap",
            std::process::id()
        ));
        let (reply, _) = answer_line(&format!("SAVE {}", path.display()), &engine);
        assert!(reply.starts_with("OK path="), "{reply}");
        let fresh = SharedEngine::new().with_threads(1);
        let (reply, _) = answer_line(&format!("RESTORE {} mode=map", path.display()), &fresh);
        assert!(
            reply.contains("mode=map") && reply.contains("arena=mmap-compressed"),
            "{reply}"
        );
        let (mapped_answer, _) = answer_line("QUERY ic seeds=0 budget=2", &fresh);
        // Same blockers/spread as the raw pool; only the cached= flag differs.
        let strip = |s: &str| {
            s.split_whitespace()
                .filter(|tok| !tok.starts_with("cached=") && !tok.starts_with("elapsed_us="))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(strip(&raw_answer), strip(&mapped_answer));
        let (reply, _) = answer_line("STATS", &fresh);
        assert!(reply.contains("pool_arena=mmap-compressed"), "{reply}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sketch_backend_walks_the_whole_lifecycle_over_the_protocol() {
        let engine = engine();
        let (reply, _) = answer_line("LOAD pa n=150 m0=3 seed=7 model=wc", &engine);
        assert!(reply.starts_with("OK"), "{reply}");
        // ris-greedy before the sketch pool: typed lifecycle error.
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ris-greedy", &engine);
        assert!(reply.starts_with("ERR no sketch pool"), "{reply}");
        let (reply, _) = answer_line("POOL 400 9 backend=sketch", &engine);
        assert!(reply.starts_with("OK theta=400 seed=9"), "{reply}");
        assert!(
            reply.contains("source=built") && reply.ends_with("backend=sketch"),
            "{reply}"
        );
        assert!(
            reply.contains(" members=") && reply.contains(" avg_size="),
            "{reply}"
        );
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ris-greedy", &engine);
        assert!(reply.starts_with("OK blockers="), "{reply}");
        assert!(reply.contains("samples=400"), "{reply}");
        // Case-insensitive registry spelling resolves over the wire too.
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=RIS-GREEDY", &engine);
        assert!(reply.contains("cached=true"), "{reply}");
        // A matching sketch POOL is a reuse that keeps the cache.
        let (reply, _) = answer_line("POOL 400 9 backend=sketch", &engine);
        assert!(reply.contains("source=resident"), "{reply}");
        // SAVE with only a sketch pool resident: typed backend error.
        let (reply, _) = answer_line("SAVE /tmp/never-sketch.iminsnap", &engine);
        assert!(reply.starts_with("ERR backend unsupported"), "{reply}");
        assert!(
            reply.contains("SAVE") && reply.contains("sketch"),
            "{reply}"
        );
        // STATS carries the sketch-pool facts next to the forward fields.
        let (reply, _) = answer_line("STATS", &engine);
        assert!(
            reply.contains("sketch_theta=400")
                && reply.contains("sketch_seed=9")
                && reply.contains("sketch_source=built")
                && reply.contains("sketch_builds=1")
                && reply.contains("sketch_reuses=1"),
            "{reply}"
        );
        // The forward pool builds alongside; forward queries and SAVE work.
        let (reply, _) = answer_line("POOL 200 5", &engine);
        assert!(
            reply.starts_with("OK theta=200 seed=5") && reply.ends_with("backend=forward"),
            "{reply}"
        );
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ag", &engine);
        assert!(reply.starts_with("OK blockers="), "{reply}");
        let (reply, _) = answer_line("STATS", &engine);
        assert!(
            reply.contains("theta=200") && reply.contains("sketch_theta=400"),
            "both backends resident: {reply}"
        );
    }

    #[test]
    fn intervention_families_work_end_to_end_over_the_protocol() {
        let engine = engine();
        let (reply, _) = answer_line("LOAD pa n=150 m0=3 seed=7 model=wc", &engine);
        assert!(reply.starts_with("OK"), "{reply}");
        let (reply, _) = answer_line("POOL 200 5", &engine);
        assert!(reply.starts_with("OK"), "{reply}");

        // Vertex mode stays byte-identical whether implied or spelled out.
        let (implicit, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ag", &engine);
        assert!(implicit.starts_with("OK blockers="), "{implicit}");
        assert!(!implicit.contains(" edges="), "{implicit}");
        let (explicit, _) =
            answer_line("QUERY ic seeds=0 budget=2 alg=ag intervene=vertex", &engine);
        let strip = |s: &str| {
            s.split_whitespace()
                .filter(|tok| !tok.starts_with("cached=") && !tok.starts_with("elapsed_us="))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(strip(&implicit), strip(&explicit));

        // Edge blocking: no blockers, an edges= list of u-v pairs instead.
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=ag intervene=edge", &engine);
        assert!(reply.starts_with("OK blockers= edges="), "{reply}");
        let edges = reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("edges="))
            .unwrap()
            .to_string();
        let pairs: Vec<&str> = edges.split(',').collect();
        assert!(!pairs.is_empty() && pairs.len() <= 2, "{reply}");
        for pair in &pairs {
            let (u, v) = pair.split_once('-').expect("edges are u-v pairs");
            u.parse::<usize>().unwrap();
            v.parse::<usize>().unwrap();
        }

        // Prebunking: targets come back in blockers=, no edges= field.
        let (reply, _) = answer_line(
            "QUERY ic seeds=0 budget=2 alg=ag intervene=prebunk:0.25",
            &engine,
        );
        assert!(reply.starts_with("OK blockers="), "{reply}");
        assert!(!reply.contains(" edges="), "{reply}");

        // prebunk:1.0 is a no-op rescale, so its residual spread can never
        // beat actually blocking the same budget of vertices.
        let (noop, _) = answer_line(
            "QUERY ic seeds=0 budget=2 alg=ag intervene=prebunk:1.0",
            &engine,
        );
        assert!(noop.starts_with("OK blockers="), "{noop}");
        let spread_of = |s: &str| {
            s.split_whitespace()
                .find_map(|tok| tok.strip_prefix("spread="))
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        assert!(
            spread_of(&noop) >= spread_of(&implicit) - 1e-9,
            "{noop} vs {implicit}"
        );

        // Unsupported combos answer a typed error naming the family.
        let (reply, _) = answer_line("QUERY ic seeds=0 budget=2 alg=deg intervene=edge", &engine);
        assert!(reply.starts_with("ERR intervention unsupported"), "{reply}");
        let (reply, _) = answer_line(
            "QUERY ic seeds=0 budget=2 alg=ris-greedy intervene=prebunk:0.5",
            &engine,
        );
        assert!(reply.starts_with("ERR"), "{reply}");
    }

    #[test]
    fn parse_errors_do_not_quit() {
        let engine = engine();
        let (reply, quit) = answer_line("FLY ME TO THE MOON", &engine);
        assert!(reply.starts_with("ERR"));
        assert!(!quit);
    }

    #[test]
    fn generator_load_requires_an_explicit_model() {
        let engine = engine();
        let (reply, _) = answer_line("LOAD pa n=50 m0=2 seed=1 model=keep", &engine);
        assert!(reply.starts_with("ERR"), "{reply}");
        assert!(reply.contains("explicit model"), "{reply}");
    }

    #[test]
    fn a_panicking_handler_answers_err_internal_and_the_engine_survives() {
        let engine = engine();
        let (reply, _) = answer_line("LOAD pa n=80 m0=2 seed=1 model=wc", &engine);
        assert!(reply.starts_with("OK"), "{reply}");
        INJECT_PANIC.with(|f| f.set(true));
        let (reply, quit) = answer_line("STATS", &engine);
        INJECT_PANIC.with(|f| f.set(false));
        assert_eq!(reply, "ERR internal: injected handler panic");
        assert!(!quit, "an internal error must not close the connection");
        // The engine is intact: no poisoned lock, resident state unchanged.
        let (reply, _) = answer_line("STATS", &engine);
        assert!(reply.starts_with("OK graph=pa("), "{reply}");
        let (reply, _) = answer_line("POOL 100 3", &engine);
        assert!(reply.starts_with("OK theta=100"), "{reply}");
    }

    #[test]
    fn busy_rejections_render_the_typed_error() {
        // No TCP needed: exhaust the admission budget directly.
        let err = crate::EngineError::Busy { retry_after_ms: 7 };
        assert_eq!(format!("ERR {err}"), "ERR busy retry_after_ms=7");
    }
}
