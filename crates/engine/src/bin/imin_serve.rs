//! `imin-serve` — the resident containment query server.
//!
//! ```text
//! imin-serve [--addr HOST:PORT] [--threads N] [--query-threads N]
//!            [--cache N] [--max-inflight N]
//!            [--log text|json] [--slow-query-ms N] [--no-obs]
//! ```
//!
//! Binds (default `127.0.0.1:7470`, port 0 for ephemeral), prints one
//! `LISTENING <addr>` line to stdout so scripts can discover the port, then
//! serves the line protocol forever. Drive it with `imin-cli` or any
//! line-oriented TCP client (`nc`, telnet).
//!
//! Queries from different connections execute **concurrently** against the
//! shared resident pool; identical in-flight queries compute once.
//! `--threads` sets the pool-build worker count, `--query-threads` the
//! ceiling on the parallelism *inside* one query (default: same as
//! `--threads`). The ceiling is shared among the queries computing at
//! once: a query that starts while `k` compute (itself included) runs on
//! `max(1, ceiling / k)` workers, so a lone query gets all of it and
//! concurrent queries each run inline on their own core. Answers are
//! bit-identical at any worker count. `--max-inflight` bounds concurrently
//! computing queries;
//! beyond it the server answers `ERR busy retry_after_ms=…` instead of
//! queueing unboundedly.
//!
//! Observability: `--log text|json` writes one structured access-log line
//! per request to stderr; requests at or above `--slow-query-ms`
//! (default 1000) additionally log their per-phase breakdown. `--no-obs`
//! disables phase spans and traces entirely (verb latency histograms and
//! the `METRICS` exposition stay on — they are effectively free).

use imin_engine::{AccessLog, LogFormat, Server, SharedEngine};
use std::process::ExitCode;

const USAGE: &str = "usage: imin-serve [--addr HOST:PORT] [--threads N] [--query-threads N] \
                     [--cache N] [--max-inflight N] [--log text|json] [--slow-query-ms N] \
                     [--no-obs]";

/// Invalid arguments: usage on stderr, non-zero exit.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7470".to_string();
    let mut threads: Option<usize> = None;
    let mut query_threads: Option<usize> = None;
    let mut cache: Option<usize> = None;
    let mut max_inflight: Option<usize> = None;
    let mut log_format: Option<LogFormat> = None;
    let mut slow_query_ms: u64 = 1_000;
    let mut observability = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            // Requested help is not an error: stdout, exit 0.
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            // Valueless flags settle before the value pull below.
            "--no-obs" => {
                observability = false;
                continue;
            }
            "--addr" | "--threads" | "--query-threads" | "--cache" | "--max-inflight" | "--log"
            | "--slow-query-ms" => match args.next() {
                Some(v) => v,
                None => return usage(),
            },
            _ => return usage(),
        };
        let parse_into = |slot: &mut Option<usize>| match value.parse() {
            Ok(n) => {
                *slot = Some(n);
                true
            }
            Err(_) => false,
        };
        let ok = match arg.as_str() {
            "--addr" => {
                addr = value;
                true
            }
            "--threads" => parse_into(&mut threads),
            "--query-threads" => parse_into(&mut query_threads),
            "--cache" => parse_into(&mut cache),
            "--max-inflight" => parse_into(&mut max_inflight),
            "--log" => match value.parse::<LogFormat>() {
                Ok(format) => {
                    log_format = Some(format);
                    true
                }
                Err(_) => false,
            },
            "--slow-query-ms" => match value.parse() {
                Ok(ms) => {
                    slow_query_ms = ms;
                    true
                }
                Err(_) => false,
            },
            _ => unreachable!(),
        };
        if !ok {
            return usage();
        }
    }

    let mut engine = SharedEngine::new().with_observability(observability);
    if let Some(threads) = threads {
        engine = engine.with_threads(threads);
    }
    if let Some(query_threads) = query_threads {
        engine = engine.with_query_threads(query_threads);
    }
    if let Some(cache) = cache {
        engine = engine.with_cache_capacity(cache);
    }
    if let Some(max_inflight) = max_inflight {
        engine = engine.with_max_inflight(max_inflight);
    }
    let mut server = match Server::with_shared(&addr, engine) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("imin-serve: cannot bind {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(format) = log_format {
        server = server.with_access_log(AccessLog::to_stderr(format, slow_query_ms));
    }
    match server.local_addr() {
        Ok(local) => println!("LISTENING {local}"),
        Err(err) => {
            eprintln!("imin-serve: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(err) = server.run() {
        eprintln!("imin-serve: accept loop failed: {err}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
