//! Structured per-request access logging.
//!
//! An [`AccessLog`] writes one line per request to a shared sink (stderr
//! in `imin-serve`, any `Write + Send` in tests) in either human `text`
//! or machine `json` format. Records carry the verb, outcome, wall-clock
//! latency, cache/coalesce/reject disposition and trace id; requests at
//! or above the configured slow threshold additionally log their full
//! per-phase breakdown.

use crate::span::{Phase, PhaseBreakdown, POOL_PHASES, QUERY_PHASES, SNAPSHOT_PHASES};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Output format of the access log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// One human-readable `key=value` line per request.
    Text,
    /// One JSON object per line (JSON Lines).
    Json,
}

impl std::str::FromStr for LogFormat {
    type Err = String;

    /// Parses `"text"` / `"json"` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!(
                "unknown log format '{other}' (expected text or json)"
            )),
        }
    }
}

/// One request's worth of access-log fields.
#[derive(Debug, Clone, Copy)]
pub struct AccessRecord<'a> {
    /// Uppercased protocol verb (`"QUERY"`, `"POOL"`, …; `"-"` if empty).
    pub verb: &'a str,
    /// Whether the reply line started with `OK`.
    pub ok: bool,
    /// Wall-clock latency of the whole request in microseconds.
    pub latency_us: u64,
    /// Outcome disposition (`"computed"`, `"cache_hit"`, `"coalesced"`,
    /// `"rejected"`, `"error"`, `"restore"`, `"built"`, `"extended"`,
    /// `"reused"`, or `"-"` for verbs without one).
    pub disposition: &'a str,
    /// Trace id assigned by the engine (0 when none was assigned).
    pub trace_id: u64,
    /// Per-phase breakdown, when the engine produced one.
    pub phases: Option<&'a PhaseBreakdown>,
}

/// A thread-safe structured access log.
pub struct AccessLog {
    format: LogFormat,
    slow_us: u64,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("format", &self.format)
            .field("slow_us", &self.slow_us)
            .finish_non_exhaustive()
    }
}

impl AccessLog {
    /// An access log writing to the process's stderr, keeping stdout free
    /// for protocol output. `slow_ms` is the slow-query threshold: at or
    /// above it, the phase breakdown is included.
    pub fn to_stderr(format: LogFormat, slow_ms: u64) -> Self {
        Self::to_writer(format, slow_ms, Box::new(std::io::stderr()))
    }

    /// An access log writing to an arbitrary sink (used by tests).
    pub fn to_writer(format: LogFormat, slow_ms: u64, sink: Box<dyn Write + Send>) -> Self {
        AccessLog {
            format,
            slow_us: slow_ms.saturating_mul(1_000),
            sink: Mutex::new(sink),
        }
    }

    /// The configured output format.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// Writes one record as one line. Phases are included only when
    /// present *and* the request is at or above the slow threshold.
    pub fn record(&self, record: &AccessRecord<'_>) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let slow = record.latency_us >= self.slow_us;
        let phases = record.phases.filter(|_| slow);
        let line = match self.format {
            LogFormat::Text => render_text(ts_ms, record, phases),
            LogFormat::Json => render_json(ts_ms, record, phases),
        };
        let mut sink = self.sink.lock().unwrap_or_else(|poisoned| {
            self.sink.clear_poison();
            poisoned.into_inner()
        });
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
}

/// The phases a record carries, in reporting order: the nonzero ones of
/// every family. A request runs one family's phases, so each name appears
/// once per line.
fn logged(phases: &PhaseBreakdown) -> Vec<Phase> {
    QUERY_PHASES
        .iter()
        .chain(SNAPSHOT_PHASES.iter())
        .chain(POOL_PHASES.iter())
        .copied()
        .filter(|&p| phases.get(p) > 0)
        .collect()
}

fn phase_pairs(phases: &PhaseBreakdown) -> String {
    phases.render(&logged(phases))
}

fn render_text(ts_ms: u64, record: &AccessRecord<'_>, phases: Option<&PhaseBreakdown>) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "ts_ms={ts_ms} verb={} ok={} latency_us={} disposition={} trace_id={}",
        record.verb, record.ok, record.latency_us, record.disposition, record.trace_id
    );
    if let Some(phases) = phases {
        let _ = write!(line, " phases={}", phase_pairs(phases));
    }
    line
}

/// Escapes a string for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_json(ts_ms: u64, record: &AccessRecord<'_>, phases: Option<&PhaseBreakdown>) -> String {
    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"ts_ms\":{ts_ms},\"verb\":\"{}\",\"ok\":{},\"latency_us\":{},\"disposition\":\"{}\",\"trace_id\":{}",
        json_escape(record.verb),
        record.ok,
        record.latency_us,
        json_escape(record.disposition),
        record.trace_id
    );
    if let Some(phases) = phases {
        line.push_str(",\"phases\":{");
        for (i, phase) in logged(phases).into_iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":{}", phase.name(), phases.get(phase));
        }
        line.push('}');
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;
    use std::sync::Arc;

    /// A `Write + Send` sink the test can read back.
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

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn breakdown() -> PhaseBreakdown {
        let mut b = PhaseBreakdown::new();
        b.set(Phase::Bfs, 800);
        b.set(Phase::DomTree, 400);
        b
    }

    #[test]
    fn text_records_have_the_documented_fields() {
        let buf = SharedBuf::default();
        let log = AccessLog::to_writer(LogFormat::Text, 1, Box::new(buf.clone()));
        let phases = breakdown();
        log.record(&AccessRecord {
            verb: "QUERY",
            ok: true,
            latency_us: 1_500,
            disposition: "computed",
            trace_id: 42,
            phases: Some(&phases),
        });
        let line = buf.contents();
        assert!(line.contains("verb=QUERY"), "{line}");
        assert!(line.contains("ok=true"), "{line}");
        assert!(line.contains("latency_us=1500"), "{line}");
        assert!(line.contains("disposition=computed"), "{line}");
        assert!(line.contains("trace_id=42"), "{line}");
        assert!(line.contains("phases=bfs:800,domtree:400"), "{line}");
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn json_records_are_one_object_per_line() {
        let buf = SharedBuf::default();
        let log = AccessLog::to_writer(LogFormat::Json, 1, Box::new(buf.clone()));
        let phases = breakdown();
        log.record(&AccessRecord {
            verb: "QUERY",
            ok: true,
            latency_us: 1_500,
            disposition: "computed",
            trace_id: 7,
            phases: Some(&phases),
        });
        log.record(&AccessRecord {
            verb: "BAD\"VERB",
            ok: false,
            latency_us: 3,
            disposition: "-",
            trace_id: 0,
            phases: None,
        });
        let contents = buf.contents();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"verb\":\"QUERY\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"phases\":{\"bfs\":800,\"domtree\":400}"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"verb\":\"BAD\\\"VERB\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(!lines[1].contains("phases"), "{}", lines[1]);
    }

    #[test]
    fn pool_records_carry_the_sample_phase_in_both_formats() {
        let mut phases = PhaseBreakdown::new();
        phases.set(Phase::PoolSample, 900);
        for (format, needle) in [
            (
                LogFormat::Text,
                "disposition=built trace_id=0 phases=sample:900",
            ),
            (
                LogFormat::Json,
                "\"disposition\":\"built\",\"trace_id\":0,\"phases\":{\"sample\":900}",
            ),
        ] {
            let buf = SharedBuf::default();
            let log = AccessLog::to_writer(format, 0, Box::new(buf.clone()));
            log.record(&AccessRecord {
                verb: "POOL",
                ok: true,
                latency_us: 1_000,
                disposition: "built",
                trace_id: 0,
                phases: Some(&phases),
            });
            let line = buf.contents();
            assert!(line.contains(needle), "{line}");
        }
    }

    #[test]
    fn fast_requests_omit_phases_below_the_slow_threshold() {
        let buf = SharedBuf::default();
        let log = AccessLog::to_writer(LogFormat::Text, 10, Box::new(buf.clone()));
        let phases = breakdown();
        log.record(&AccessRecord {
            verb: "QUERY",
            ok: true,
            latency_us: 9_999, // just under 10 ms
            disposition: "computed",
            trace_id: 1,
            phases: Some(&phases),
        });
        log.record(&AccessRecord {
            verb: "QUERY",
            ok: true,
            latency_us: 10_000, // exactly at the threshold
            disposition: "computed",
            trace_id: 2,
            phases: Some(&phases),
        });
        let contents = buf.contents();
        let lines: Vec<&str> = contents.lines().collect();
        assert!(!lines[0].contains("phases="), "{}", lines[0]);
        assert!(lines[1].contains("phases="), "{}", lines[1]);
    }
}
