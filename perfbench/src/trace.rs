//! In-memory spans of a traced run: name, start, end, parent and request
//! id, written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span covers (`wire.QUERY`, `layer.pool.build`, `phase.bfs`, …).
    pub name: String,
    /// Start offset in µs.
    pub start_us: f64,
    /// End offset in µs.
    pub end_us: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Window request index, for wire spans and their phases.
    pub request: Option<usize>,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose time origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span, and returns its result and duration.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        let start = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.offset_us(start),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        let result = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        self.spans[id].end_us = self.offset_us(start + elapsed);
        (result, elapsed)
    }

    /// Records a finished span measured elsewhere (a wire request or a
    /// server-reported phase) and returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        let start_us = self.offset_us(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + dur.as_secs_f64() * 1e6,
            parent: parent.or_else(|| self.open.last().copied()),
            request,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in µs: its duration minus its children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.dur_us();
            }
        }
        own.into_iter().map(|t| t.max(0.0)).collect()
    }

    /// Total self time per span name, in µs, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut totals = std::collections::BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_us()) {
            *totals.entry(span.name.clone()).or_insert(0.0) += own;
        }
        totals.into_iter().collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, (span, own)) in self.spans.iter().zip(self.self_times_us()).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}, \"parent\": {}, \"request\": {}}}",
                span.name,
                span.start_us,
                span.end_us,
                own,
                opt(span.parent),
                opt(span.request)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_times() {
        let mut tracer = Tracer::new();
        let ((), _) = tracer.time("outer", |t| {
            let start = Instant::now();
            t.record("inner", start, Duration::from_micros(10), None, Some(3));
        });
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(3));
        let own = tracer.self_times_us();
        assert!((own[0] + own[1] - spans[0].dur_us()).abs() < 1e-6 || own[0] == 0.0);
        assert!(tracer.to_jsonl().lines().count() == 2);
    }
}
