//! Per-request phase spans.
//!
//! A *span* is a thread-local accumulator of per-[`Phase`] nanosecond
//! totals, activated by [`begin`] at the start of an instrumented request
//! and drained by [`take`] at the end. Instrumented code calls
//! [`add_ns`]/[`add_us`] freely: when no span is active the calls are a
//! single `Cell` read and return immediately, so un-traced requests pay
//! essentially nothing.
//!
//! Worker threads do not touch the span directly — they accumulate plain
//! `u64` nanosecond slots in their scratch state and the calling thread
//! folds those into its own span after the join (see
//! `imin_core::pool::pooled_decrease_in`).

use std::cell::Cell;

/// Number of [`Phase`] variants; the length of a [`PhaseBreakdown`].
pub const PHASE_COUNT: usize = 14;

/// A named phase of an instrumented request.
///
/// The first ten variants decompose a `QUERY` — eight for the pooled
/// forward path (the split the paper's Algorithms 2–4 are built around)
/// plus two for the reverse-sketch path; the next three decompose a
/// snapshot `RESTORE`, and the last two a forward `POOL` build or
/// extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cloning the resident state handles (graph + pool `Arc`s) under the
    /// read lock.
    Clone,
    /// Probing the LRU result cache.
    Probe,
    /// Drawing fresh live-edge samples (zero on the pooled path — the
    /// pool is reused, which is the point of Definition 4).
    Sample,
    /// Acquiring per-sample arena views (per-edge decode is interleaved
    /// with the BFS and attributed to [`Phase::Bfs`]).
    Decode,
    /// Multi-source BFS from the virtual root over each sample.
    Bfs,
    /// Lengauer–Tarjan dominator-tree construction per reached cascade.
    DomTree,
    /// Subtree-size credit accumulation and estimate finalisation.
    Credit,
    /// Greedy blocker selection over the merged estimates.
    Select,
    /// Reverse-sketch path: drawing θ_r reverse live-edge BFS sketches.
    RSample,
    /// Reverse-sketch path: seed-coverage lookups and per-sketch critical
    /// (blockable) set extraction.
    Cover,
    /// Snapshot restore: reading the graph and pool sections.
    SnapRead,
    /// Snapshot restore: structural validation and checksum verification.
    SnapValidate,
    /// Snapshot restore: memory-mapping the pool sections.
    SnapMap,
    /// Pool build: drawing the live-edge realisations straight into their
    /// bitsets, 16 per sweep of the graph's edge slots.
    PoolSample,
}

/// The query-path phases, in reporting order.
pub const QUERY_PHASES: [Phase; 10] = [
    Phase::Clone,
    Phase::Probe,
    Phase::Sample,
    Phase::Decode,
    Phase::Bfs,
    Phase::DomTree,
    Phase::Credit,
    Phase::Select,
    Phase::RSample,
    Phase::Cover,
];

/// The snapshot-restore phases, in reporting order.
pub const SNAPSHOT_PHASES: [Phase; 3] = [Phase::SnapRead, Phase::SnapValidate, Phase::SnapMap];

/// The forward pool-build phases, in reporting order.
pub const POOL_PHASES: [Phase; 1] = [Phase::PoolSample];

impl Phase {
    /// Stable lowercase name used in `METRICS` labels, trace suffixes and
    /// access-log records. Names are unique within a family (query,
    /// snapshot, pool), which is the scope of every label they fill:
    /// [`Phase::PoolSample`] is `sample` in `imin_pool_phase_seconds`, as
    /// [`Phase::Sample`] is in `imin_query_phase_seconds`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Clone => "clone",
            Phase::Probe => "probe",
            Phase::Sample => "sample",
            Phase::Decode => "decode",
            Phase::Bfs => "bfs",
            Phase::DomTree => "domtree",
            Phase::Credit => "credit",
            Phase::Select => "select",
            Phase::RSample => "rsample",
            Phase::Cover => "cover",
            Phase::SnapRead => "snap_read",
            Phase::SnapValidate => "snap_validate",
            Phase::SnapMap => "snap_map",
            Phase::PoolSample => "sample",
        }
    }

    /// The phase's index into a [`PhaseBreakdown`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-phase microsecond totals for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    us: [u64; PHASE_COUNT],
}

impl PhaseBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.us[phase.index()]
    }

    /// Overwrites the microseconds attributed to `phase`.
    pub fn set(&mut self, phase: Phase, us: u64) {
        self.us[phase.index()] = us;
    }

    /// Adds `us` microseconds to `phase`.
    pub fn add_us(&mut self, phase: Phase, us: u64) {
        self.us[phase.index()] += us;
    }

    /// Sum over all phases in microseconds.
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// Renders the given phases as `name:us` pairs joined by commas, e.g.
    /// `clone:12,probe:1,sample:0,…` — the `QUERY … trace=1` suffix format.
    pub fn render(&self, phases: &[Phase]) -> String {
        let mut out = String::with_capacity(phases.len() * 12);
        for (i, &phase) in phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(phase.name());
            out.push(':');
            out.push_str(&self.get(phase).to_string());
        }
        out
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SLOTS_NS: Cell<[u64; PHASE_COUNT]> = const { Cell::new([0; PHASE_COUNT]) };
}

/// Activates the current thread's span, zeroing any previous totals.
pub fn begin() {
    ACTIVE.with(|a| a.set(true));
    SLOTS_NS.with(|s| s.set([0; PHASE_COUNT]));
}

/// Whether a span is active on the current thread.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Adds `ns` nanoseconds to `phase` on the current thread's span; no-op
/// when no span is active.
#[inline]
pub fn add_ns(phase: Phase, ns: u64) {
    if !active() {
        return;
    }
    SLOTS_NS.with(|s| {
        let mut slots = s.get();
        slots[phase.index()] += ns;
        s.set(slots);
    });
}

/// Adds `us` microseconds to `phase`; no-op when no span is active.
#[inline]
pub fn add_us(phase: Phase, us: u64) {
    add_ns(phase, us.saturating_mul(1_000));
}

/// Deactivates the current thread's span and returns its totals rounded
/// down to microseconds.
pub fn take() -> PhaseBreakdown {
    ACTIVE.with(|a| a.set(false));
    let slots = SLOTS_NS.with(|s| s.replace([0; PHASE_COUNT]));
    let mut breakdown = PhaseBreakdown::new();
    for (i, ns) in slots.into_iter().enumerate() {
        breakdown.us[i] = ns / 1_000;
    }
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_spans_ignore_adds() {
        assert!(!active());
        add_us(Phase::Bfs, 1_000);
        begin();
        let taken = take();
        assert_eq!(taken.total_us(), 0, "pre-begin adds must not leak in");
    }

    #[test]
    fn begin_add_take_roundtrip() {
        begin();
        assert!(active());
        add_us(Phase::Clone, 12);
        add_ns(Phase::Bfs, 2_500); // 2.5 µs rounds down to 2
        add_us(Phase::Bfs, 3);
        let taken = take();
        assert!(!active());
        assert_eq!(taken.get(Phase::Clone), 12);
        assert_eq!(taken.get(Phase::Bfs), 5);
        assert_eq!(taken.total_us(), 17);
        // The span is drained: a second take is empty.
        begin();
        assert_eq!(take().total_us(), 0);
    }

    #[test]
    fn spans_are_thread_local() {
        begin();
        add_us(Phase::Credit, 7);
        let handle = std::thread::spawn(|| {
            assert!(!active(), "other threads see no active span");
            add_us(Phase::Credit, 99);
        });
        handle.join().unwrap();
        assert_eq!(take().get(Phase::Credit), 7);
    }

    #[test]
    fn breakdown_renders_the_trace_suffix_format() {
        let mut b = PhaseBreakdown::new();
        b.set(Phase::Clone, 12);
        b.add_us(Phase::Select, 4);
        assert_eq!(
            b.render(&[Phase::Clone, Phase::Probe, Phase::Select]),
            "clone:12,probe:0,select:4"
        );
        assert_eq!(b.render(&[]), "");
    }

    #[test]
    fn phase_indices_cover_the_breakdown_exactly() {
        let all: Vec<Phase> = QUERY_PHASES
            .iter()
            .chain(SNAPSHOT_PHASES.iter())
            .chain(POOL_PHASES.iter())
            .copied()
            .collect();
        assert_eq!(all.len(), PHASE_COUNT);
        let mut seen = [false; PHASE_COUNT];
        for phase in all {
            assert!(!seen[phase.index()], "duplicate index for {phase:?}");
            seen[phase.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn phase_names_are_unique_within_each_family() {
        for family in [&QUERY_PHASES[..], &SNAPSHOT_PHASES, &POOL_PHASES] {
            for (i, a) in family.iter().enumerate() {
                for b in &family[i + 1..] {
                    assert_ne!(a.name(), b.name(), "{a:?} and {b:?} share a label");
                }
            }
        }
    }
}
