//! # imin-obs
//!
//! Std-only observability primitives for the IMIN engine: lock-free
//! log-bucketed latency [`Histogram`]s, per-phase query [`span`]s threaded
//! through the pooled solver path, Prometheus text-format exposition
//! helpers ([`expo`]), and a structured access log ([`AccessLog`]).
//!
//! The crate is deliberately dependency-free (the build environment has no
//! crates.io access) and allocation-light: recording a latency is one
//! atomic add into a power-of-two bucket, and phase spans accumulate into
//! a `Cell`-based thread-local that costs nothing when inactive.
//!
//! ```
//! use imin_obs::{Histogram, PhaseBreakdown, QUERY_PHASES};
//!
//! // Latency histograms: one atomic add per record, quantiles on demand.
//! let hist = Histogram::new();
//! hist.record_us(120);
//! hist.record_us(95_000);
//! assert_eq!(hist.count(), 2);
//! assert!(hist.quantile_us(0.5) >= 120);
//!
//! // Phase breakdowns: what `QUERY … trace=1` renders into `phases=…`.
//! let mut phases = PhaseBreakdown::default();
//! phases.add_us(imin_obs::Phase::Bfs, 1_500);
//! phases.add_us(imin_obs::Phase::DomTree, 900);
//! let rendered = phases.render(&QUERY_PHASES);
//! assert!(rendered.contains("bfs:1500"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod log;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use log::{AccessLog, AccessRecord, LogFormat};
pub use span::{Phase, PhaseBreakdown, PHASE_COUNT, POOL_PHASES, QUERY_PHASES, SNAPSHOT_PHASES};
