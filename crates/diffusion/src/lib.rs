//! # imin-diffusion
//!
//! Diffusion models and expected-spread computation for the vertex-blocking
//! influence-minimization workspace.
//!
//! The reproduced paper works under the **independent cascade (IC)** model
//! (§III-A): every edge `(u, v)` carries a probability `p(u,v)`; when `u`
//! becomes active it gets a single chance to activate each inactive
//! out-neighbour `v`, succeeding independently with probability `p(u,v)`.
//! The *expected spread* `E(S, G)` is the expected number of active vertices
//! when the process stops (Definition 3). Computing it exactly is #P-hard
//! \[21\], so the paper (and this crate) provides:
//!
//! * [`montecarlo`] — Monte-Carlo simulation (MCS), the estimator used by
//!   the BaselineGreedy state of the art (§V-A); sequential and
//!   multi-threaded variants with deterministic seeding.
//! * [`exact`] — exact activation probabilities and expected spread by a
//!   recursion that grows the cascade from the seeds and branches only on
//!   the edges that can still change it, capped at [`exact::MAX_LEAVES`]
//!   leaves. It solves graphs with a few dozen uncertain edges: the
//!   paper's Figure 1 example (Examples 1–3, Table III) and the ground
//!   truth of the estimator tests. The Tables V and VI extracts need more
//!   leaves than the cap, so their spreads are simulated.
//! * [`models`] — the propagation-probability assignments of §VI-A:
//!   Trivalency (TR) and Weighted Cascade (WC), plus constant/uniform
//!   variants for tests.
//! * [`ic`] — [`ic::CascadeSimulator`], the one IC cascade simulator: one
//!   Monte-Carlo round, with blocked vertices never activated
//!   (Definition 2).
//! * [`live_edge`] — live-edge (possible-world) graph sampling, the bridge
//!   between the IC model and the dominator-tree machinery of the core crate
//!   (Definition 4, Lemma 1).
//! * [`triggering`] — the general triggering model of §V-E (IC and LT are
//!   special cases), so the core algorithms can run unchanged on
//!   triggering-sampled graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod ic;
pub mod live_edge;
pub mod models;
pub mod montecarlo;
pub mod spread;
pub mod triggering;

pub use error::DiffusionError;
pub use models::ProbabilityModel;
pub use montecarlo::MonteCarloEstimator;
pub use spread::SpreadEstimate;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DiffusionError>;
