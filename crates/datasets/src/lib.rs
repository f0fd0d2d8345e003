//! # imin-datasets
//!
//! Dataset support for the vertex-blocking influence-minimization workspace:
//!
//! * [`toy`] — the 9-vertex toy graph of Figure 1, for which the paper gives
//!   exact spreads (E = 7.66, blocking v5 → 3, Table III); it anchors a
//!   large part of the test suite.
//! * [`catalog`] — the eight SNAP datasets of Table IV. The original files
//!   are not redistributable, so each dataset has a deterministic synthetic
//!   stand-in matching its size, direction and degree skew (the module docs
//!   describe the substitution). Real SNAP edge lists are loaded instead
//!   whenever a file is found under the `IMIN_DATA_DIR` directory.
//! * [`extract`] — the ~100-vertex extraction procedure used for the
//!   Exact-vs-GreedyReplace comparison (Tables V and VI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod extract;
pub mod toy;

pub use catalog::{Dataset, DatasetScale, DatasetSpec};
