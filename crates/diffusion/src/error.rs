//! Error types for diffusion and spread computation.

use std::fmt;

/// Errors produced by spread estimators and probability models.
#[derive(Debug)]
pub enum DiffusionError {
    /// A seed vertex does not exist in the graph.
    SeedOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// The seed set is empty where at least one seed is required.
    EmptySeedSet,
    /// A blocked-vertex mask has the wrong length for the graph.
    MaskLengthMismatch {
        /// Length of the supplied mask.
        mask_len: usize,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// A seed vertex is also marked as blocked, which the problem definition
    /// forbids (`B ⊆ V \ S`).
    BlockedSeed {
        /// The seed that was blocked.
        vertex: usize,
    },
    /// The estimator was configured with zero simulation rounds / samples.
    ZeroRounds,
    /// The exact computation needs more leaves than its cap,
    /// [`crate::exact::MAX_LEAVES`].
    TooManyLeaves {
        /// The cap that was exceeded.
        limit: u64,
    },
    /// An error bubbled up from the graph layer.
    Graph(imin_graph::GraphError),
}

impl fmt::Display for DiffusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffusionError::SeedOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "seed vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            DiffusionError::EmptySeedSet => write!(f, "the seed set must not be empty"),
            DiffusionError::MaskLengthMismatch {
                mask_len,
                num_vertices,
            } => write!(
                f,
                "blocked mask has length {mask_len} but the graph has {num_vertices} vertices"
            ),
            DiffusionError::BlockedSeed { vertex } => {
                write!(f, "seed vertex {vertex} must not be blocked (B ⊆ V \\ S)")
            }
            DiffusionError::ZeroRounds => {
                write!(
                    f,
                    "the number of simulation rounds/samples must be positive"
                )
            }
            DiffusionError::TooManyLeaves { limit } => write!(
                f,
                "exact spread computation needs more than {limit} leaves (exact::MAX_LEAVES)"
            ),
            DiffusionError::Graph(err) => write!(f, "graph error: {err}"),
        }
    }
}

impl std::error::Error for DiffusionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiffusionError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<imin_graph::GraphError> for DiffusionError {
    fn from(err: imin_graph::GraphError) -> Self {
        DiffusionError::Graph(err)
    }
}

/// Validates seeds and an optional blocked mask against a graph.
pub(crate) fn validate_seeds_and_mask(
    num_vertices: usize,
    seeds: &[imin_graph::VertexId],
    blocked: Option<&[bool]>,
) -> std::result::Result<(), DiffusionError> {
    if seeds.is_empty() {
        return Err(DiffusionError::EmptySeedSet);
    }
    for &s in seeds {
        if s.index() >= num_vertices {
            return Err(DiffusionError::SeedOutOfRange {
                vertex: s.index(),
                num_vertices,
            });
        }
    }
    if let Some(mask) = blocked {
        if mask.len() != num_vertices {
            return Err(DiffusionError::MaskLengthMismatch {
                mask_len: mask.len(),
                num_vertices,
            });
        }
        for &s in seeds {
            if mask[s.index()] {
                return Err(DiffusionError::BlockedSeed { vertex: s.index() });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imin_graph::VertexId;

    #[test]
    fn validation_rejects_bad_inputs() {
        let v0 = VertexId::new(0);
        let v9 = VertexId::new(9);
        assert!(matches!(
            validate_seeds_and_mask(5, &[], None),
            Err(DiffusionError::EmptySeedSet)
        ));
        assert!(matches!(
            validate_seeds_and_mask(5, &[v9], None),
            Err(DiffusionError::SeedOutOfRange { .. })
        ));
        assert!(matches!(
            validate_seeds_and_mask(5, &[v0], Some(&[false; 3])),
            Err(DiffusionError::MaskLengthMismatch { .. })
        ));
        let mut mask = vec![false; 5];
        mask[0] = true;
        assert!(matches!(
            validate_seeds_and_mask(5, &[v0], Some(&mask)),
            Err(DiffusionError::BlockedSeed { vertex: 0 })
        ));
        assert!(validate_seeds_and_mask(5, &[v0], Some(&[false; 5])).is_ok());
        assert!(validate_seeds_and_mask(5, &[v0], None).is_ok());
    }

    #[test]
    fn display_messages() {
        assert!(DiffusionError::EmptySeedSet
            .to_string()
            .contains("seed set"));
        assert!(DiffusionError::ZeroRounds.to_string().contains("positive"));
        let e = DiffusionError::TooManyLeaves { limit: 1 << 22 };
        assert!(e.to_string().contains("4194304 leaves"));
        let g: DiffusionError =
            imin_graph::GraphError::InvalidProbability { probability: 2.0 }.into();
        assert!(g.to_string().contains("graph error"));
        assert!(std::error::Error::source(&g).is_some());
    }
}
