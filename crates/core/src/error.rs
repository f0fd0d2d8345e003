//! Error types for the IMIN algorithms.

use std::fmt;

/// Errors produced by problem construction and the blocking algorithms.
#[derive(Debug)]
pub enum IminError {
    /// A seed vertex does not exist in the graph.
    SeedOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// The seed set is empty.
    EmptySeedSet,
    /// The same seed vertex appears more than once in a request.
    DuplicateSeed {
        /// The repeated vertex index.
        vertex: usize,
    },
    /// A seed vertex also appears in the forbidden/blocked set. Seeds are
    /// implicitly ineligible as blockers, so an explicit overlap is almost
    /// certainly a mis-built request.
    ForbiddenSeedOverlap {
        /// The offending vertex index.
        vertex: usize,
    },
    /// The requested algorithm cannot run on the requested evaluation
    /// backend (e.g. BaselineGreedy needs Monte-Carlo simulation, which a
    /// resident sample pool does not provide).
    BackendUnsupported {
        /// Label of the algorithm that was asked to run.
        algorithm: &'static str,
        /// Label of the backend it was asked to run on.
        backend: &'static str,
    },
    /// The requested intervention family cannot run with the requested
    /// algorithm×backend combination (e.g. edge blocking needs the pooled
    /// dominator-tree machinery; the sketch backend answers vertex
    /// requests only). `docs/protocol.md` tables the supported combos.
    InterventionUnsupported {
        /// Label of the algorithm that was asked to run.
        algorithm: &'static str,
        /// Label of the backend it was asked to run on.
        backend: &'static str,
        /// Family label of the intervention (`"vertex"`, `"edge"`,
        /// `"prebunk"`).
        intervention: &'static str,
    },
    /// An intervention specification could not be parsed or carries invalid
    /// parameters (e.g. a prebunk `alpha` outside `[0, 1]`).
    InvalidIntervention {
        /// The offending specification, as supplied.
        spec: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A string did not name any registered algorithm.
    UnknownAlgorithm {
        /// The unrecognised name.
        name: String,
    },
    /// The blocking budget is zero (nothing to do) where a positive budget
    /// is required.
    ZeroBudget,
    /// The algorithm configuration requests zero samples or zero Monte-Carlo
    /// rounds.
    ZeroSamples,
    /// A supplied candidate/blocker vertex is invalid (out of range or a
    /// seed).
    InvalidBlocker {
        /// The offending vertex index.
        vertex: usize,
        /// Explanation of why it cannot be blocked.
        reason: &'static str,
    },
    /// A resident sample pool was paired with a graph of a different shape
    /// (pools are only valid against the graph they were built from).
    PoolGraphMismatch {
        /// Vertex count of the supplied graph.
        graph_vertices: usize,
        /// Edge count of the supplied graph.
        graph_edges: usize,
        /// Vertex count of the graph the pool was built from.
        pool_vertices: usize,
        /// Edge count of the graph the pool was built from.
        pool_edges: usize,
    },
    /// A pool held in a raw or memory-mapped arena was asked to grow in
    /// place; only a heap-resident compressed arena supports
    /// [`crate::SamplePool::extend_to`] — callers rebuild instead.
    PoolArenaImmutable {
        /// Arena kind label (`"raw"`, `"mmap-raw"`, …).
        arena: &'static str,
    },
    /// The exhaustive exact search was asked to enumerate more combinations
    /// than its configured limit.
    SearchSpaceTooLarge {
        /// Number of candidate blockers.
        candidates: usize,
        /// Requested budget.
        budget: usize,
        /// Maximum number of combinations the configuration allows.
        limit: u64,
    },
    /// An error bubbled up from the diffusion layer.
    Diffusion(imin_diffusion::DiffusionError),
    /// An error bubbled up from the graph layer.
    Graph(imin_graph::GraphError),
    /// A pool snapshot could not be written or read (see
    /// [`crate::snapshot`]): I/O failure, truncation, bad magic, version or
    /// checksum mismatch, or a graph fingerprint that does not match.
    Snapshot(crate::snapshot::SnapshotError),
}

impl fmt::Display for IminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IminError::SeedOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "seed vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            IminError::EmptySeedSet => write!(f, "the seed set must not be empty"),
            IminError::DuplicateSeed { vertex } => {
                write!(f, "seed vertex {vertex} appears more than once")
            }
            IminError::ForbiddenSeedOverlap { vertex } => write!(
                f,
                "seed vertex {vertex} is also marked forbidden/blocked; seeds are implicitly \
                 ineligible as blockers and must not appear in the forbidden set"
            ),
            IminError::BackendUnsupported { algorithm, backend } => write!(
                f,
                "algorithm '{algorithm}' cannot run on the {backend} backend"
            ),
            IminError::InterventionUnsupported {
                algorithm,
                backend,
                intervention,
            } => write!(
                f,
                "intervention unsupported: '{intervention}' requests cannot run with algorithm \
                 '{algorithm}' on the {backend} backend (see docs/protocol.md for the support \
                 matrix)"
            ),
            IminError::InvalidIntervention { spec, reason } => write!(
                f,
                "invalid intervention '{spec}': {reason} (expected vertex, edge, or \
                 prebunk:<alpha> with alpha in [0, 1])"
            ),
            IminError::UnknownAlgorithm { name } => write!(
                f,
                "unknown algorithm '{name}' (expected one of: {})",
                crate::solver::AlgorithmKind::known_names()
            ),
            IminError::ZeroBudget => write!(f, "the blocking budget must be positive"),
            IminError::ZeroSamples => {
                write!(f, "the number of samples/rounds must be positive")
            }
            IminError::InvalidBlocker { vertex, reason } => {
                write!(f, "vertex {vertex} cannot be blocked: {reason}")
            }
            IminError::PoolGraphMismatch {
                graph_vertices,
                graph_edges,
                pool_vertices,
                pool_edges,
            } => write!(
                f,
                "the sample pool was built from a graph with {pool_vertices} vertices / \
                 {pool_edges} edges but was queried with a graph of {graph_vertices} vertices / \
                 {graph_edges} edges"
            ),
            IminError::PoolArenaImmutable { arena } => write!(
                f,
                "a pool stored in a {arena} arena cannot grow in place; rebuild it instead"
            ),
            IminError::SearchSpaceTooLarge {
                candidates,
                budget,
                limit,
            } => write!(
                f,
                "exhaustive search over C({candidates}, {budget}) blocker sets exceeds the limit of {limit} combinations"
            ),
            IminError::Diffusion(err) => write!(f, "diffusion error: {err}"),
            IminError::Graph(err) => write!(f, "graph error: {err}"),
            IminError::Snapshot(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for IminError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IminError::Diffusion(err) => Some(err),
            IminError::Graph(err) => Some(err),
            IminError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<imin_diffusion::DiffusionError> for IminError {
    fn from(err: imin_diffusion::DiffusionError) -> Self {
        IminError::Diffusion(err)
    }
}

impl From<imin_graph::GraphError> for IminError {
    fn from(err: imin_graph::GraphError) -> Self {
        IminError::Graph(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(IminError::EmptySeedSet.to_string().contains("seed"));
        assert!(IminError::DuplicateSeed { vertex: 4 }
            .to_string()
            .contains("more than once"));
        assert!(IminError::ForbiddenSeedOverlap { vertex: 4 }
            .to_string()
            .contains("forbidden"));
        let e = IminError::BackendUnsupported {
            algorithm: "baseline",
            backend: "pooled",
        };
        assert!(e.to_string().contains("cannot run"));
        let e = IminError::InterventionUnsupported {
            algorithm: "ris-greedy",
            backend: "sketch",
            intervention: "edge",
        };
        assert!(e.to_string().starts_with("intervention unsupported"));
        assert!(e.to_string().contains("docs/protocol.md"));
        let e = IminError::InvalidIntervention {
            spec: "prebunk:2".into(),
            reason: "alpha must be a finite probability in [0, 1]",
        };
        assert!(e.to_string().contains("invalid intervention 'prebunk:2'"));
        let e = IminError::UnknownAlgorithm {
            name: "magic".into(),
        };
        assert!(e.to_string().contains("unknown algorithm 'magic'"));
        assert!(e.to_string().contains("advanced"));
        assert!(IminError::ZeroBudget.to_string().contains("budget"));
        assert!(IminError::ZeroSamples.to_string().contains("positive"));
        let e = IminError::SeedOutOfRange {
            vertex: 7,
            num_vertices: 3,
        };
        assert!(e.to_string().contains("out of range"));
        let e = IminError::InvalidBlocker {
            vertex: 2,
            reason: "it is a seed",
        };
        assert!(e.to_string().contains("cannot be blocked"));
        let e = IminError::SearchSpaceTooLarge {
            candidates: 100,
            budget: 10,
            limit: 1_000_000,
        };
        assert!(e.to_string().contains("exceeds"));
        let e = IminError::PoolArenaImmutable {
            arena: "compressed",
        };
        assert!(e.to_string().contains("cannot grow in place"));
        let e = IminError::PoolGraphMismatch {
            graph_vertices: 5,
            graph_edges: 7,
            pool_vertices: 9,
            pool_edges: 11,
        };
        assert!(e.to_string().contains("pool"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let d: IminError = imin_diffusion::DiffusionError::EmptySeedSet.into();
        assert!(matches!(d, IminError::Diffusion(_)));
        assert!(std::error::Error::source(&d).is_some());
        let g: IminError = imin_graph::GraphError::InvalidProbability { probability: 3.0 }.into();
        assert!(matches!(g, IminError::Graph(_)));
        assert!(std::error::Error::source(&g).is_some());
    }
}
