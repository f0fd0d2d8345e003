//! Error type for the resident engine.

use std::fmt;

/// Errors produced by the engine, the protocol layer and the server.
#[derive(Debug)]
pub enum EngineError {
    /// A query or pool build was issued before a graph was loaded.
    NoGraph,
    /// A query was issued before a sample pool was built.
    NoPool,
    /// A `ris-greedy` query was issued before a sketch pool was built.
    NoSketchPool,
    /// The requested operation is not defined for the resident pool's
    /// backend — e.g. `SAVE` while a sketch pool is resident (snapshot
    /// format v2 only describes forward sample arenas). The payload says
    /// which operation and which backend.
    BackendUnsupported {
        /// The protocol operation that was refused.
        operation: &'static str,
        /// The resident backend it cannot run on.
        backend: &'static str,
    },
    /// A protocol line could not be parsed; the payload is the reason sent
    /// back on the `ERR` line.
    Protocol(String),
    /// The concurrent-query admission budget is exhausted: the server is
    /// already computing its maximum number of in-flight queries. The
    /// client should back off for roughly `retry_after_ms` milliseconds
    /// (the p95 of the server's compute latency) and retry — nothing about
    /// the request itself is wrong.
    Busy {
        /// Suggested client backoff in milliseconds before retrying.
        retry_after_ms: u64,
    },
    /// A request handler panicked; the engine recovered (no lock stays
    /// poisoned, resident state is unchanged) and the connection survives.
    /// The payload is the panic message.
    Internal(String),
    /// An error bubbled up from the algorithm layer.
    Core(imin_core::IminError),
    /// An error bubbled up from the graph layer (generators, edge lists).
    Graph(imin_graph::GraphError),
    /// An error bubbled up from the diffusion layer (probability models).
    Diffusion(imin_diffusion::DiffusionError),
    /// A socket or file I/O error.
    Io(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoGraph => write!(f, "no graph loaded (send LOAD first)"),
            EngineError::NoPool => write!(f, "no sample pool built (send POOL first)"),
            EngineError::NoSketchPool => write!(
                f,
                "no sketch pool built (send POOL <theta_r> <seed> backend=sketch first)"
            ),
            EngineError::BackendUnsupported { operation, backend } => write!(
                f,
                "backend unsupported: {operation} is not defined for the {backend} backend \
                 (see docs/protocol.md for the per-backend operation matrix)"
            ),
            EngineError::Protocol(reason) => write!(f, "{reason}"),
            EngineError::Busy { retry_after_ms } => {
                write!(f, "busy retry_after_ms={retry_after_ms}")
            }
            EngineError::Internal(reason) => write!(f, "internal: {reason}"),
            EngineError::Core(err) => write!(f, "{err}"),
            EngineError::Graph(err) => write!(f, "{err}"),
            EngineError::Diffusion(err) => write!(f, "{err}"),
            EngineError::Io(err) => write!(f, "io error: {err}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(err) => Some(err),
            EngineError::Graph(err) => Some(err),
            EngineError::Diffusion(err) => Some(err),
            EngineError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<imin_core::IminError> for EngineError {
    fn from(err: imin_core::IminError) -> Self {
        EngineError::Core(err)
    }
}

impl From<imin_graph::GraphError> for EngineError {
    fn from(err: imin_graph::GraphError) -> Self {
        EngineError::Graph(err)
    }
}

impl From<imin_diffusion::DiffusionError> for EngineError {
    fn from(err: imin_diffusion::DiffusionError) -> Self {
        EngineError::Diffusion(err)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(err: std::io::Error) -> Self {
        EngineError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(EngineError::NoGraph.to_string().contains("LOAD"));
        assert!(EngineError::NoPool.to_string().contains("POOL"));
        assert!(EngineError::NoSketchPool
            .to_string()
            .contains("backend=sketch"));
        let unsupported = EngineError::BackendUnsupported {
            operation: "SAVE",
            backend: "sketch",
        };
        assert!(
            unsupported.to_string().starts_with("backend unsupported"),
            "the wire reply must start with 'ERR backend unsupported': {unsupported}"
        );
        assert!(
            unsupported.to_string().contains("docs/protocol.md"),
            "the refusal must point operators at the protocol reference: {unsupported}"
        );
        let p = EngineError::Protocol("bad token".into());
        assert_eq!(p.to_string(), "bad token");
        let busy = EngineError::Busy { retry_after_ms: 42 };
        assert_eq!(busy.to_string(), "busy retry_after_ms=42");
        let internal = EngineError::Internal("handler panicked".into());
        assert!(internal.to_string().starts_with("internal:"));
        let c: EngineError = imin_core::IminError::ZeroBudget.into();
        assert!(std::error::Error::source(&c).is_some());
        let io: EngineError = std::io::Error::other("x").into();
        assert!(io.to_string().contains("io error"));
    }
}
