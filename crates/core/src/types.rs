//! Shared configuration and result types for the IMIN algorithms.

use imin_graph::VertexId;
use std::time::Duration;

/// Tuning knobs shared by every algorithm in the crate.
///
/// The defaults follow the paper's experimental setting (§VI-A): θ = 10 000
/// sampled graphs per greedy round, r = 10 000 Monte-Carlo rounds for the
/// baseline, all available cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgorithmConfig {
    /// Number of sampled graphs θ used per round by the dominator-tree
    /// estimator (Algorithm 2).
    pub theta: usize,
    /// Number of Monte-Carlo rounds r used by the baseline greedy algorithm
    /// and by spread evaluation.
    pub mcs_rounds: usize,
    /// Number of worker threads used by sampling and Monte-Carlo estimation.
    pub threads: usize,
    /// Base RNG seed; all randomness in an algorithm run derives from it, so
    /// a fixed configuration is fully reproducible.
    pub seed: u64,
}

impl Default for AlgorithmConfig {
    fn default() -> Self {
        AlgorithmConfig {
            theta: 10_000,
            mcs_rounds: 10_000,
            threads: imin_diffusion::montecarlo::default_threads(),
            seed: 0xD0_0D1E,
        }
    }
}

impl AlgorithmConfig {
    /// A small, fast configuration used by unit/integration tests and doc
    /// examples (θ = r = 200, single-threaded for determinism).
    pub fn fast_for_tests() -> Self {
        AlgorithmConfig {
            theta: 200,
            mcs_rounds: 200,
            threads: 1,
            seed: 0xBEEF,
        }
    }

    /// Sets θ, the number of sampled graphs per round.
    pub fn with_theta(mut self, theta: usize) -> Self {
        self.theta = theta;
        self
    }

    /// Sets r, the number of Monte-Carlo rounds.
    pub fn with_mcs_rounds(mut self, rounds: usize) -> Self {
        self.mcs_rounds = rounds;
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Bookkeeping collected while an algorithm runs, reported alongside the
/// blocker set (the efficiency experiments of Figures 6–11 are built from
/// these numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelectionStats {
    /// Total number of sampled graphs drawn (dominator-tree estimator):
    /// θ per estimator pass.
    pub samples_drawn: usize,
    /// Sampled graphs the estimator actually rebuilt, at most
    /// `samples_drawn`: a pooled greedy round after the first rebuilds only
    /// the realisations its last treatment change can affect.
    pub samples_rebuilt: usize,
    /// Rebuilt sampled graphs whose cascade the estimator replayed from
    /// the cascade its query's first pass recorded instead of reading the
    /// pool again, at most `samples_rebuilt`.
    pub samples_replayed: usize,
    /// Total number of Monte-Carlo cascade rounds simulated.
    pub mcs_rounds_run: usize,
    /// Number of greedy rounds / replacement rounds executed.
    pub rounds: usize,
    /// Wall-clock time of the selection.
    pub elapsed: Duration,
}

impl SelectionStats {
    /// Adds the counters of `other` into `self` (used when an algorithm is
    /// composed of phases).
    pub fn absorb(&mut self, other: &SelectionStats) {
        self.samples_drawn += other.samples_drawn;
        self.samples_rebuilt += other.samples_rebuilt;
        self.samples_replayed += other.samples_replayed;
        self.mcs_rounds_run += other.mcs_rounds_run;
        self.rounds += other.rounds;
        self.elapsed += other.elapsed;
    }
}

/// The outcome of a blocker-selection algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockerSelection {
    /// The chosen blockers, in selection order, expressed as vertices of the
    /// *original* (pre-seed-merge) graph.
    pub blockers: Vec<VertexId>,
    /// The algorithm's own estimate of the expected spread that remains
    /// after blocking (in original-graph terms, seeds included), if the
    /// algorithm produces one as a by-product.
    pub estimated_spread: Option<f64>,
    /// Edges removed by an edge-blocking request
    /// ([`crate::Intervention::BlockEdges`]), in selection order. Empty for
    /// vertex-blocking and prebunking requests, whose choices land in
    /// `blockers`.
    pub blocked_edges: Vec<(VertexId, VertexId)>,
    /// Resource counters.
    pub stats: SelectionStats,
}

impl BlockerSelection {
    /// Creates a selection with empty statistics.
    pub fn new(blockers: Vec<VertexId>) -> Self {
        BlockerSelection {
            blockers,
            estimated_spread: None,
            blocked_edges: Vec::new(),
            stats: SelectionStats::default(),
        }
    }

    /// Number of blockers selected.
    pub fn len(&self) -> usize {
        self.blockers.len()
    }

    /// Returns `true` if no blocker was selected.
    pub fn is_empty(&self) -> bool {
        self.blockers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = AlgorithmConfig::default()
            .with_theta(5)
            .with_mcs_rounds(7)
            .with_threads(0)
            .with_seed(9);
        assert_eq!(c.theta, 5);
        assert_eq!(c.mcs_rounds, 7);
        assert_eq!(c.threads, 1, "thread count is clamped to at least 1");
        assert_eq!(c.seed, 9);
        let fast = AlgorithmConfig::fast_for_tests();
        assert!(fast.theta < 1_000 && fast.threads == 1);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = SelectionStats {
            samples_drawn: 10,
            samples_rebuilt: 4,
            samples_replayed: 3,
            mcs_rounds_run: 20,
            rounds: 1,
            elapsed: Duration::from_millis(5),
        };
        let b = SelectionStats {
            samples_drawn: 1,
            samples_rebuilt: 1,
            samples_replayed: 0,
            mcs_rounds_run: 2,
            rounds: 3,
            elapsed: Duration::from_millis(10),
        };
        a.absorb(&b);
        assert_eq!(a.samples_drawn, 11);
        assert_eq!(a.samples_rebuilt, 5);
        assert_eq!(a.samples_replayed, 3);
        assert_eq!(a.mcs_rounds_run, 22);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.elapsed, Duration::from_millis(15));
    }

    #[test]
    fn selection_len_and_emptiness() {
        let sel = BlockerSelection::new(vec![VertexId::new(1), VertexId::new(3)]);
        assert_eq!(sel.len(), 2);
        assert!(!sel.is_empty());
        assert!(sel.estimated_spread.is_none());
        let empty = BlockerSelection::new(vec![]);
        assert!(empty.is_empty());
    }
}
