//! Single-run simulation of the independent cascade (IC) model.
//!
//! One simulation corresponds to one "round" of Monte-Carlo estimation
//! (§V-A): the seeds start active, and every newly activated vertex gets one
//! independent chance per out-edge to activate the target. Blocked vertices
//! can never be activated (Definition 2).

use imin_graph::{DiGraph, VertexId};
use rand::Rng;

/// A reusable cascade simulator.
///
/// Monte-Carlo estimation runs tens of thousands of cascades on the same
/// graph; the simulator keeps its visited-stamp array and frontier queue
/// allocated across runs.
#[derive(Clone, Debug)]
pub struct CascadeSimulator {
    stamps: Vec<u32>,
    stamp: u32,
    queue: Vec<u32>,
}

impl CascadeSimulator {
    /// Creates a simulator for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        CascadeSimulator {
            stamps: vec![0; n],
            stamp: 0,
            queue: Vec::new(),
        }
    }

    fn next_stamp(&mut self, n: usize) -> u32 {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.stamp == u32::MAX {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Runs one cascade and returns only the number of activated vertices.
    ///
    /// `blocked(v)` must return `true` for vertices that can never activate.
    /// Seeds are assumed valid (checked by the public wrappers); blocked
    /// seeds are skipped.
    pub fn run_count<R: Rng + ?Sized, F: FnMut(VertexId) -> bool>(
        &mut self,
        graph: &DiGraph,
        seeds: &[VertexId],
        mut blocked: F,
        rng: &mut R,
    ) -> usize {
        let stamp = self.next_stamp(graph.num_vertices());
        self.queue.clear();
        let mut count = 0usize;
        for &s in seeds {
            if s.index() >= graph.num_vertices() || blocked(s) {
                continue;
            }
            if self.stamps[s.index()] != stamp {
                self.stamps[s.index()] = stamp;
                self.queue.push(s.raw());
                count += 1;
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = VertexId::from_raw(self.queue[head]);
            head += 1;
            let targets = graph.out_neighbors(u);
            let probs = graph.out_probabilities(u);
            for (&t, &p) in targets.iter().zip(probs) {
                let ti = t as usize;
                if self.stamps[ti] == stamp {
                    continue;
                }
                // Cheap short-circuits for the deterministic edge cases keep
                // the RNG off the hot path when p is 0 or 1.
                let success = if p >= 1.0 {
                    true
                } else if p <= 0.0 {
                    false
                } else {
                    rng.gen_bool(p)
                };
                if !success {
                    continue;
                }
                let tv = VertexId::from_raw(t);
                if blocked(tv) {
                    continue;
                }
                self.stamps[ti] = stamp;
                self.queue.push(t);
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn deterministic_path() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(2), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn simulator_count_is_exact_on_deterministic_graphs() {
        let g = deterministic_path();
        let mut sim = CascadeSimulator::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sim.run_count(&g, &[vid(0)], |_| false, &mut rng), 4);
        assert_eq!(sim.run_count(&g, &[vid(2)], |_| false, &mut rng), 2);
        assert_eq!(sim.run_count(&g, &[vid(0)], |v| v == vid(1), &mut rng), 1);
        // Blocked seed contributes nothing.
        assert_eq!(sim.run_count(&g, &[vid(0)], |v| v == vid(0), &mut rng), 0);
        // A duplicated seed counts once.
        assert_eq!(sim.run_count(&g, &[vid(0), vid(0)], |_| false, &mut rng), 4);
        // An edge with p = 0 never fires; one with p = 1 always does.
        for (p, count) in [(0.0, 1), (1.0, 2)] {
            let edge = DiGraph::from_edges(2, vec![(vid(0), vid(1), p)]).unwrap();
            for _ in 0..50 {
                let got = sim.run_count(&edge, &[vid(0)], |_| false, &mut rng);
                assert_eq!(got, count, "p = {p}");
            }
        }
    }

    #[test]
    fn probabilistic_edge_fires_with_expected_frequency() {
        // 0 -> 1 with p = 0.3: over many runs the average spread is ~1.3.
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(1), 0.3)]).unwrap();
        let mut sim = CascadeSimulator::new(2);
        let mut rng = StdRng::seed_from_u64(7);
        let rounds = 20_000;
        let total: usize = (0..rounds)
            .map(|_| sim.run_count(&g, &[vid(0)], |_| false, &mut rng))
            .sum();
        let mean = total as f64 / rounds as f64;
        assert!(
            (mean - 1.3).abs() < 0.02,
            "mean spread {mean} too far from 1.3"
        );
    }
}
