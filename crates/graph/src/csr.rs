//! Compressed-sparse-row (CSR) directed graph with edge propagation
//! probabilities.
//!
//! [`DiGraph`] is the central data structure of the workspace. Both the
//! out-adjacency and the in-adjacency are materialised, because the paper's
//! algorithms need both directions:
//!
//! * live-edge sampling and BFS/DFS walk the **out**-edges of each vertex
//!   (§V-B2, Definition 4),
//! * the weighted-cascade probability model assigns `p(u,v) = 1/d_in(v)`
//!   and the blocker semantics of Definition 2 zero all **in**-edges of a
//!   blocked vertex,
//! * the multi-seed merge of §V rewires the in-edges of seed out-neighbours.
//!
//! Edges of a vertex are stored sorted by target (respectively source) id,
//! which makes `has_edge`/`edge_probability` a binary search and gives
//! deterministic iteration order.

use crate::error::validate_probability;
use crate::{GraphError, Result, VertexId};

/// A borrowed view of a single directed edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRef {
    /// Source vertex of the edge.
    pub source: VertexId,
    /// Target vertex of the edge.
    pub target: VertexId,
    /// Propagation probability `p(source, target)` under the IC model.
    pub probability: f64,
}

/// A directed graph in CSR form with a propagation probability per edge.
///
/// Construct one through [`crate::GraphBuilder`], the [`crate::generators`]
/// module, or [`crate::edgelist`] I/O. The structure is immutable except for
/// probability reassignment (see [`DiGraph::map_probabilities`]), which keeps
/// the topology fixed — exactly the operations the influence-minimization
/// algorithms need.
#[derive(Clone, Debug)]
pub struct DiGraph {
    num_vertices: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<u32>,
    out_probs: Vec<f64>,
    /// Per-out-edge integer coin thresholds (see [`coin_threshold`]),
    /// precomputed so live-edge samplers can decide each coin with a single
    /// `u64` comparison instead of float arithmetic.
    out_thresholds: Vec<u64>,
    in_offsets: Vec<usize>,
    in_sources: Vec<u32>,
    in_probs: Vec<f64>,
}

/// Sentinel threshold meaning "always live" (probability ≥ 1).
pub const THRESHOLD_ALWAYS: u64 = u64::MAX;

/// The integer coin threshold of a probability: the number of 53-bit
/// mantissa values `k` with `k · 2⁻⁵³ < p`.
///
/// A uniform draw `k = rng.next_u64() >> 11` is live iff `k < threshold`,
/// which is **bit-identical** to `rand`'s `gen_bool(p)` (`(k as f64) · 2⁻⁵³
/// < p`): multiplying an `f64` in `(0, 1)` by `2⁵³` only shifts the
/// exponent, so `p · 2⁵³` is exact and `ceil` of it counts the passing `k`
/// exactly. Probabilities ≤ 0 map to 0 (never live) and ≥ 1 to
/// [`THRESHOLD_ALWAYS`] so samplers can skip the coin flip entirely, keeping
/// RNG streams identical to the branching `gen_bool` formulation.
pub fn coin_threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        THRESHOLD_ALWAYS
    } else {
        (p * 9_007_199_254_740_992.0).ceil() as u64 // p · 2⁵³, exact
    }
}

impl DiGraph {
    /// Builds a graph from a vertex count and a list of `(source, target,
    /// probability)` triples.
    ///
    /// Parallel edges are merged with the noisy-or rule
    /// `1 - Π(1 - p_i)` (the same combination rule the paper uses when
    /// merging multiple seeds into one, §V). Self loops are kept as supplied;
    /// use [`crate::GraphBuilder`] if self loops must be rejected or dropped.
    ///
    /// # Errors
    /// Returns an error if any endpoint is out of range or a probability is
    /// not a finite value in `[0, 1]`.
    pub fn from_edges(
        num_vertices: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
    ) -> Result<Self> {
        if num_vertices >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices {
                requested: num_vertices,
            });
        }
        let mut triples: Vec<(u32, u32, f64)> = Vec::new();
        for (u, v, p) in edges {
            if u.index() >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.index(),
                    num_vertices,
                });
            }
            if v.index() >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v.index(),
                    num_vertices,
                });
            }
            validate_probability(p)?;
            triples.push((u.raw(), v.raw(), p));
        }
        Ok(Self::from_validated_triples(num_vertices, triples))
    }

    /// Builds a graph from already-validated triples, merging duplicates.
    ///
    /// This is the common back end of [`DiGraph::from_edges`] and
    /// [`crate::GraphBuilder::build`].
    pub(crate) fn from_validated_triples(
        num_vertices: usize,
        mut triples: Vec<(u32, u32, f64)>,
    ) -> Self {
        // Sort by (source, target) and merge parallel edges with noisy-or.
        triples.sort_unstable_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(triples.len());
        for (u, v, p) in triples {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => {
                    last.2 = 1.0 - (1.0 - last.2) * (1.0 - p);
                }
                _ => merged.push((u, v, p)),
            }
        }

        let m = merged.len();
        let mut out_offsets = vec![0usize; num_vertices + 1];
        for &(u, _, _) in &merged {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0u32; m];
        let mut out_probs = vec![0f64; m];
        {
            let mut cursor = out_offsets.clone();
            for &(u, v, p) in &merged {
                let pos = cursor[u as usize];
                out_targets[pos] = v;
                out_probs[pos] = p;
                cursor[u as usize] += 1;
            }
        }

        // Build the in-adjacency (sorted by source id within each target).
        let mut in_offsets = vec![0usize; num_vertices + 1];
        for &(_, v, _) in &merged {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0u32; m];
        let mut in_probs = vec![0f64; m];
        {
            let mut cursor = in_offsets.clone();
            // `merged` is sorted by (source, target); iterating in that order
            // fills each in-adjacency bucket in increasing source order.
            for &(u, v, p) in &merged {
                let pos = cursor[v as usize];
                in_sources[pos] = u;
                in_probs[pos] = p;
                cursor[v as usize] += 1;
            }
        }

        let out_thresholds = out_probs.iter().map(|&p| coin_threshold(p)).collect();
        DiGraph {
            num_vertices,
            out_offsets,
            out_targets,
            out_probs,
            out_thresholds,
            in_offsets,
            in_sources,
            in_probs,
        }
    }

    /// Creates an empty graph with `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        DiGraph {
            num_vertices,
            out_offsets: vec![0; num_vertices + 1],
            out_targets: Vec::new(),
            out_probs: Vec::new(),
            out_thresholds: Vec::new(),
            in_offsets: vec![0; num_vertices + 1],
            in_sources: Vec::new(),
            in_probs: Vec::new(),
        }
    }

    /// Recomputes the integer coin thresholds from the current
    /// probabilities. Must be called by anything that mutates `out_probs`.
    fn rebuild_thresholds(&mut self) {
        self.out_thresholds.clear();
        self.out_thresholds
            .extend(self.out_probs.iter().map(|&p| coin_threshold(p)));
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges `m` (after merging parallel edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out_targets.is_empty()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + Clone + '_ {
        (0..self.num_vertices as u32).map(VertexId::from_raw)
    }

    /// Out-degree of `u` (number of distinct out-neighbours).
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        let i = u.index();
        self.out_offsets[i + 1] - self.out_offsets[i]
    }

    /// In-degree of `v` (number of distinct in-neighbours).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.in_offsets[i + 1] - self.in_offsets[i]
    }

    /// Total degree (in + out), the quantity reported as `d_avg`/`d_max`
    /// in Table IV of the paper.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Slice of out-neighbour ids of `u`, sorted by id.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[u32] {
        let i = u.index();
        &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// Slice of integer coin thresholds parallel to
    /// [`DiGraph::out_neighbors`] (see [`coin_threshold`]). Live-edge
    /// samplers use these to decide each coin with one `u64` comparison:
    /// `(rng.next_u64() >> 11) < threshold`, with 0 / [`THRESHOLD_ALWAYS`]
    /// marking deterministic edges whose coin must not be flipped at all.
    #[inline]
    pub fn out_coin_thresholds(&self, u: VertexId) -> &[u64] {
        let i = u.index();
        &self.out_thresholds[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// Every edge's coin threshold in out-CSR order: the concatenation of
    /// [`DiGraph::out_coin_thresholds`] over all vertices, so entry `e` is
    /// the coin of the graph's `e`-th edge slot.
    #[inline]
    pub fn coin_thresholds(&self) -> &[u64] {
        &self.out_thresholds
    }

    /// Slice of probabilities parallel to [`DiGraph::out_neighbors`].
    #[inline]
    pub fn out_probabilities(&self, u: VertexId) -> &[f64] {
        let i = u.index();
        &self.out_probs[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// Slice of in-neighbour ids of `v`, sorted by id.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Slice of probabilities parallel to [`DiGraph::in_neighbors`].
    #[inline]
    pub fn in_probabilities(&self, v: VertexId) -> &[f64] {
        let i = v.index();
        &self.in_probs[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Iterator over `(neighbour, probability)` pairs of the out-edges of `u`.
    pub fn out_edges(&self, u: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.out_neighbors(u)
            .iter()
            .zip(self.out_probabilities(u))
            .map(|(&t, &p)| (VertexId::from_raw(t), p))
    }

    /// Iterator over `(neighbour, probability)` pairs of the in-edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.in_neighbors(v)
            .iter()
            .zip(self.in_probabilities(v))
            .map(|(&s, &p)| (VertexId::from_raw(s), p))
    }

    /// Iterator over every edge of the graph in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.vertices().flat_map(move |u| {
            self.out_edges(u).map(move |(v, p)| EdgeRef {
                source: u,
                target: v,
                probability: p,
            })
        })
    }

    /// Returns `true` if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_probability(u, v).is_some()
    }

    /// Returns the propagation probability of edge `(u, v)` if it exists.
    pub fn edge_probability(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let targets = self.out_neighbors(u);
        targets
            .binary_search(&v.raw())
            .ok()
            .map(|pos| self.out_probabilities(u)[pos])
    }

    /// Returns a new graph with the same topology and probabilities
    /// re-assigned by `f(source, target, old_probability)`.
    ///
    /// This is how the Trivalency and Weighted-Cascade models of §VI-A are
    /// applied to a topology: the closure receives both endpoints so it can
    /// inspect degrees (e.g. `1 / d_in(target)` for WC).
    ///
    /// # Errors
    /// Returns an error if the closure produces a probability outside
    /// `[0, 1]` or a non-finite value.
    pub fn map_probabilities<F>(&self, mut f: F) -> Result<DiGraph>
    where
        F: FnMut(VertexId, VertexId, f64) -> f64,
    {
        let mut out = self.clone();
        for u in 0..self.num_vertices {
            let (start, end) = (self.out_offsets[u], self.out_offsets[u + 1]);
            for idx in start..end {
                let v = self.out_targets[idx];
                let p = f(VertexId::new(u), VertexId::from_raw(v), self.out_probs[idx]);
                validate_probability(p)?;
                out.out_probs[idx] = p;
            }
        }
        // Rebuild the in-probability array so both views stay consistent.
        for v in 0..self.num_vertices {
            let (start, end) = (self.in_offsets[v], self.in_offsets[v + 1]);
            for idx in start..end {
                let u = VertexId::from_raw(self.in_sources[idx]);
                let p = out
                    .edge_probability(u, VertexId::new(v))
                    .expect("in-edge must exist in the out-adjacency");
                out.in_probs[idx] = p;
            }
        }
        out.rebuild_thresholds();
        Ok(out)
    }

    /// Returns the reverse graph (every edge `(u, v)` becomes `(v, u)` with
    /// the same probability).
    pub fn reverse(&self) -> DiGraph {
        let mut reversed = DiGraph {
            num_vertices: self.num_vertices,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            out_probs: self.in_probs.clone(),
            out_thresholds: Vec::new(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
            in_probs: self.out_probs.clone(),
        };
        reversed.rebuild_thresholds();
        reversed
    }

    /// Maximum total degree over all vertices (`d_max` in Table IV).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average total degree (`d_avg` in Table IV). For a directed graph this
    /// is `2m / n` because each edge contributes one out- and one in-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Approximate heap memory used by the CSR arrays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<u32>()
            + self.in_sources.len() * std::mem::size_of::<u32>()
            + self.out_probs.len() * std::mem::size_of::<f64>()
            + self.in_probs.len() * std::mem::size_of::<f64>()
            + self.out_thresholds.len() * std::mem::size_of::<u64>()
    }

    /// Raw out-CSR arrays `(offsets, targets, probabilities)` — the exact
    /// in-memory arenas, exposed crate-internally so the binary
    /// (de)serialisation in [`crate::binfmt`] can write them as flat slices.
    pub(crate) fn raw_out_csr(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.out_offsets, &self.out_targets, &self.out_probs)
    }

    /// Rebuilds a graph from its raw out-CSR arrays, validating the CSR
    /// invariants and re-deriving the in-adjacency and the coin thresholds.
    /// This is the deserialisation back end of [`crate::binfmt`].
    pub(crate) fn from_raw_out_csr(
        num_vertices: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<u32>,
        out_probs: Vec<f64>,
    ) -> Result<Self> {
        let corrupt = |message: String| GraphError::CorruptBinary { message };
        if num_vertices >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices {
                requested: num_vertices,
            });
        }
        let m = out_targets.len();
        if out_offsets.len() != num_vertices + 1 {
            return Err(corrupt(format!(
                "offset array has {} entries, expected {}",
                out_offsets.len(),
                num_vertices + 1
            )));
        }
        if out_offsets[0] != 0 || *out_offsets.last().expect("offsets are non-empty") != m {
            return Err(corrupt("offset array does not span the edge list".into()));
        }
        if out_probs.len() != m {
            return Err(corrupt(format!(
                "probability array has {} entries, expected {m}",
                out_probs.len()
            )));
        }
        for w in out_offsets.windows(2) {
            if w[0] > w[1] {
                return Err(corrupt("offset array is not monotone".into()));
            }
        }
        for u in 0..num_vertices {
            let targets = &out_targets[out_offsets[u]..out_offsets[u + 1]];
            for w in targets.windows(2) {
                if w[0] >= w[1] {
                    return Err(corrupt(format!(
                        "out-adjacency of vertex {u} is not strictly sorted"
                    )));
                }
            }
            if let Some(&last) = targets.last() {
                if last as usize >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: last as usize,
                        num_vertices,
                    });
                }
            }
        }
        for &p in &out_probs {
            validate_probability(p)?;
        }

        // Re-derive the in-adjacency with a counting sort. Iterating edges in
        // (source, target) order fills each in-bucket in increasing source
        // order, the same invariant `from_validated_triples` establishes.
        let mut in_offsets = vec![0usize; num_vertices + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0u32; m];
        let mut in_probs = vec![0f64; m];
        {
            let mut cursor = in_offsets.clone();
            for u in 0..num_vertices {
                for idx in out_offsets[u]..out_offsets[u + 1] {
                    let v = out_targets[idx] as usize;
                    let pos = cursor[v];
                    in_sources[pos] = u as u32;
                    in_probs[pos] = out_probs[idx];
                    cursor[v] += 1;
                }
            }
        }
        let out_thresholds = out_probs.iter().map(|&p| coin_threshold(p)).collect();
        Ok(DiGraph {
            num_vertices,
            out_offsets,
            out_targets,
            out_probs,
            out_thresholds,
            in_offsets,
            in_sources,
            in_probs,
        })
    }

    /// Checks internal CSR invariants; used by tests and debug assertions.
    ///
    /// Verified invariants:
    /// * offsets are monotonically non-decreasing and end at `m`,
    /// * adjacency lists are strictly sorted (no duplicate edges),
    /// * every out-edge has a matching in-edge with the same probability,
    /// * all probabilities are finite and within `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        let m = self.num_edges();
        if *self.out_offsets.last().unwrap_or(&0) != m || *self.in_offsets.last().unwrap_or(&0) != m
        {
            return Err(GraphError::InvalidGeneratorArgument {
                message: "CSR offsets do not cover all edges".into(),
            });
        }
        for w in self
            .out_offsets
            .windows(2)
            .chain(self.in_offsets.windows(2))
        {
            if w[0] > w[1] {
                return Err(GraphError::InvalidGeneratorArgument {
                    message: "CSR offsets are not monotone".into(),
                });
            }
        }
        for u in self.vertices() {
            let targets = self.out_neighbors(u);
            for w in targets.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::InvalidGeneratorArgument {
                        message: format!("out-adjacency of {u} is not strictly sorted"),
                    });
                }
            }
            let sources = self.in_neighbors(u);
            for w in sources.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::InvalidGeneratorArgument {
                        message: format!("in-adjacency of {u} is not strictly sorted"),
                    });
                }
            }
        }
        if self.out_thresholds.len() != m {
            return Err(GraphError::InvalidGeneratorArgument {
                message: "coin-threshold array out of sync with the edge list".into(),
            });
        }
        for (&p, &t) in self.out_probs.iter().zip(&self.out_thresholds) {
            if t != coin_threshold(p) {
                return Err(GraphError::InvalidGeneratorArgument {
                    message: format!("stale coin threshold for probability {p}"),
                });
            }
        }
        for e in self.edges() {
            validate_probability(e.probability)?;
            let p_in = self
                .in_edges(e.target)
                .find(|(s, _)| *s == e.source)
                .map(|(_, p)| p);
            if p_in != Some(e.probability) {
                return Err(GraphError::InvalidGeneratorArgument {
                    message: format!(
                        "edge ({}, {}) missing or inconsistent in the in-adjacency",
                        e.source, e.target
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn coin_thresholds_match_float_coins_exactly() {
        // The integer decision `k < coin_threshold(p)` must agree with the
        // float decision `(k as f64) · 2⁻⁵³ < p` for every mantissa value k,
        // including the boundary values around p · 2⁵³.
        let scale = 1.0 / 9_007_199_254_740_992.0; // 2⁻⁵³
        let probs = [
            0.5,
            0.25,
            1.0 / 3.0,
            0.123_456_789,
            1e-9,
            1.0 - 1e-12,
            f64::EPSILON,
            0.999_999_999,
        ];
        for &p in &probs {
            let t = coin_threshold(p);
            assert!(t > 0 && t != THRESHOLD_ALWAYS, "p={p} must need a coin");
            // Probe k around the threshold plus the extremes.
            for k in [0u64, 1, t.saturating_sub(2), t - 1, t, t + 1, (1 << 53) - 1] {
                if k >= (1 << 53) {
                    continue;
                }
                let float_live = (k as f64) * scale < p;
                let int_live = k < t;
                assert_eq!(int_live, float_live, "p={p}, k={k}");
            }
        }
        assert_eq!(coin_threshold(0.0), 0);
        assert_eq!(coin_threshold(-1.0), 0);
        assert_eq!(coin_threshold(1.0), THRESHOLD_ALWAYS);
        assert_eq!(coin_threshold(1.5), THRESHOLD_ALWAYS);
    }

    #[test]
    fn thresholds_follow_probability_reassignment() {
        let g = diamond();
        assert!(g.validate().is_ok());
        let wc = g
            .map_probabilities(|_, v, _| 1.0 / g.in_degree(v).max(1) as f64)
            .unwrap();
        assert!(wc.validate().is_ok(), "thresholds rebuilt after remap");
        let rev = wc.reverse();
        assert!(rev.validate().is_ok(), "thresholds rebuilt after reverse");
        for u in rev.vertices() {
            assert_eq!(
                rev.out_coin_thresholds(u).len(),
                rev.out_degree(u),
                "thresholds stay parallel to the adjacency"
            );
        }
    }

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 0.5),
                (vid(0), vid(2), 0.25),
                (vid(1), vid(3), 1.0),
                (vid(2), vid(3), 0.75),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.out_degree(vid(0)), 2);
        assert_eq!(g.in_degree(vid(0)), 0);
        assert_eq!(g.in_degree(vid(3)), 2);
        assert_eq!(g.out_degree(vid(3)), 0);
        assert_eq!(g.degree(vid(1)), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_and_probabilities() {
        let g = diamond();
        assert_eq!(g.out_neighbors(vid(0)), &[1, 2]);
        assert_eq!(g.out_probabilities(vid(0)), &[0.5, 0.25]);
        assert_eq!(g.in_neighbors(vid(3)), &[1, 2]);
        assert_eq!(g.in_probabilities(vid(3)), &[1.0, 0.75]);
        assert_eq!(g.edge_probability(vid(0), vid(1)), Some(0.5));
        assert_eq!(g.edge_probability(vid(1), vid(0)), None);
        assert!(g.has_edge(vid(2), vid(3)));
        assert!(!g.has_edge(vid(3), vid(2)));
    }

    #[test]
    fn edges_iterator_is_sorted_by_source_then_target() {
        let g = diamond();
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|e| (e.source.raw(), e.target.raw()))
            .collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn parallel_edges_are_merged_noisy_or() {
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(1), 0.5), (vid(0), vid(1), 0.5)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        let p = g.edge_probability(vid(0), vid(1)).unwrap();
        assert!((p - 0.75).abs() < 1e-12, "noisy-or of 0.5 and 0.5 is 0.75");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(DiGraph::from_edges(2, vec![(vid(0), vid(5), 0.5)]).is_err());
        assert!(DiGraph::from_edges(2, vec![(vid(5), vid(0), 0.5)]).is_err());
        assert!(DiGraph::from_edges(2, vec![(vid(0), vid(1), 1.5)]).is_err());
        assert!(DiGraph::from_edges(2, vec![(vid(0), vid(1), f64::NAN)]).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.out_degree(vid(2)), 0);
        assert!(g.validate().is_ok());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn map_probabilities_weighted_cascade() {
        let g = diamond();
        let wc = g
            .map_probabilities(|_, v, _| 1.0 / g.in_degree(v) as f64)
            .unwrap();
        assert_eq!(wc.edge_probability(vid(0), vid(1)), Some(1.0));
        assert_eq!(wc.edge_probability(vid(1), vid(3)), Some(0.5));
        assert_eq!(wc.edge_probability(vid(2), vid(3)), Some(0.5));
        // In-adjacency stays consistent after the rewrite.
        assert!(wc.validate().is_ok());
    }

    #[test]
    fn map_probabilities_rejects_invalid_output() {
        let g = diamond();
        assert!(g.map_probabilities(|_, _, _| 2.0).is_err());
        assert!(g.map_probabilities(|_, _, _| f64::NAN).is_err());
    }

    #[test]
    fn reverse_swaps_directions() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(vid(1), vid(0)));
        assert!(r.has_edge(vid(3), vid(2)));
        assert!(!r.has_edge(vid(0), vid(1)));
        assert_eq!(r.edge_probability(vid(3), vid(1)), Some(1.0));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_accepts_well_formed_graphs() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn memory_estimate_is_nonzero() {
        assert!(diamond().memory_bytes() > 0);
    }

    #[test]
    fn self_loops_are_representable_via_from_edges() {
        let g = DiGraph::from_edges(2, vec![(vid(0), vid(0), 0.3), (vid(0), vid(1), 0.2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_probability(vid(0), vid(0)), Some(0.3));
        assert!(g.validate().is_ok());
    }
}
