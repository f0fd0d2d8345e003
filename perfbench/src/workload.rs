//! The four workloads and their request streams.
//!
//! Every request line the server receives is a pure function of the
//! workload and the workload seed: the set-up lines are fixed, the measured
//! window's `i`-th line is `Stream::line(i)`, and the probe questions (the
//! ones every run answers, whose mean spread is `spread_mean`) do not depend
//! on the seed at all.

use std::collections::HashSet;

/// Vertices of the reference graph.
pub const N: u32 = 50_000;
/// The 50k-vertex weighted-cascade reference graph (399,980 edges).
pub const LOAD_LINE: &str = "LOAD pa n=50000 m0=4 bidir=true seed=20230227 model=wc";
/// Generator arguments of [`LOAD_LINE`], for in-process rebuilds.
pub const GRAPH_M0: usize = 4;
/// Generator seed of [`LOAD_LINE`].
pub const GRAPH_SEED: u64 = 20_230_227;
/// RNG seed of every pool the benchmark builds.
pub const POOL_SEED: u64 = 7;
/// Seed of the fixed probe list; no window question ever uses a probe pair.
pub const PROBE_SEED: u64 = 0x0005_eed0_0b5e;
/// A seed kept out of tuning, for later performance claims.
pub const HELD_OUT_SEED: u64 = 20_231_101;
/// Size of the skewed question set of `sketch-hot`: 4x the server's
/// default 256-entry result cache.
pub const HOT_SET: usize = 1024;
/// Zipf exponent of `sketch-hot` draws.
pub const ZIPF_S: f64 = 1.0;
/// Distinct questions prepared for a distinct-question window; far more
/// than any window of up to 60 s gets through.
pub const MAX_DISTINCT: usize = 20_000;
/// Seed vertices are drawn from `HUB_CUTOFF..N`. Preferential attachment
/// makes the oldest vertices its hubs, and a hub seed's cascade (hence the
/// question's cost) is up to ~100x a typical one; leaving the hubs out
/// keeps the cost distribution the same from seed to seed.
pub const HUB_CUTOFF: u32 = 5_000;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's question: budget-8 vertex blocking, never repeated.
    VertexDistinct,
    /// Edge blocking and prebunking at budget 2.
    Families,
    /// Cheap reverse-sketch questions, mostly cache hits.
    SketchHot,
    /// Compress, save, restart, map, then budget-2 vertex questions.
    Restart,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::VertexDistinct,
        Workload::Families,
        Workload::SketchHot,
        Workload::Restart,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VertexDistinct => "vertex-distinct",
            Workload::Families => "families",
            Workload::SketchHot => "sketch-hot",
            Workload::Restart => "restart",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// θ of the forward pool, or θ_r of the sketch pool.
    pub fn theta(self) -> usize {
        match self {
            Workload::VertexDistinct | Workload::Restart => 2_000,
            Workload::Families => 1_000,
            Workload::SketchHot => 200_000,
        }
    }

    /// Budget of every question.
    pub fn budget(self) -> usize {
        match self {
            Workload::VertexDistinct | Workload::SketchHot => 8,
            Workload::Families | Workload::Restart => 2,
        }
    }

    /// The `POOL` line of the set-up.
    pub fn pool_line(self) -> String {
        match self {
            Workload::SketchHot => format!("POOL {} {POOL_SEED} backend=sketch", self.theta()),
            _ => format!("POOL {} {POOL_SEED}", self.theta()),
        }
    }

    /// Whether the `i`-th window question takes the workload's second
    /// variant: every other question, except that `families` asks two edge
    /// questions per prebunk question. Prebunk answers take ~1.5x as long,
    /// so an even mix would put the median in the gap between the two
    /// latency clusters, where it jumps from run to run.
    fn alt(self, i: usize) -> bool {
        match self {
            Workload::Families => i % 3 == 2,
            _ => i % 2 == 1,
        }
    }

    /// The question for one seed pair; `alt` picks the workload's second
    /// variant.
    fn question(self, (a, b): (u32, u32), alt: bool) -> String {
        let budget = self.budget();
        let tail = match (self, alt) {
            (Workload::VertexDistinct | Workload::Restart, false) => "alg=advanced",
            (Workload::VertexDistinct | Workload::Restart, true) => "alg=replace",
            (Workload::Families, false) => "intervene=edge",
            (Workload::Families, true) => "intervene=prebunk:0.2",
            (Workload::SketchHot, _) => "alg=ris-greedy",
        };
        format!("QUERY ic seeds={a},{b} budget={budget} {tail}")
    }

    /// The fixed probe questions, answered by every run of the workload.
    pub fn probes(self) -> Vec<String> {
        let count = match self {
            Workload::Families => 2,
            Workload::SketchHot => 8,
            Workload::VertexDistinct | Workload::Restart => 4,
        };
        probe_pairs()
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(i, pair)| self.question(pair, i % 2 == 1))
            .collect()
    }
}

/// splitmix64: a tiny, well-mixed generator whose output is fixed forever.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one (seed, purpose) pair.
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut g = SplitMix(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

const PURPOSE_PAIRS: u64 = 1;
const PURPOSE_ZIPF: u64 = 2;

/// Canonical (unordered) form of a seed pair.
fn key((a, b): (u32, u32)) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// `count` distinct two-seed pairs from `rng`, skipping any in `exclude`.
fn distinct_pairs(
    rng: &mut SplitMix,
    count: usize,
    exclude: &HashSet<(u32, u32)>,
) -> Vec<(u32, u32)> {
    let mut seen = HashSet::with_capacity(count);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let a = HUB_CUTOFF + rng.below(N - HUB_CUTOFF);
        let b = HUB_CUTOFF + rng.below(N - HUB_CUTOFF);
        let k = key((a, b));
        if a != b && !exclude.contains(&k) && seen.insert(k) {
            pairs.push((a, b));
        }
    }
    pairs
}

/// The seed-independent probe pairs.
fn probe_pairs() -> Vec<(u32, u32)> {
    distinct_pairs(
        &mut SplitMix::new(PROBE_SEED, PURPOSE_PAIRS),
        8,
        &HashSet::new(),
    )
}

/// The measured window's request stream of one (workload, seed).
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// Distinct pairs: the window's questions in order, or the skewed set.
    pairs: Vec<(u32, u32)>,
    /// Cumulative Zipf weights over `pairs` (`sketch-hot` only).
    zipf_cdf: Vec<f64>,
}

impl Stream {
    /// Prepares the stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let probes: HashSet<_> = probe_pairs().into_iter().map(key).collect();
        let mut rng = SplitMix::new(seed, PURPOSE_PAIRS);
        let (pairs, zipf_cdf) = if workload == Workload::SketchHot {
            let pairs = distinct_pairs(&mut rng, HOT_SET, &probes);
            let mut total = 0.0;
            let cdf = (1..=HOT_SET)
                .map(|rank| {
                    total += (rank as f64).powf(-ZIPF_S);
                    total
                })
                .collect::<Vec<_>>();
            (pairs, cdf.iter().map(|c| c / total).collect())
        } else {
            (distinct_pairs(&mut rng, MAX_DISTINCT, &probes), Vec::new())
        };
        Stream {
            workload,
            seed,
            pairs,
            zipf_cdf,
        }
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Number of window lines available (`None`: unbounded).
    pub fn len(&self) -> Option<usize> {
        (self.workload != Workload::SketchHot).then_some(self.pairs.len())
    }

    /// Index into the skewed set of the `i`-th `sketch-hot` request.
    pub fn hot_rank(&self, i: usize) -> usize {
        let u = SplitMix::new(
            self.seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            PURPOSE_ZIPF,
        )
        .unit();
        self.zipf_cdf.partition_point(|&c| c <= u).min(HOT_SET - 1)
    }

    /// Question id of the `i`-th window request: equal ids mean equal lines.
    pub fn question_id(&self, i: usize) -> usize {
        match self.workload {
            Workload::SketchHot => self.hot_rank(i),
            _ => i,
        }
    }

    /// The `i`-th request line of the measured window.
    ///
    /// # Panics
    /// Panics past the end of a distinct-question stream.
    pub fn line(&self, i: usize) -> String {
        let id = self.question_id(i);
        self.workload.question(self.pairs[id], self.workload.alt(i))
    }

    /// The seed pairs in stream order (the skewed set for `sketch-hot`).
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(workload: Workload, seed: u64, count: usize) -> Vec<String> {
        let stream = Stream::new(workload, seed);
        (0..count).map(|i| stream.line(i)).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for w in Workload::ALL {
            assert_eq!(window(w, 11, 3000), window(w, 11, 3000), "{}", w.name());
            assert_eq!(w.probes(), w.probes());
        }
    }

    #[test]
    fn different_seeds_give_different_lines() {
        for w in Workload::ALL {
            let (a, b) = (window(w, 11, 200), window(w, 12, 200));
            let shared = a.iter().filter(|line| b.contains(line)).count();
            assert!(shared < 20, "{}: {shared} of 200 lines shared", w.name());
        }
    }

    #[test]
    fn distinct_workloads_never_repeat_a_question_or_a_probe() {
        for w in [
            Workload::VertexDistinct,
            Workload::Families,
            Workload::Restart,
        ] {
            let stream = Stream::new(w, 3);
            let lines = window(w, 3, stream.len().unwrap());
            let mut seen: HashSet<&String> = HashSet::new();
            for line in &lines {
                assert!(seen.insert(line), "{}: repeated {line}", w.name());
            }
            let pairs: HashSet<_> = stream.pairs().iter().map(|&p| key(p)).collect();
            assert_eq!(pairs.len(), stream.pairs().len());
            for probe in probe_pairs() {
                assert!(
                    !pairs.contains(&key(probe)),
                    "{}: probe pair in stream",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn probes_do_not_depend_on_the_seed_and_carry_the_budget() {
        for w in Workload::ALL {
            for probe in w.probes() {
                assert!(probe.contains(&format!("budget={}", w.budget())), "{probe}");
            }
        }
        assert_eq!(Workload::Families.probes().len(), 2);
        assert!(Workload::Families.probes()[0].ends_with("intervene=edge"));
        assert!(Workload::Families.probes()[1].ends_with("intervene=prebunk:0.2"));
    }

    #[test]
    fn hot_stream_is_zipf_skewed_over_a_fixed_set() {
        let stream = Stream::new(Workload::SketchHot, 5);
        assert_eq!(stream.len(), None);
        let mut counts = vec![0usize; HOT_SET];
        for i in 0..100_000 {
            counts[stream.hot_rank(i)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[500]);
        // The top quarter of the set (the cache's size) draws most requests.
        let top: usize = counts[..HOT_SET / 4].iter().sum();
        assert!(
            (0.7..0.9).contains(&(top as f64 / 100_000.0)),
            "top share {top}"
        );
        // The same rank is always the same line.
        let line = stream.line(0);
        let rank = stream.hot_rank(0);
        let again = (1..).find(|&i| stream.hot_rank(i) == rank).unwrap();
        assert_eq!(stream.line(again), line);
    }

    #[test]
    fn setup_lines_name_the_reference_graph_and_pools() {
        assert_eq!(Workload::VertexDistinct.pool_line(), "POOL 2000 7");
        assert_eq!(Workload::Families.pool_line(), "POOL 1000 7");
        assert_eq!(
            Workload::SketchHot.pool_line(),
            "POOL 200000 7 backend=sketch"
        );
        assert!(LOAD_LINE.contains(&format!("seed={GRAPH_SEED}")));
    }
}
