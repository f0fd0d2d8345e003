//! Property-based tests for the graph substrate.

use imin_graph::generators;
use imin_graph::subgraph::induced_subgraph;
use imin_graph::traversal::{reachable_count, reachable_count_blocked};
use imin_graph::{DiGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Strategy producing an arbitrary small directed graph together with its
/// raw edge list.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 0.0f64..=1.0f64);
        (Just(n), proptest::collection::vec(edge, 0..=max_m))
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> DiGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, p) in edges {
        b.add_edge(VertexId::from_raw(u), VertexId::from_raw(v), p)
            .unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every graph produced by the builder satisfies the CSR invariants.
    #[test]
    fn builder_output_is_always_valid((n, edges) in arb_graph(24, 80)) {
        let g = build(n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_vertices(), n);
        // No self loops (the default policy drops them) and no duplicates.
        for e in g.edges() {
            prop_assert_ne!(e.source, e.target);
        }
    }

    /// The in-adjacency is the exact transpose of the out-adjacency.
    #[test]
    fn in_and_out_views_agree((n, edges) in arb_graph(20, 60)) {
        let g = build(n, &edges);
        let mut out_pairs: Vec<(u32, u32)> = g.edges().map(|e| (e.source.raw(), e.target.raw())).collect();
        let mut in_pairs: Vec<(u32, u32)> = g
            .vertices()
            .flat_map(|v| g.in_edges(v).map(move |(s, _)| (s.raw(), v.raw())))
            .collect();
        out_pairs.sort_unstable();
        in_pairs.sort_unstable();
        prop_assert_eq!(out_pairs, in_pairs);
        // Degree sums both equal m.
        let sum_out: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let sum_in: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(sum_out, g.num_edges());
        prop_assert_eq!(sum_in, g.num_edges());
    }

    /// Reversing twice is the identity (same edges and probabilities).
    #[test]
    fn double_reverse_is_identity((n, edges) in arb_graph(16, 50)) {
        let g = build(n, &edges);
        let rr = g.reverse().reverse();
        prop_assert_eq!(g.num_edges(), rr.num_edges());
        for e in g.edges() {
            prop_assert_eq!(rr.edge_probability(e.source, e.target), Some(e.probability));
        }
    }

    /// Removing vertices can never increase reachability from any source.
    #[test]
    fn blocking_is_monotone((n, edges) in arb_graph(16, 60), src in 0u32..16, blocked in 0u32..16) {
        let g = build(n, &edges);
        let src = VertexId::from_raw(src % n as u32);
        let blocked_v = VertexId::from_raw(blocked % n as u32);
        let base = reachable_count(&g, &[src]);
        let mut mask = vec![false; n];
        mask[blocked_v.index()] = true;
        let after = reachable_count_blocked(&g, &[src], &mask);
        prop_assert!(after <= base);
        // Blocking the source empties the reachable set.
        let mut src_mask = vec![false; n];
        src_mask[src.index()] = true;
        prop_assert_eq!(reachable_count_blocked(&g, &[src], &src_mask), 0);
    }

    /// Traversal with a blocked mask equals traversal on the materialised
    /// induced subgraph G[V \ B].
    #[test]
    fn masked_traversal_equals_induced_subgraph((n, edges) in arb_graph(14, 50), src in 0u32..14, seed in 0u64..1000) {
        let g = build(n, &edges);
        let src = VertexId::from_raw(src % n as u32);
        // Pick a pseudo-random blocker set not containing the source.
        let mut mask = vec![false; n];
        let mut x = seed;
        for v in g.vertices() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if v != src && (x >> 33) % 3 == 0 {
                mask[v.index()] = true;
            }
        }
        let masked = reachable_count_blocked(&g, &[src], &mask);
        let sub = induced_subgraph(&g, |v| !mask[v.index()]).unwrap();
        let projected_src = sub.project(src).unwrap();
        let direct = reachable_count(&sub.graph, &[projected_src]);
        prop_assert_eq!(masked, direct);
    }

    /// Edge-list round trip preserves the graph exactly.
    #[test]
    fn edgelist_roundtrip((n, edges) in arb_graph(16, 40)) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        imin_graph::edgelist::write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let opts = imin_graph::edgelist::EdgeListOptions { compact_ids: false, ..Default::default() };
        let loaded = imin_graph::edgelist::parse_edge_list(&text, &opts).unwrap();
        prop_assert_eq!(loaded.graph.num_edges(), g.num_edges());
        for e in g.edges() {
            let p = loaded.graph.edge_probability(e.source, e.target);
            prop_assert!(p.is_some());
            prop_assert!((p.unwrap() - e.probability).abs() < 1e-12);
        }
    }

    /// Generators always produce graphs that satisfy the CSR invariants.
    #[test]
    fn generators_produce_valid_graphs(seed in 0u64..200, n in 2usize..60) {
        let er = generators::erdos_renyi(n, 0.1, 0.5, seed).unwrap();
        prop_assert!(er.validate().is_ok());
        let pa = generators::preferential_attachment(n, 2.min(n - 1), false, 0.5, seed).unwrap();
        prop_assert!(pa.validate().is_ok());
    }
}
