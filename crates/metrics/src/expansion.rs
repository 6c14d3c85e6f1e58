//! Expansion — how fast BFS balls grow (Tangmunarunkit et al.,
//! SIGCOMM'02, reference \[30\] in the paper).
//!
//! \[30\] defines expansion as the rate at which the reachable set grows
//! with hop distance. We report the scalar form used in their comparison:
//! the average fraction of the graph reachable within `h` hops, for a
//! small `h`. Tree-like and chain-like topologies expand slowly; random
//! and preferential graphs expand fast — one of the axes on which
//! degree-matched generators differ structurally.

use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::graph::{Graph, NodeId};

/// Deterministic source sample (same policy as `paths`).
fn sources<N, E>(g: &Graph<N, E>) -> Vec<NodeId> {
    let n = g.node_count();
    if n <= 2000 {
        g.node_ids().collect()
    } else {
        let stride = (n / 200).max(1);
        (0..n).step_by(stride).map(|i| NodeId(i as u32)).collect()
    }
}

/// Mean fraction of all nodes within `h` hops of a node (inclusive of the
/// node itself). Returns 0 for the empty graph.
pub fn expansion_at<N, E>(g: &Graph<N, E>, h: u32) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let srcs = sources(g);
    let csr = CsrGraph::from_graph(g);
    let mut tree = CsrBfsTree::sized(n);
    let mut total = 0.0;
    for &s in &srcs {
        csr.bfs_tree_into(s, &mut tree);
        // The visit order is sorted by hop distance.
        let within = tree
            .visit_order()
            .partition_point(|v| tree.dist[v.index()] <= h);
        total += within as f64 / n as f64;
    }
    total / srcs.len() as f64
}

/// The expansion profile `h → expansion_at(h)` for `h = 0..=max_h`.
pub fn expansion_profile<N, E>(g: &Graph<N, E>, max_h: u32) -> Vec<f64> {
    (0..=max_h).map(|h| expansion_at(g, h)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    fn path(n: usize) -> Graph<(), ()> {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, ())).collect::<Vec<_>>())
    }

    fn star(n: usize) -> Graph<(), ()> {
        Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>())
    }

    #[test]
    fn star_expands_fully_in_two_hops() {
        let g = star(20);
        assert!((expansion_at(&g, 2) - 1.0).abs() < 1e-12);
        assert!(expansion_at(&g, 1) < 1.0);
    }

    #[test]
    fn path_expands_slowly() {
        let g = path(100);
        let e2 = expansion_at(&g, 2);
        // A node sees at most 5 of 100 nodes within 2 hops.
        assert!(e2 <= 0.05 + 1e-12, "expansion {}", e2);
    }

    #[test]
    fn star_beats_path() {
        assert!(expansion_at(&star(50), 2) > 10.0 * expansion_at(&path(50), 2));
    }

    #[test]
    fn profile_monotone_from_self() {
        let g = path(30);
        let prof = expansion_profile(&g, 5);
        assert!((prof[0] - 1.0 / 30.0).abs() < 1e-12); // just the node itself
        for w in prof.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn empty_graph_zero() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(expansion_at(&g, 3), 0.0);
    }

    #[test]
    fn disconnected_capped_below_one() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        assert!((expansion_at(&g, 5) - 0.5).abs() < 1e-12);
    }
}
