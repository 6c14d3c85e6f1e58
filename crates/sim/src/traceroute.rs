//! Traceroute-style map inference and its sampling bias.
//!
//! §1 of the paper: "the available data are known to provide incomplete
//! router-level maps"; §3.2 leans on Rocketfuel-class measurement studies.
//! This module simulates the measurement process itself: from `k` vantage
//! routers, trace the (shortest) forwarding path to every destination,
//! and call the union of observed links "the map". Comparing the inferred
//! map against the ground-truth topology quantifies both **coverage**
//! (how much is missed) and **bias** (how the degree distribution of the
//! observed subgraph differs from the truth — path unions over-sample
//! high-betweenness routers).

use hot_graph::graph::{Graph, NodeId};
use hot_graph::shortest_path::dijkstra;

/// The result of a measurement campaign.
#[derive(Clone, Debug)]
pub struct InferredMap {
    /// Mask of observed nodes (ground-truth indexing).
    pub node_seen: Vec<bool>,
    /// Mask of observed links (ground-truth edge indexing).
    pub edge_seen: Vec<bool>,
    /// Fraction of true nodes observed.
    pub node_coverage: f64,
    /// Fraction of true links observed.
    pub edge_coverage: f64,
}

impl InferredMap {
    /// Materializes the inferred topology. Only *observed* links are
    /// included — an induced subgraph would over-report by keeping true
    /// links between observed routers that no traceroute ever crossed.
    pub fn to_graph<N: Clone, E: Clone>(&self, truth: &Graph<N, E>) -> Graph<N, E> {
        let mut out: Graph<N, E> = Graph::new();
        let mut mapping = vec![None; truth.node_count()];
        for v in truth.node_ids() {
            if self.node_seen[v.index()] {
                mapping[v.index()] = Some(out.add_node(truth.node_weight(v).clone()));
            }
        }
        for (e, a, b, w) in truth.edges() {
            if self.edge_seen[e.index()] {
                let (Some(na), Some(nb)) = (mapping[a.index()], mapping[b.index()]) else {
                    unreachable!("observed edges have observed endpoints");
                };
                out.add_edge(na, nb, w.clone());
            }
        }
        out
    }

    /// Degree sequence of the inferred topology: one entry per observed
    /// node in ascending ground-truth id order (the node order
    /// [`Self::to_graph`] emits), counting only observed links.
    /// Computed straight off the masks in O(n + m) — materializing the
    /// inferred graph first, as this used to do, made every call pay a
    /// full graph rebuild.
    pub fn degree_sequence<N, E>(&self, truth: &Graph<N, E>) -> Vec<u32> {
        let mut deg = vec![0u32; truth.node_count()];
        for (e, a, b, _) in truth.edges() {
            if self.edge_seen[e.index()] {
                deg[a.index()] += 1;
                deg[b.index()] += 1;
            }
        }
        (0..truth.node_count())
            .filter(|&v| self.node_seen[v])
            .map(|v| deg[v])
            .collect()
    }
}

/// Runs a measurement campaign: shortest paths (under `weight`) from each
/// vantage to every destination; observed = union of path links.
///
/// Destinations: all nodes when `destinations` is `None`, else the given
/// subset. Unreachable destinations are silently skipped (exactly like a
/// traceroute timing out), and so are out-of-range vantage or
/// destination ids — the convention `traffic::naive_link_load` and the
/// `hot-bgp` distance queries follow for unrouted addresses. This used to index
/// `node_seen` with the raw id and panic.
pub fn infer_map<N, E>(
    truth: &Graph<N, E>,
    vantages: &[NodeId],
    destinations: Option<&[NodeId]>,
    mut weight: impl FnMut(&E) -> f64,
) -> InferredMap {
    let n = truth.node_count();
    let mut node_seen = vec![false; n];
    let mut edge_seen = vec![false; truth.edge_count()];
    let all: Vec<NodeId>;
    let dests: &[NodeId] = match destinations {
        Some(d) => d,
        None => {
            all = truth.node_ids().collect();
            &all
        }
    };
    for &v in vantages {
        if v.index() >= n {
            continue;
        }
        node_seen[v.index()] = true;
        let sp = dijkstra(truth, v, |_, w| weight(w));
        for &dst in dests {
            if dst.index() >= n {
                continue;
            }
            if let Some(path) = sp.edge_path_to(dst) {
                node_seen[dst.index()] = true;
                let mut cur = dst;
                for e in path.iter().rev() {
                    edge_seen[e.index()] = true;
                    cur = truth.opposite(*e, cur);
                    node_seen[cur.index()] = true;
                }
            }
        }
    }
    let nodes_obs = node_seen.iter().filter(|&&s| s).count();
    let edges_obs = edge_seen.iter().filter(|&&s| s).count();
    InferredMap {
        node_coverage: if n > 0 {
            nodes_obs as f64 / n as f64
        } else {
            0.0
        },
        edge_coverage: if truth.edge_count() > 0 {
            edges_obs as f64 / truth.edge_count() as f64
        } else {
            0.0
        },
        node_seen,
        edge_seen,
    }
}

/// Deterministic vantage choice: `k` nodes spread evenly over the id
/// space (the reproducibility convention used across the workspace).
pub fn strided_vantages<N, E>(g: &Graph<N, E>, k: usize) -> Vec<NodeId> {
    let n = g.node_count();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    (0..k).map(|i| NodeId((i * n / k) as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    /// Square with a diagonal: shortest paths never use some edges.
    fn square_diag() -> Graph<(), f64> {
        Graph::from_edges(
            4,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 0.5),
            ],
        )
    }

    #[test]
    fn single_vantage_tree_coverage() {
        let g = square_diag();
        let map = infer_map(&g, &[NodeId(0)], None, |w| *w);
        // From node 0 with the cheap diagonal: paths 0-1, 0-2(diag), 0-3.
        assert_eq!(map.node_coverage, 1.0);
        let edges = map.edge_seen.iter().filter(|&&s| s).count();
        assert_eq!(edges, 3, "one vantage sees only its routing tree");
        assert!((map.edge_coverage - 0.6).abs() < 1e-12);
    }

    #[test]
    fn more_vantages_see_more() {
        let g = square_diag();
        let one = infer_map(&g, &[NodeId(0)], None, |w| *w);
        let three = infer_map(&g, &[NodeId(0), NodeId(1), NodeId(3)], None, |w| *w);
        assert!(three.edge_coverage >= one.edge_coverage);
    }

    #[test]
    fn inferred_graph_is_subgraph() {
        let g = square_diag();
        let map = infer_map(&g, &[NodeId(1)], None, |w| *w);
        let inferred = map.to_graph(&g);
        assert!(inferred.edge_count() <= g.edge_count());
        assert!(inferred.node_count() <= g.node_count());
        // Degree in the inferred map never exceeds the true degree.
        // (Computed once before the loop — recomputing the sequence per
        // node made this quadratic.)
        let true_degs = g.degree_sequence();
        let inferred_degs = inferred.degree_sequence();
        let mut observed_idx = 0usize;
        for v in 0..g.node_count() {
            if map.node_seen[v] {
                assert!(inferred_degs[observed_idx] <= true_degs[v]);
                observed_idx += 1;
            }
        }
    }

    /// The mask-based degree sequence equals the one obtained by
    /// materializing the inferred graph (the old implementation).
    #[test]
    fn degree_sequence_matches_materialized_graph() {
        let g = square_diag();
        for k in 1..=4 {
            let map = infer_map(&g, &strided_vantages(&g, k), None, |w| *w);
            assert_eq!(
                map.degree_sequence(&g),
                map.to_graph(&g).degree_sequence(),
                "k = {}",
                k
            );
        }
    }

    /// Out-of-range vantage and destination ids are skipped, not
    /// panicked on (regression: `node_seen[v.index()]` used to index
    /// straight into the mask).
    #[test]
    fn out_of_range_ids_are_skipped() {
        let g = square_diag();
        let map = infer_map(&g, &[NodeId(99), NodeId(0)], None, |w| *w);
        let clean = infer_map(&g, &[NodeId(0)], None, |w| *w);
        assert_eq!(map.node_seen, clean.node_seen);
        assert_eq!(map.edge_seen, clean.edge_seen);
        let map = infer_map(&g, &[NodeId(0)], Some(&[NodeId(1), NodeId(42)]), |w| *w);
        let clean = infer_map(&g, &[NodeId(0)], Some(&[NodeId(1)]), |w| *w);
        assert_eq!(map.node_seen, clean.node_seen);
        assert_eq!(map.edge_seen, clean.edge_seen);
        // All-out-of-range campaign observes nothing.
        let map = infer_map(&g, &[NodeId(99)], None, |w| *w);
        assert_eq!(map.node_coverage, 0.0);
        assert!(map.edge_seen.iter().all(|&s| !s));
    }

    #[test]
    fn restricted_destinations() {
        let g = square_diag();
        let map = infer_map(&g, &[NodeId(0)], Some(&[NodeId(1)]), |w| *w);
        assert_eq!(map.edge_seen.iter().filter(|&&s| s).count(), 1);
        assert!(map.node_seen[0] && map.node_seen[1]);
        assert!(!map.node_seen[3]);
    }

    #[test]
    fn unreachable_destinations_skipped() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let map = infer_map(&g, &[NodeId(0)], None, |w| *w);
        assert!(!map.node_seen[2]);
        assert!((map.node_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strided_vantages_spread() {
        let g = square_diag();
        assert_eq!(strided_vantages(&g, 2), vec![NodeId(0), NodeId(2)]);
        assert_eq!(strided_vantages(&g, 10).len(), 4);
        let empty: Graph<(), f64> = Graph::new();
        assert!(strided_vantages(&empty, 3).is_empty());
    }
}
