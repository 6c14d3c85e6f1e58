//! Weighted shortest paths: Dijkstra with a binary heap, a Bellman–Ford
//! reference implementation used as a property-test oracle, and path
//! extraction helpers.
//!
//! Edge weights are produced by a caller-supplied closure so the same graph
//! annotation can be interpreted as distance, delay, or monetary cost
//! without re-building the graph — the reproduction uses all three views.

use crate::graph::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]` is the weighted distance from the source (`f64::INFINITY`
    /// when unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor edge and node on one shortest path
    /// from the source (`None` for the source and unreachable nodes).
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// The source node.
    pub source: NodeId,
}

impl ShortestPaths {
    /// Reconstructs the node sequence of a shortest path from the source to
    /// `target`, or `None` if `target` is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[target.index()].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some((p, _)) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }

    /// Reconstructs the edge sequence of a shortest path to `target`.
    pub fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        if self.dist[target.index()].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.parent[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite non-NaN by
        // construction (asserted in `dijkstra`).
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in Dijkstra heap")
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths with non-negative weights.
///
/// # Panics
///
/// Panics (debug assertion) if `weight` yields a negative or NaN value.
pub fn dijkstra<N, E>(
    g: &Graph<N, E>,
    source: NodeId,
    mut weight: impl FnMut(EdgeId, &E) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        for (u, e) in g.neighbors(v) {
            let w = weight(e, g.edge_weight(e));
            debug_assert!(
                w >= 0.0 && !w.is_nan(),
                "Dijkstra requires non-negative weights"
            );
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                parent[u.index()] = Some((v, e));
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    ShortestPaths {
        dist,
        parent,
        source,
    }
}

/// Bellman–Ford single-source distances. O(V·E); used as a slow oracle in
/// tests and for graphs where weights may be zero on many edges.
pub fn bellman_ford<N, E>(
    g: &Graph<N, E>,
    source: NodeId,
    mut weight: impl FnMut(EdgeId, &E) -> f64,
) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    let edges: Vec<(NodeId, NodeId, f64)> =
        g.edges().map(|(e, a, b, w)| (a, b, weight(e, w))).collect();
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for &(a, b, w) in &edges {
            if dist[a.index()] + w < dist[b.index()] {
                dist[b.index()] = dist[a.index()] + w;
                changed = true;
            }
            if dist[b.index()] + w < dist[a.index()] {
                dist[a.index()] = dist[b.index()] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn weighted_square() -> Graph<(), f64> {
        // 0-1 (1), 1-2 (1), 0-2 (3), 2-3 (1)
        Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0), (2, 3, 1.0)])
    }

    #[test]
    fn dijkstra_prefers_two_hop_path() {
        let g = weighted_square();
        let sp = dijkstra(&g, NodeId(0), |_, w| *w);
        assert_eq!(sp.dist, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(
            sp.path_to(NodeId(2)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn dijkstra_unreachable() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0)]);
        let sp = dijkstra(&g, NodeId(0), |_, w| *w);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(NodeId(2)), None);
        assert_eq!(sp.edge_path_to(NodeId(2)), None);
    }

    #[test]
    fn edge_path_matches_node_path() {
        let g = weighted_square();
        let sp = dijkstra(&g, NodeId(0), |_, w| *w);
        let nodes = sp.path_to(NodeId(3)).unwrap();
        let edges = sp.edge_path_to(NodeId(3)).unwrap();
        assert_eq!(edges.len(), nodes.len() - 1);
        // Each edge must connect consecutive path nodes.
        for (i, e) in edges.iter().enumerate() {
            let (a, b) = g.edge_endpoints(*e);
            assert!((a == nodes[i] && b == nodes[i + 1]) || (b == nodes[i] && a == nodes[i + 1]));
        }
    }

    #[test]
    fn path_to_source_is_singleton() {
        let g = weighted_square();
        let sp = dijkstra(&g, NodeId(1), |_, w| *w);
        assert_eq!(sp.path_to(NodeId(1)), Some(vec![NodeId(1)]));
        assert_eq!(sp.edge_path_to(NodeId(1)), Some(vec![]));
    }

    /// Distances on an undirected graph are symmetric: the all-pairs
    /// matrix from one Dijkstra per source equals its transpose.
    #[test]
    fn all_pairs_symmetric() {
        let g = weighted_square();
        let m: Vec<Vec<f64>> = g
            .node_ids()
            .map(|s| dijkstra(&g, s, |_, w| *w).dist)
            .collect();
        for (i, row) in m.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert!((d - m[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_weight_edges_ok() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 0.0), (1, 2, 0.0)]);
        let sp = dijkstra(&g, NodeId(0), |_, w| *w);
        assert_eq!(sp.dist, vec![0.0, 0.0, 0.0]);
    }

    proptest! {
        /// Dijkstra agrees with Bellman–Ford on random weighted graphs.
        #[test]
        fn dijkstra_matches_bellman_ford(
            n in 2usize..12,
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0.0f64..10.0), 1..40),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
                }
            }
            let sp = dijkstra(&g, NodeId(0), |_, w| *w);
            let bf = bellman_ford(&g, NodeId(0), |_, w| *w);
            for v in 0..n {
                if sp.dist[v].is_infinite() {
                    prop_assert!(bf[v].is_infinite());
                } else {
                    prop_assert!((sp.dist[v] - bf[v]).abs() < 1e-9,
                        "node {}: dijkstra {} vs bf {}", v, sp.dist[v], bf[v]);
                }
            }
        }

        /// Extracted paths have total weight equal to the reported distance.
        #[test]
        fn path_weight_equals_distance(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..5.0), 1..30),
        ) {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
                }
            }
            let sp = dijkstra(&g, NodeId(0), |_, w| *w);
            for v in 0..n {
                if let Some(es) = sp.edge_path_to(NodeId(v as u32)) {
                    let total: f64 = es.iter().map(|e| *g.edge_weight(*e)).sum();
                    prop_assert!((total - sp.dist[v]).abs() < 1e-9);
                }
            }
        }
    }
}
