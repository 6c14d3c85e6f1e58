//! Breadth-first traversal and connected components on [`Graph`].
//!
//! Hop distances, BFS trees and the largest-component mask run on the
//! flat view: [`crate::csr::CsrGraph::bfs_distances`],
//! [`crate::csr::CsrGraph::bfs_tree`] and
//! [`crate::csr::CsrGraph::largest_component_mask`].

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start` in BFS order (including `start`).
pub fn bfs_order<N, E>(g: &Graph<N, E>, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (u, _) in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Connected-component label (0-based, in order of discovery) per node.
/// u32 labels: there are at most as many components as nodes, and node
/// ids are u32.
pub fn connected_components<N, E>(g: &Graph<N, E>) -> Vec<u32> {
    let mut label = vec![u32::MAX; g.node_count()];
    let mut next = 0u32;
    for start in g.node_ids() {
        if label[start.index()] != u32::MAX {
            continue;
        }
        for v in bfs_order(g, start) {
            label[v.index()] = next;
        }
        next += 1;
    }
    label
}

/// Number of connected components (0 for the empty graph).
pub fn component_count<N, E>(g: &Graph<N, E>) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1)
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected<N, E>(g: &Graph<N, E>) -> bool {
    component_count(g) <= 1
}

/// Size of the largest connected component (0 for the empty graph).
pub fn largest_component_size<N, E>(g: &Graph<N, E>) -> usize {
    let labels = connected_components(g);
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; k];
    for l in labels {
        sizes[l as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrGraph, UNREACHABLE};
    use crate::graph::Graph;

    fn two_triangles() -> Graph<(), ()> {
        // {0,1,2} triangle and {3,4,5} triangle, disconnected.
        Graph::from_edges(
            6,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (0, 2, ()),
                (3, 4, ()),
                (4, 5, ()),
                (3, 5, ()),
            ],
        )
    }

    #[test]
    fn bfs_visits_component_only() {
        let g = two_triangles();
        let order = bfs_order(&g, NodeId(0));
        assert_eq!(order.len(), 3);
        assert!(order.contains(&NodeId(2)));
        assert!(!order.contains(&NodeId(3)));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let d = CsrGraph::from_graph(&g).bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = two_triangles();
        let d = CsrGraph::from_graph(&g).bfs_distances(NodeId(0));
        assert_eq!(d[4], UNREACHABLE);
        assert_eq!(d[1], 1);
    }

    #[test]
    fn bfs_tree_parents_form_shortest_paths() {
        let g: Graph<(), ()> = Graph::from_edges(
            5,
            vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ()), (3, 4, ())],
        );
        let tree = CsrGraph::from_graph(&g).bfs_tree(NodeId(0));
        assert_eq!(tree.dist[4], 3);
        // Walk parents from 4 back to 0 and count hops.
        let mut hops = 0;
        let mut cur = NodeId(4);
        while let Some((p, _)) = tree.parent(cur) {
            cur = p;
            hops += 1;
        }
        assert_eq!(cur, NodeId(0));
        assert_eq!(hops, 3);
    }

    #[test]
    fn components_labeling() {
        let g = two_triangles();
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(component_count(&g), 2);
        assert!(!is_connected(&g));
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g: Graph<(), ()> = Graph::new();
        assert!(is_connected(&g));
        assert_eq!(component_count(&g), 0);
        assert_eq!(largest_component_size(&g), 0);
        assert!(CsrGraph::from_graph(&g).largest_component_mask().is_empty());
    }

    #[test]
    fn largest_component_mask_picks_bigger() {
        let mut g: Graph<(), ()> = Graph::from_edges(5, vec![(0, 1, ())]);
        let a = NodeId(2);
        let b = NodeId(3);
        let c = NodeId(4);
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let mask = CsrGraph::from_graph(&g).largest_component_mask();
        assert_eq!(mask, vec![false, false, true, true, true]);
    }

    #[test]
    fn single_node_component() {
        let mut g: Graph<(), ()> = Graph::new();
        g.add_node(());
        assert!(is_connected(&g));
        assert_eq!(largest_component_size(&g), 1);
    }
}
