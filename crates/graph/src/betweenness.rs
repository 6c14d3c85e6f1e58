//! Hand-computed betweenness cases for
//! [`crate::parallel::par_betweenness`] (test-only module).
//!
//! Convention under test: each unordered pair is counted once and
//! endpoints are excluded, so leaves score 0. Every case runs at 1 and 3
//! threads, which must agree bit for bit.

#[cfg(test)]
mod tests {
    use crate::csr::CsrGraph;
    use crate::graph::Graph;
    use crate::parallel::par_betweenness;

    /// Betweenness of the simple graph on `n` nodes with `edges`, checked
    /// equal at 1 and 3 threads.
    fn betweenness(n: usize, edges: &[(usize, usize)]) -> Vec<f64> {
        let g: Graph<(), ()> = Graph::from_edges(n, edges.iter().map(|&(a, b)| (a, b, ())));
        let csr = CsrGraph::from_graph(&g);
        let serial = par_betweenness(&csr, 1);
        assert_eq!(par_betweenness(&csr, 3), serial);
        serial
    }

    #[test]
    fn path_center_dominates() {
        // 0-1-2-3-4: the center lies on (0,3),(0,4),(1,3),(1,4); node 1
        // on (0,2),(0,3),(0,4).
        let b = betweenness(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(b, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_covers_all_pairs() {
        // 4 leaves -> C(4,2) = 6 pairs, all through the hub.
        let b = betweenness(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(b, vec![6.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn cycle_symmetric() {
        // Each opposite pair has two shortest paths, contributing 1/2 to
        // each intermediate: node 0 is interior only to (1,3).
        let b = betweenness(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(b, vec![0.5; 4]);
    }

    #[test]
    fn split_paths_share_credit() {
        // Two parallel 2-hop routes 0-1-3 and 0-2-3 split the (0,3)
        // pair between 1 and 2; likewise 1-0-2 and 1-3-2 split (1,2).
        let b = betweenness(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(b, vec![0.5; 4]);
    }

    #[test]
    fn disconnected_ok() {
        let b = betweenness(4, &[(0, 1), (2, 3)]);
        assert_eq!(b, vec![0.0; 4]);
    }
}
