//! Routing an explicit flow list (test-only module): the path E12's load
//! table and `examples/routing_study.rs` take —
//! [`naive_link_load`] over a `bfs_forest` of the flows' distinct
//! sources, each flow walking its first-discovery tree path.

use crate::traffic::{naive_link_load, Demand, TrafficLoads};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::NodeId;
use hot_graph::parallel::bfs_forest;

/// One flow of `amount` from `src` to `dst`.
pub(crate) fn flow(src: u32, dst: u32, amount: f64) -> Demand {
    Demand {
        src: NodeId(src),
        dst: NodeId(dst),
        amount,
    }
}

/// Routes `flows` with [`naive_link_load`] over a forest of their
/// distinct in-range sources.
pub(crate) fn route_flows(csr: &CsrGraph, flows: &[Demand]) -> TrafficLoads {
    let mut sources: Vec<NodeId> = flows
        .iter()
        .map(|f| f.src)
        .filter(|s| s.index() < csr.node_count())
        .collect();
    sources.sort_unstable();
    sources.dedup();
    naive_link_load(csr, &bfs_forest(csr, &sources, 1), flows)
}

mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    fn path4() -> CsrGraph {
        CsrGraph::from_graph(&Graph::<(), ()>::from_edges(
            4,
            vec![(0, 1, ()), (1, 2, ()), (2, 3, ())],
        ))
    }

    #[test]
    fn loads_accumulate_along_paths() {
        let out = route_flows(&path4(), &[flow(0, 3, 5.0), flow(1, 2, 2.0)]);
        // 5 end to end, 2 in the middle.
        assert_eq!(out.link_load, vec![5.0, 7.0, 5.0]);
        assert_eq!((out.routed_flows, out.unrouted_flows), (2, 0));
        assert_eq!(out.routed_traffic, 7.0);
        // hops: 5*3 + 2*1 = 17 over 7 units of traffic.
        assert_eq!(out.mean_hops(), 17.0 / 7.0);
    }

    #[test]
    fn disconnected_demand_reported() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let out = route_flows(
            &CsrGraph::from_graph(&g),
            &[flow(0, 3, 4.0), flow(0, 1, 1.0)],
        );
        assert_eq!(out.unrouted_flows, 1);
        assert_eq!(out.unrouted_traffic, 4.0);
        assert_eq!(out.routed_traffic, 1.0);
        assert_eq!(out.link_load, vec![1.0, 0.0]);
    }

    /// Regression: endpoints outside the graph are unrouted like
    /// disconnected pairs, not an index panic — including on the empty
    /// graph.
    #[test]
    fn out_of_range_endpoints_are_unrouted_not_panics() {
        let out = route_flows(
            &path4(),
            &[flow(0, 9, 2.0), flow(9, 0, 1.0), flow(0, 3, 1.0)],
        );
        assert_eq!(out.unrouted_flows, 2);
        assert_eq!(out.unrouted_traffic, 3.0);
        assert_eq!(out.routed_traffic, 1.0);
        let empty = CsrGraph::from_graph(&Graph::<(), ()>::new());
        let out = route_flows(&empty, &[flow(0, 1, 5.0)]);
        assert_eq!(out.unrouted_flows, 1);
        assert_eq!(out.routed_traffic, 0.0);
        assert!(out.link_load.is_empty());
    }

    #[test]
    fn empty_demands() {
        let out = route_flows(&path4(), &[]);
        assert_eq!(out.link_load, vec![0.0; 3]);
        assert_eq!(out.mean_hops(), 0.0);
        assert_eq!(out.routed_flows + out.unrouted_flows, 0);
        assert_eq!(out.routed_traffic + out.unrouted_traffic, 0.0);
    }
}
