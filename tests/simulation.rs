//! Integration tests for the simulation layer: protocols running on
//! topologies the generators produced, via the facade API.

use hotgen::bgp::{policy_summary_all, AsTopology, UNREACHED};
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::parallel::bfs_forest;
use hotgen::prelude::*;
use hotgen::sim::failure::single_link_failures;
use hotgen::sim::probe::{infer_map_batched, run_campaign, ProbeCampaign};
use hotgen::sim::traceroute::strided_vantages;
use hotgen::sim::traffic::{naive_link_load, Demand};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "common/oracle.rs"]
pub mod oracle;
use oracle::infer_map;

fn setup(seed: u64) -> (Census, TrafficMatrix) {
    let census = Census::synthesize(
        &CensusConfig {
            n_cities: 20,
            ..CensusConfig::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    let traffic = TrafficMatrix::gravity(&census, &GravityConfig::default());
    (census, traffic)
}

#[test]
fn routing_conserves_demand_on_generated_isp() {
    let (census, traffic) = setup(1);
    let config = IspConfig {
        n_pops: 5,
        total_customers: 100,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(2));
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let demands: Vec<Demand> = customers
        .windows(2)
        .map(|w| Demand {
            src: w[0],
            dst: w[1],
            amount: 2.0,
        })
        .collect();
    let csr = CsrGraph::from_graph(&isp.graph);
    let forest = bfs_forest(&csr, &customers, 2);
    let outcome = naive_link_load(&csr, &forest, &demands);
    // The ISP graph is connected: everything routes.
    assert_eq!(outcome.unrouted_flows, 0);
    let total: f64 = demands.iter().map(|d| d.amount).sum();
    assert!((outcome.routed_traffic - total).abs() < 1e-9);
    // Load on any link never exceeds total traffic.
    assert!(outcome.max_load() <= total + 1e-9);
    // Each demand's path has >= 1 hop.
    assert!(outcome.mean_hops() >= 1.0);
}

#[test]
fn failure_sim_agrees_with_cut_structure() {
    // On the ISP's access tree, every loaded link is a cut for someone.
    let (census, traffic) = setup(3);
    let config = IspConfig {
        n_pops: 4,
        total_customers: 60,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(4));
    let customers: Vec<NodeId> = isp
        .graph
        .node_ids()
        .filter(|&v| isp.graph.node_weight(v).role == RouterRole::Customer)
        .collect();
    let demands: Vec<Demand> = customers
        .windows(2)
        .step_by(2)
        .map(|w| Demand {
            src: w[0],
            dst: w[1],
            amount: 1.0,
        })
        .collect();
    let summary = single_link_failures(&isp.graph, &demands);
    // Customer uplinks are bridges: most failures strand something.
    assert!(summary.stranding_fraction > 0.5);
    // Stretch is a ratio >= 1 whenever defined.
    assert!(summary.mean_stretch >= 1.0);
}

#[test]
fn bgp_policy_never_shorter_and_internet_stays_reachable() {
    let (census, traffic) = setup(5);
    let config = InternetConfig {
        n_isps: 15,
        max_pops: 6,
        customers_per_pop: 5,
        ..InternetConfig::default()
    };
    let net = generate_internet(&census, &traffic, &config, &mut StdRng::seed_from_u64(6));
    let topo = AsTopology::from_internet(&net);
    // Valley-free >= shortest for all pairs; tier-1 spine keeps policy
    // reachability at 1.
    for src in 0..topo.len() {
        let vf = topo.propagate(src).dist;
        let sp = topo.shortest(src);
        for dst in 0..topo.len() {
            if vf[dst] != UNREACHED {
                assert!(sp[dst] != UNREACHED, "policy route without graph route");
                assert!(vf[dst] >= sp[dst]);
            }
        }
    }
    let summary = policy_summary_all(&topo, 2);
    assert_eq!(summary.policy_reachability(), 1.0);
    assert!(summary.mean_policy_hops() >= summary.mean_shortest_hops());
}

#[test]
fn traceroute_inference_is_conservative() {
    let (census, traffic) = setup(7);
    let config = IspConfig {
        n_pops: 5,
        total_customers: 80,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(8));
    let campaign = |k| {
        let vantages = strided_vantages(&isp.graph, k);
        infer_map_batched(&isp.graph, &vantages, None, |l| l.length.max(1e-9), 2).map
    };
    let few = campaign(2);
    let many = campaign(16);
    // Coverage is monotone in vantage count and bounded by the truth.
    assert!(many.edge_coverage >= few.edge_coverage - 1e-12);
    assert!(many.edge_coverage <= 1.0 + 1e-12);
    // The inferred map never invents links.
    let inferred = many.to_graph(&isp.graph);
    assert!(inferred.edge_count() <= isp.graph.edge_count());
}

#[test]
fn surrogate_and_report_roundtrip() {
    // The assortativity/rich-club metrics + surrogate work through the
    // facade on a generated topology.
    use hotgen::metrics::assortativity::{assortativity, rich_club_coefficient};
    use hotgen::metrics::surrogate::degree_surrogate;
    let (census, traffic) = setup(9);
    let config = IspConfig {
        n_pops: 4,
        total_customers: 80,
        ..IspConfig::default()
    };
    let isp = generate_isp(&census, &traffic, &config, &mut StdRng::seed_from_u64(10));
    // Assortativity is defined (degree variance exists) and in range.
    // Note: unlike AS graphs, this access-chain-heavy router graph can be
    // mildly assortative — Esau–Williams chains contribute many 2–2 edges.
    let r = assortativity(&isp.graph).expect("ISP has degree variance");
    assert!(
        (-1.0..=1.0).contains(&r),
        "assortativity {} out of range",
        r
    );
    let surrogate = degree_surrogate(&isp.graph, 10, &mut StdRng::seed_from_u64(11));
    assert_eq!(surrogate.degree_sequence(), isp.graph.degree_sequence());
    // Identical degree sequences give identical assortativity *support*
    // (both defined), though rewiring may change the value.
    assert!(assortativity(&surrogate).is_some());
    // Rich-club defined for k = 1 on both.
    let _ = rich_club_coefficient(&isp.graph, 1);
    let report = MetricReport::compute("isp", &isp.graph);
    assert!((report.assortativity.unwrap() - r).abs() < 1e-12);
}

/// Square with a cheap diagonal: shortest paths never use some edges.
/// The probe engine must match the `infer_map` oracle on it exactly.
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
fn matches_infer_map_on_square() {
    let g = square_diag();
    for k in 1..=4 {
        let vantages = strided_vantages(&g, k);
        let classic = infer_map(&g, &vantages, None, |w| *w);
        let batched = infer_map_batched(&g, &vantages, None, |w| *w, 2);
        assert_eq!(classic.node_seen, batched.map.node_seen, "k = {}", k);
        assert_eq!(classic.edge_seen, batched.map.edge_seen, "k = {}", k);
        assert_eq!(classic.node_coverage, batched.map.node_coverage);
        assert_eq!(classic.edge_coverage, batched.map.edge_coverage);
    }
}

#[test]
fn destination_subsets_restrict_the_map() {
    let g = square_diag();
    let csr = CsrGraph::from_graph(&g);
    let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
    let dests = [NodeId(1), NodeId(1), NodeId(0)];
    let result = run_campaign(
        &csr,
        &ProbeCampaign {
            vantages: &[NodeId(0)],
            destinations: Some(&dests),
            link_latency: Some(&latency),
        },
        1,
    );
    let classic = infer_map(&g, &[NodeId(0)], Some(&dests), |w| *w);
    assert_eq!(result.map.node_seen, classic.node_seen);
    assert_eq!(result.map.edge_seen, classic.edge_seen);
    assert_eq!(result.stats.probes_sent, 3);
    assert_eq!(result.stats.probes_completed, 3);
    assert_eq!(result.stats.total_hops, 2); // 1 + 1 + 0
}
