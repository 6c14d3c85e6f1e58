//! Differential suite for the capacitated subsystem: the batched
//! cascade must agree with the per-flow, per-round naive reference in
//! `common/oracle.rs` **exactly** (integer demands make every load sum
//! exact in f64, and failure decisions depend only on those loads), and
//! the full E18 report must be byte-identical at 1 vs 8 worker threads
//! — the same contract `traffic_equivalence.rs` pins for the flat
//! engine.

use hotgen::baselines::glp;
use hotgen::graph::csr::CsrGraph;
use hotgen::graph::graph::Graph;
use hotgen::graph::parallel::default_threads;
use hotgen::sim::cascade::{cascade, CascadeConfig};
use hotgen::sim::demand::OdDemand;
use hotgen::sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::Banded;
#[path = "common/oracle.rs"]
pub mod oracle;
use oracle::cascade_naive;

/// Integer-valued OD demand: small integers varying per pair, so f64
/// sums are exact regardless of association order.
struct IntegerDemand {
    n: usize,
}

impl OdDemand for IntegerDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            0.0
        } else {
            ((src * 7 + dst * 13) % 5) as f64 // 0..=4, zeros included
        }
    }
}

/// Deterministic capacities that force a multi-round cascade: most
/// links get comfortable headroom over their intact-graph load, but
/// every 7th link is provisioned *below* it, so the first round fails
/// a spread-out batch and the re-routes keep tripping more.
fn stressed_capacities(csr: &CsrGraph, dem: &dyn OdDemand, threads: usize, slack: f64) -> Vec<f64> {
    let loads = link_loads(csr, dem, RoutePolicy::TreePath, threads);
    loads
        .link_load
        .iter()
        .enumerate()
        .map(|(e, &l)| (l + 1.0) * if e % 7 == 0 { 0.8 } else { slack })
        .collect()
}

fn assert_cascades_equal(
    csr: &CsrGraph,
    dem: &dyn OdDemand,
    caps: &[f64],
    cfg: &CascadeConfig,
    min_rounds: usize,
    label: &str,
) {
    let slow = cascade_naive(csr, dem, caps, cfg);
    for threads in [1, 4, 8] {
        let fast = cascade(csr, dem, caps, cfg, threads);
        // Structural equality covers every per-round float (max_util,
        // routed/stranded traffic, surviving capacity) bit for bit:
        // f64 PartialEq is == on the values the engine produced.
        assert_eq!(
            fast, slow,
            "{}: batched vs naive at {} threads",
            label, threads
        );
        assert!(fast.converged, "{}: must reach the fixed point", label);
        assert!(
            fast.rounds.len() <= csr.edge_count() + 1,
            "{}: termination bound",
            label
        );
        assert!(
            fast.rounds.len() >= min_rounds && fast.failed_links() > 0,
            "{}: the stressed capacities must actually fail links, got {} rounds / {} failed",
            label,
            fast.rounds.len(),
            fast.failed_links()
        );
    }
}

/// The differential heart on a degree-based topology: a 5k-node GLP
/// graph under a band of integer demands, under-provisioned on a
/// deterministic subset of links. Batched == naive, round by round,
/// at every thread count.
#[test]
fn cascade_matches_naive_on_glp5k() {
    let g = glp::generate(
        &glp::GlpConfig {
            n: 5000,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(20030617),
    );
    let csr = CsrGraph::from_graph(&g);
    let dem = Banded {
        inner: IntegerDemand { n: 5000 },
        max_src: 120,
    };
    let caps = stressed_capacities(&csr, &dem, 4, 1.5);
    assert_cascades_equal(&csr, &dem, &caps, &CascadeConfig::default(), 3, "glp5k");
}

/// Same contract on the designed HOT topology: the golden-scale ISP
/// (hierarchical, capped degrees) with dense integer demands.
#[test]
fn cascade_matches_naive_on_designed_isp() {
    use hot_exp::fixtures::standard_geography;
    use hotgen::core::isp::generator::{generate, IspConfig};
    let (census, traffic) = standard_geography(15, 20030617);
    let config = IspConfig {
        n_pops: 4,
        total_customers: 300,
        ..IspConfig::default()
    };
    let isp = generate(
        &census,
        &traffic,
        &config,
        &mut StdRng::seed_from_u64(20030617),
    );
    let csr = CsrGraph::from_graph(&isp.graph);
    let n = csr.node_count();
    let dem = IntegerDemand { n };
    let caps = stressed_capacities(&csr, &dem, 4, 1.1);
    assert_cascades_equal(&csr, &dem, &caps, &CascadeConfig::default(), 2, "isp");
}

/// The full E18 report — provisioning, TE trajectories, cascade
/// trajectories, every table cell — serialized to JSON must be
/// byte-identical at 1 vs 8 worker threads.
#[test]
fn e18_report_byte_identical_across_thread_counts() {
    use hot_exp::scenarios::e18;
    let ctx = |threads: usize| hot_exp::RunCtx {
        scale: hot_exp::Scale::Golden,
        seed: hot_exp::SEED,
        threads,
        snapshot_dir: None,
    };
    let p = e18::Params::golden();
    let one = e18::run(&p, ctx(1)).to_json().compact();
    let eight = e18::run(&p, ctx(8)).to_json().compact();
    assert_eq!(one, eight, "E18 report must not depend on thread count");
    // And the default-thread run (what CI machines actually use).
    let auto = e18::run(&p, ctx(default_threads())).to_json().compact();
    assert_eq!(one, auto);
}

/// An explicit dense demand matrix.
struct Dense {
    n: usize,
    d: Vec<f64>,
}

impl OdDemand for Dense {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        self.d[src * self.n + dst]
    }
}

/// Square with edges 0-1, 0-2, 1-3, 2-3 and 4 units from 0 to 3: the
/// tree path runs over edges 0 and 2, and a failure there re-routes
/// the flow over the other side.
fn square() -> (CsrGraph, Dense) {
    let g: Graph<(), ()> =
        Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
    let mut d = vec![0.0; 16];
    d[3] = 4.0;
    (CsrGraph::from_graph(&g), Dense { n: 4, d })
}

#[test]
fn naive_reference_agrees_on_the_square() {
    let (csr, dem) = square();
    for caps in [vec![2.0, 10.0, 10.0, 10.0], vec![0.5; 4], vec![100.0; 4]] {
        let fast = cascade(&csr, &dem, &caps, &CascadeConfig::default(), 3);
        let slow = cascade_naive(&csr, &dem, &caps, &CascadeConfig::default());
        assert_eq!(fast, slow, "caps {:?}", caps);
    }
}

/// A binding `max_rounds` stops both loops after the same round, with
/// `converged == false`.
#[test]
fn naive_reference_agrees_when_max_rounds_binds() {
    let (csr, dem) = square();
    // Caps of 0.5 collapse the square in three rounds.
    for max_rounds in [1, 2] {
        let cfg = CascadeConfig {
            max_rounds,
            ..CascadeConfig::default()
        };
        let slow = cascade_naive(&csr, &dem, &[0.5; 4], &cfg);
        assert!(!slow.converged && slow.rounds.len() == max_rounds);
        for threads in [1, 3] {
            assert_eq!(cascade(&csr, &dem, &[0.5; 4], &cfg, threads), slow);
        }
    }
}
