//! `internet-build`: the paper's end-to-end user job at scale — census
//! and gravity traffic (set-up), then an economics-designed ISP
//! population with peering, one combined router graph, its CSR view and
//! binary snapshot round trip, and the whole-graph analytics: sampled
//! path metrics, two robustness sweeps, trunk betweenness, and a
//! million-flow link-load run.

use super::{geography, positive_pairs, step, PassOut, Size, Workload};
use crate::check::{Checks, Digest};
use crate::trace::Tracer;
use hot_core::isp::{LinkKind, RouterRole};
use hot_core::peering::{generate_internet, InternetConfig};
use hot_geo::gravity::TrafficMatrix;
use hot_geo::population::Census;
use hot_graph::csr::CsrGraph;
use hot_graph::graph::Graph;
use hot_graph::io::Snapshot;
use hot_metrics::hierarchy::betweenness_estimate;
use hot_metrics::paths::path_metrics;
use hot_metrics::robustness::{degradation_curve, RemovalPolicy};
use hot_sim::demand::DemandMatrix;
use hot_sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CITIES: usize = 120;
const MAX_POPS: usize = 24;
const SIZE_EXPONENT: f64 = 0.8;
const REMOVED_FRACTIONS: [f64; 4] = [0.01, 0.02, 0.05, 0.1];

pub struct InternetBuild {
    target_routers: usize,
    /// Customers per POP; each POP contributes about this many routers
    /// all told (customers that pass the profitability screen plus
    /// access and backbone infrastructure).
    customers_per_pop: usize,
    /// Strided customer sources of the all-pairs link-load run.
    flow_sources: usize,
    threads: usize,
    seed: u64,
    geo: Option<(Census, TrafficMatrix)>,
}

impl InternetBuild {
    pub fn new(size: Size, threads: usize) -> Self {
        InternetBuild {
            target_routers: size.pick(50_000, 1_000),
            customers_per_pop: size.pick(120, 20),
            flow_sources: size.pick(1_024, 64),
            threads,
            seed: 0,
            geo: None,
        }
    }

    /// ISP count whose Zipf footprints reach the router target.
    fn config(&self) -> InternetConfig {
        let (mut n_isps, mut pops) = (0usize, 0usize);
        while pops * self.customers_per_pop < self.target_routers || n_isps < 4 {
            n_isps += 1;
            let s = MAX_POPS as f64 / (n_isps as f64).powf(SIZE_EXPONENT);
            pops += (s.round() as usize).clamp(1, MAX_POPS);
        }
        InternetConfig {
            n_isps,
            max_pops: MAX_POPS,
            size_exponent: SIZE_EXPONENT,
            customers_per_pop: self.customers_per_pop,
            ..InternetConfig::default()
        }
    }
}

impl Workload for InternetBuild {
    fn unit(&self) -> &'static str {
        "routers"
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("target_routers", self.target_routers as f64),
            ("customers_per_pop", self.customers_per_pop as f64),
            ("isps", self.config().n_isps as f64),
            ("cities", CITIES as f64),
            ("flow_sources", self.flow_sources as f64),
        ]
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest {
        self.seed = seed;
        let (census, traffic, d) = geography(CITIES, seed, tr);
        self.geo = Some((census, traffic));
        d
    }

    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut {
        let (census, traffic) = self.geo.as_ref().expect("set up");
        let (seed, threads) = (self.seed, self.threads);
        let mut steps = Vec::new();
        let mut d = Digest::default();
        let n = step(&mut steps, || {
            let config = self.config();
            let net = tr.span("core.generate_internet", || {
                generate_internet(
                    census,
                    traffic,
                    &config,
                    &mut StdRng::seed_from_u64(seed + 1),
                )
            });
            let g = tr.span("core.combined_router_graph", || net.combined_router_graph());
            drop(net);
            tr.count("core.routers", g.node_count() as f64);
            tr.count("core.links", g.edge_count() as f64);

            // Snapshot the analytics inputs and round-trip them.
            let csr = tr.span("graph.csr_build", || CsrGraph::from_graph(&g));
            let mut snap = Snapshot::new(csr);
            snap.node_u32.push((
                "customer".into(),
                g.node_ids()
                    .map(|v| (g.node_weight(v).role == RouterRole::Customer) as u32)
                    .collect(),
            ));
            snap.edge_u32.push((
                "trunk".into(),
                g.edge_ids()
                    .map(|e| {
                        matches!(
                            g.edge_weight(e).kind,
                            LinkKind::Backbone | LinkKind::Metro | LinkKind::Peering
                        ) as u32
                    })
                    .collect(),
            ));
            let (ep_a, ep_b): (Vec<u32>, Vec<u32>) =
                g.edges().map(|(_, a, b, _)| (a.0, b.0)).unzip();
            snap.edge_u32.push(("ep_a".into(), ep_a));
            snap.edge_u32.push(("ep_b".into(), ep_b));
            drop(g);
            let bytes = tr.span("graph.snapshot_encode", || snap.to_bytes());
            tr.count("graph.snapshot_bytes", bytes.len() as f64);
            let back = tr.span("graph.snapshot_decode", || Snapshot::from_bytes(&bytes));
            let back = match back {
                Ok(back) => back,
                Err(e) => panic!("snapshot does not decode: {:?}", e),
            };
            ck.check(back == snap, || "snapshot round trip is not exact".into());
            d.bytes(&bytes);
            drop((snap, bytes));

            let col = |name: &str| -> &Vec<u32> {
                let cols = back.node_u32.iter().chain(&back.edge_u32);
                &cols.into_iter().find(|(c, _)| c == name).expect("column").1
            };
            let n = back.csr.node_count();
            let endpoints: Vec<(u32, u32)> = col("ep_a")
                .iter()
                .copied()
                .zip(col("ep_b").iter().copied())
                .collect();
            let g: Graph<(), ()> = Graph::from_edges(
                n,
                endpoints.iter().map(|&(a, b)| (a as usize, b as usize, ())),
            );
            ck.eq("router graph edges", g.edge_count(), back.csr.edge_count());

            let paths = tr.span("metrics.paths", || path_metrics(&g));
            ck.check(
                paths.mean_distance.is_finite() && paths.mean_distance > 0.0,
                || format!("mean distance {}", paths.mean_distance),
            );
            d.f64(paths.mean_distance).u64(paths.diameter as u64);

            for policy in [RemovalPolicy::RandomFailure, RemovalPolicy::DegreeAttack] {
                let curve = tr.span("metrics.robustness", || {
                    degradation_curve(
                        &g,
                        policy,
                        &REMOVED_FRACTIONS,
                        &mut StdRng::seed_from_u64(seed + 44),
                        threads,
                    )
                });
                ck.eq("degradation points", curve.len(), REMOVED_FRACTIONS.len());
                for p in &curve {
                    ck.check((0.0..=1.0).contains(&p.giant_fraction), || {
                        format!("giant fraction {}", p.giant_fraction)
                    });
                    d.f64(p.removed_fraction).f64(p.giant_fraction);
                }
            }

            // Trunk betweenness over the transit core's giant component.
            let trunk: Vec<bool> = col("trunk").iter().map(|&t| t != 0).collect();
            let core = g.edge_subgraph(&trunk);
            let mask = tr
                .span("graph.csr_build", || CsrGraph::from_graph(&core))
                .largest_component_mask();
            let (core, _) = core.induced_subgraph(&mask);
            let core_csr = tr.span("graph.csr_build", || CsrGraph::from_graph(&core));
            let (b, sampled) = tr.span("metrics.betweenness", || {
                betweenness_estimate(&core_csr, threads)
            });
            ck.eq("trunk betweenness length", b.len(), core_csr.node_count());
            ck.check(b.iter().all(|x| x.is_finite() && *x >= 0.0), || {
                "trunk betweenness has a negative or non-finite value".into()
            });
            d.f64s(&b).u64(sampled as u64);

            // All-pairs unit demand among strided customers.
            let customers: Vec<usize> = (0..n).filter(|&v| col("customer")[v] != 0).collect();
            let k = customers.len().min(self.flow_sources);
            let stride = (customers.len() / k.max(1)).max(1);
            let mut mass = vec![0.0; n];
            for &v in customers.iter().step_by(stride).take(k) {
                mass[v] = 1.0;
            }
            let demand = DemandMatrix::from_masses_scaled(mass, None, 0.0, 1.0, 1.0);
            let loads = tr.span("sim.traffic.link_loads", || {
                link_loads(&back.csr, &demand, RoutePolicy::TreePath, threads)
            });
            tr.count("sim.traffic.flows_routed", loads.routed_flows as f64);
            tr.count("sim.traffic.flows_unrouted", loads.unrouted_flows as f64);
            ck.eq(
                "routed + unrouted flows",
                loads.routed_flows + loads.unrouted_flows,
                positive_pairs(&demand),
            );
            d.f64s(&loads.link_load)
                .u64(loads.routed_flows)
                .u64(loads.unrouted_flows)
                .f64(loads.traffic_hops);
            n
        });
        ck.check(n > self.target_routers / 2, || {
            format!("{} routers for a target of {}", n, self.target_routers)
        });
        d.u64(n as u64);
        PassOut {
            digest: d,
            units: n as f64,
            step_ms: steps,
        }
    }
}
