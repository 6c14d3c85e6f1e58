//! `engine-suite`: several engines reading one shared, heavy-tailed
//! input. A designed ISP (capacities provisioned for its busy-hour
//! envelope) and degree-proportionally provisioned GLP and BA controls
//! are built in set-up; the timed pass runs baseline link loads, TE
//! weight tuning, the surge cascade, betweenness, two probe campaigns
//! with their bias analytics, and the valley-free policy sweep, all on
//! the same CSRs.

use super::{geography, positive_pairs, step, PassOut, Size, Workload};
use crate::check::{Checks, Digest};
use crate::trace::Tracer;
use hot_baselines::{ba, glp};
use hot_bgp::summary::policy_summary_all;
use hot_bgp::topology::AsTopology;
use hot_core::isp::generator::{generate, IspConfig};
use hot_core::isp::RouterRole;
use hot_core::peering::{generate_internet, InternetConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::{proportional_capacities, provision_capacities};
use hot_graph::csr::CsrGraph;
use hot_graph::graph::{Graph, NodeId};
use hot_metrics::bias::bias_summary;
use hot_metrics::hierarchy::betweenness_estimate;
use hot_sim::cascade::{cascade, CascadeConfig};
use hot_sim::demand::{DemandConfig, DemandMatrix, DemandModel, SumDemand};
use hot_sim::probe::{run_campaign, ProbeCampaign};
use hot_sim::te::{tune_weights, TeConfig};
use hot_sim::traceroute::strided_vantages;
use hot_sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOTAL_TRAFFIC: f64 = 1_000_000.0;
const SURGE_TRAFFIC: f64 = 1_000_000.0;
const HEADROOM: f64 = 1.25;
/// TE and cascade run for a seed-dependent number of rounds on the
/// degree-based controls; these caps are below what the controls reach,
/// so a pass's work does not depend on the seed.
const TE_ROUNDS: usize = 4;
const CASCADE_ROUNDS: usize = 5;
const VANTAGES: [usize; 2] = [16, 256];
const TIER1_COUNT: usize = 3;

/// One topology with everything the engines read.
struct Case {
    name: &'static str,
    csr: CsrGraph,
    base: DemandMatrix,
    surge: DemandMatrix,
    capacities: Vec<f64>,
    /// Per-link latency: latency forwarding for the probes when present.
    latency: Option<Vec<f64>>,
    vantages: Vec<Vec<NodeId>>,
    as_topology: AsTopology,
}

pub struct EngineSuite {
    cities: usize,
    isp_pops: usize,
    isp_customers: usize,
    control_n: usize,
    threads: usize,
    cases: Vec<Case>,
}

impl EngineSuite {
    pub fn new(size: Size, threads: usize) -> Self {
        EngineSuite {
            cities: size.pick(30, 10),
            isp_pops: size.pick(10, 3),
            isp_customers: size.pick(1_000, 60),
            control_n: size.pick(1_000, 120),
            threads,
            cases: Vec::new(),
        }
    }

    /// One engine case: every engine over one topology.
    fn run_case(&self, c: &Case, tr: &Tracer, ck: &mut Checks, d: &mut Digest) {
        let threads = self.threads;
        let csr = &c.csr;
        let loads = tr.span("sim.traffic.link_loads", || {
            link_loads(csr, &c.base, RoutePolicy::TreePath, threads)
        });
        tr.count("sim.traffic.flows_routed", loads.routed_flows as f64);
        tr.count("sim.traffic.flows_unrouted", loads.unrouted_flows as f64);
        ck.eq(
            &format!("{} routed + unrouted flows", c.name),
            loads.routed_flows + loads.unrouted_flows,
            positive_pairs(&c.base),
        );
        d.str(c.name)
            .f64s(&loads.link_load)
            .u64(loads.routed_flows)
            .u64(loads.unrouted_flows);

        let te = tr.span("sim.te.tune_weights", || {
            let cfg = TeConfig {
                max_rounds: TE_ROUNDS,
                ..TeConfig::default()
            };
            tune_weights(csr, &c.base, &c.capacities, &cfg, threads)
        });
        let accepted = te.trajectory.len().saturating_sub(1);
        tr.count("sim.te.rounds_tried", te.rounds_tried as f64);
        tr.count("sim.te.accepted", accepted as f64);
        ck.check(accepted <= te.rounds_tried, || {
            format!(
                "{} TE accepted {} of {} rounds",
                c.name, accepted, te.rounds_tried
            )
        });
        ck.check(te.final_max_util() <= te.initial_max_util(), || {
            format!("{} TE raised the peak utilization", c.name)
        });
        d.f64s(&te.weights)
            .f64s(&te.trajectory)
            .u64(te.rounds_tried as u64)
            .u64(te.converged as u64);

        let out = tr.span("sim.cascade", || {
            let cfg = CascadeConfig {
                threshold: 1.0,
                max_rounds: CASCADE_ROUNDS,
            };
            cascade(
                csr,
                &SumDemand::new(&c.base, &c.surge),
                &c.capacities,
                &cfg,
                threads,
            )
        });
        tr.count("sim.cascade.rounds", out.rounds.len() as f64);
        ck.check(
            !out.rounds.is_empty() && out.rounds.len() <= CASCADE_ROUNDS + 1,
            || format!("{} cascade ran {} rounds", c.name, out.rounds.len()),
        );
        d.str(&format!("{:?}", out.rounds))
            .u64(out.converged as u64);
        d.u32s(&out.alive.iter().map(|&a| a as u32).collect::<Vec<_>>());

        let (true_b, sampled) =
            tr.span("metrics.betweenness", || betweenness_estimate(csr, threads));
        d.f64s(&true_b).u64(sampled as u64);

        for vantages in &c.vantages {
            let campaign = ProbeCampaign {
                vantages,
                destinations: None,
                link_latency: c.latency.as_deref(),
            };
            let res = tr.span("sim.probe.run_campaign", || {
                run_campaign(csr, &campaign, threads)
            });
            let stats = &res.stats;
            tr.count("sim.probe.probes_sent", stats.probes_sent as f64);
            tr.count("sim.probe.probes_completed", stats.probes_completed as f64);
            ck.check(stats.probes_completed <= stats.probes_sent, || {
                format!(
                    "{} completed {} of {} probes",
                    c.name, stats.probes_completed, stats.probes_sent
                )
            });
            ck.eq(
                &format!("{} probes sent", c.name),
                stats.probes_sent,
                (vantages.len() * csr.node_count()) as u64,
            );
            let bias = tr.span("metrics.bias_summary", || {
                bias_summary(
                    csr,
                    &res.map.node_seen,
                    &res.map.edge_seen,
                    &true_b,
                    threads,
                )
            });
            d.str(&format!("{:?}", stats)).str(&format!("{:?}", bias));
        }

        let policy = tr.span("bgp.policy_summary", || {
            policy_summary_all(&c.as_topology, threads)
        });
        tr.count("bgp.sources", policy.sources as f64);
        ck.eq(
            &format!("{} policy sources", c.name),
            policy.sources,
            policy.ases,
        );
        ck.check(
            policy.policy_reachable <= policy.bfs_reachable && policy.bfs_reachable <= policy.pairs,
            || format!("{} policy reachability exceeds BFS reachability", c.name),
        );
        d.str(&format!("{:?}", policy));
    }
}

fn rank_biased(csr: &CsrGraph, tr: &Tracer) -> DemandMatrix {
    tr.span("sim.demand.build", || {
        DemandMatrix::build(
            csr,
            None,
            &DemandConfig {
                model: DemandModel::RankBiased { exponent: 1.0 },
                total_traffic: SURGE_TRAFFIC,
                ..DemandConfig::default()
            },
        )
    })
}

fn vantage_sets<N, E>(g: &Graph<N, E>) -> Vec<Vec<NodeId>> {
    VANTAGES.iter().map(|&k| strided_vantages(g, k)).collect()
}

fn digest_case(d: &mut Digest, c: &Case) {
    d.str(c.name)
        .u32s(c.csr.offsets())
        .f64s(&c.capacities)
        .f64(c.base.total())
        .f64(c.surge.total());
    for v in &c.vantages {
        d.u32s(&v.iter().map(|x| x.0).collect::<Vec<_>>());
    }
    d.u64(c.as_topology.len() as u64)
        .u64(c.as_topology.p2c_count() as u64)
        .u64(c.as_topology.p2p_count() as u64);
}

impl Workload for EngineSuite {
    fn unit(&self) -> &'static str {
        "engine cases"
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("cities", self.cities as f64),
            ("isp_pops", self.isp_pops as f64),
            ("isp_customers", self.isp_customers as f64),
            ("control_n", self.control_n as f64),
            ("te_rounds", TE_ROUNDS as f64),
        ]
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest {
        let threads = self.threads;
        let (census, traffic, mut d) = geography(self.cities, seed, tr);
        let mut cases = Vec::new();

        // The designed ISP, provisioned from the cable catalog for its
        // customer demand plus a flash-crowd allowance.
        let cfg = IspConfig {
            n_pops: self.isp_pops,
            total_customers: self.isp_customers,
            ..IspConfig::default()
        };
        let isp = tr.span("core.isp", || {
            generate(&census, &traffic, &cfg, &mut StdRng::seed_from_u64(seed))
        });
        let csr = tr.span("graph.csr_build", || CsrGraph::from_graph(&isp.graph));
        let g = &isp.graph;
        let mass = g
            .node_ids()
            .map(|v| (g.node_weight(v).role == RouterRole::Customer) as u8 as f64)
            .collect();
        let positions = g.node_ids().map(|v| g.node_weight(v).location).collect();
        let base = tr.span("sim.demand.build", || {
            DemandMatrix::from_masses(mass, Some(positions), 1.0, 1.0, TOTAL_TRAFFIC)
        });
        let surge = rank_biased(&csr, tr);
        let envelope = SumDemand::new(&base, &surge);
        let loads = tr.span("sim.traffic.link_loads", || {
            link_loads(&csr, &envelope, RoutePolicy::TreePath, threads)
        });
        let capacities = tr.span("econ.provision", || {
            provision_capacities(&CableCatalog::realistic_2003(), &loads.link_load, HEADROOM)
        });
        let latency = g
            .edge_ids()
            .map(|e| g.edge_weight(e).length.max(1e-9))
            .collect();
        // The ISP's AS-level world: a small economy of designed ISPs.
        let net = tr.span("core.generate_internet", || {
            generate_internet(
                &census,
                &traffic,
                &InternetConfig {
                    n_isps: 12,
                    max_pops: 6,
                    customers_per_pop: 4,
                    ..InternetConfig::default()
                },
                &mut StdRng::seed_from_u64(seed + 19),
            )
        });
        cases.push(Case {
            name: "isp(designed)",
            vantages: vantage_sets(g),
            as_topology: tr.span("bgp.topology", || AsTopology::from_internet(&net)),
            csr,
            base,
            surge,
            capacities,
            latency: Some(latency),
        });

        // Degree-based controls, capacities proportional to endpoint
        // degree and rescaled to the same headroom.
        let n = self.control_n;
        let controls = [
            (
                "glp",
                tr.span("baselines.generate", || {
                    glp::generate(
                        &glp::GlpConfig {
                            n,
                            ..glp::GlpConfig::default()
                        },
                        &mut StdRng::seed_from_u64(seed + 1),
                    )
                }),
            ),
            (
                "ba(m=2)",
                tr.span("baselines.generate", || {
                    ba::generate(n, 2, &mut StdRng::seed_from_u64(seed + 2))
                }),
            ),
        ];
        for (name, g) in controls {
            let csr = tr.span("graph.csr_build", || CsrGraph::from_graph(&g));
            let base = tr.span("sim.demand.build", || {
                DemandMatrix::build(
                    &csr,
                    None,
                    &DemandConfig {
                        total_traffic: TOTAL_TRAFFIC,
                        ..DemandConfig::default()
                    },
                )
            });
            let degrees = csr.degree_sequence();
            let weights: Vec<f64> = g
                .edges()
                .map(|(_, a, b, _)| (degrees[a.index()] + degrees[b.index()]) as f64)
                .collect();
            let loads = tr.span("sim.traffic.link_loads", || {
                link_loads(&csr, &base, RoutePolicy::TreePath, threads)
            });
            let capacities = tr.span("econ.provision", || {
                proportional_capacities(&weights, &loads.link_load, HEADROOM)
            });
            cases.push(Case {
                name,
                surge: rank_biased(&csr, tr),
                vantages: vantage_sets(&g),
                as_topology: tr.span("bgp.topology", || {
                    AsTopology::from_graph_by_degree(&g, TIER1_COUNT)
                }),
                csr,
                base,
                capacities,
                latency: None,
            });
        }
        for c in &cases {
            digest_case(&mut d, c);
        }
        self.cases = cases;
        d
    }

    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut {
        let mut steps = Vec::new();
        let mut d = Digest::default();
        // An engine case is one topology through every engine.
        for c in &self.cases {
            step(&mut steps, || self.run_case(c, tr, ck, &mut d));
        }
        PassOut {
            digest: d,
            units: steps.len() as f64,
            step_ms: steps,
        }
    }
}
