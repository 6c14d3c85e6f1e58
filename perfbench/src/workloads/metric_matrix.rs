//! `metric-matrix`: the E6 generator battery — optimization-driven,
//! degree-based, structural and null-model generators, every row sized
//! near one node count — each row through the full metric report. Many
//! small independent graphs with no shared input; the dense spectral
//! pass dominates every report.

use super::{geography, PassOut, Size, Workload};
use crate::check::{Checks, Digest};
use crate::trace::Tracer;
use hot_baselines::{ba, brite, glp, plrg, random, transit_stub, waxman};
use hot_core::buyatbulk::{mmp, problem::Instance};
use hot_core::fkp::{grow, FkpConfig};
use hot_core::isp::generator::{generate, IspConfig};
use hot_econ::cable::CableCatalog;
use hot_econ::cost::LinkCost;
use hot_geo::gravity::TrafficMatrix;
use hot_geo::population::Census;
use hot_graph::graph::Graph;
use hot_graph::traversal::{component_count, largest_component_size};
use hot_metrics::report::MetricValue;
use hot_metrics::MetricReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// `MetricReport::compute` skips the dense spectral pass above this
/// node count; the traced decomposition must do the same.
const SPECTRAL_LIMIT: usize = 3000;
const SURROGATE_SWAPS: usize = 10;

pub struct MetricMatrix {
    /// Target node count of every row.
    n: usize,
    cities: usize,
    isp_pops: usize,
    isp_customers: usize,
    /// `(transit_domains, transit_size, stubs_per_transit_node, stub_size)`.
    transit_stub: (usize, usize, usize, usize),
    seed: u64,
    geo: Option<(Census, TrafficMatrix)>,
}

impl MetricMatrix {
    pub fn new(size: Size) -> Self {
        MetricMatrix {
            n: size.pick(160, 60),
            cities: size.pick(20, 8),
            isp_pops: size.pick(6, 3),
            isp_customers: size.pick(130, 40),
            transit_stub: size.pick((2, 4, 3, 5), (2, 3, 2, 3)),
            seed: 0,
            geo: None,
        }
    }
}

/// The report of one row: `MetricReport::compute` untraced; traced,
/// the same public metric functions called one at a time, each in its
/// own span, so the report's time splits by metric. The traced run's
/// digest must match the untraced one, which pins the two paths equal.
fn report<N, E>(name: &str, g: &Graph<N, E>, tr: &Tracer) -> MetricReport {
    use hot_metrics::{
        assortativity::assortativity, clustering::mean_clustering, degree_dist::summarize,
        distortion::distortion, expansion::expansion_at, expfit::classify, hierarchy::hierarchy,
        paths::path_metrics, resilience::mean_pairwise_connectivity, spectral::spectral_summary,
    };
    tr.span("metrics.report", || {
        if !tr.enabled() {
            return MetricReport::compute(name, g);
        }
        let n = g.node_count();
        let (verdict, degree, assort, components, giant) = tr.span("metrics.degree", || {
            let verdict = classify(&g.degree_sequence());
            let giant = if n > 0 {
                largest_component_size(g) as f64 / n as f64
            } else {
                0.0
            };
            (
                verdict,
                summarize(g),
                assortativity(g),
                component_count(g),
                giant,
            )
        });
        let paths = tr.span("metrics.paths", || path_metrics(g));
        let spectral = tr.span("metrics.spectral", || {
            (n <= SPECTRAL_LIMIT && n > 0).then(|| spectral_summary(g))
        });
        MetricReport {
            name: name.into(),
            nodes: n,
            edges: g.edge_count(),
            components,
            giant_fraction: giant,
            degree,
            powerlaw_exponent: verdict.power.map(|f| f.exponent),
            tail: verdict.class,
            mean_clustering: tr.span("metrics.clustering", || mean_clustering(g)),
            assortativity: assort,
            mean_distance: paths.mean_distance,
            diameter: paths.diameter,
            expansion3: tr.span("metrics.expansion", || expansion_at(g, 3)),
            resilience: tr.span("metrics.resilience", || mean_pairwise_connectivity(g)),
            distortion: tr.span("metrics.distortion", || distortion(g)),
            hierarchy: tr.span("metrics.hierarchy", || hierarchy(g)),
            spectral_radius: spectral.map(|s| s.radius),
            algebraic_connectivity: spectral.map(|s| s.algebraic_connectivity),
        }
    })
}

fn digest_report(d: &mut Digest, r: &MetricReport) {
    for (key, value) in r.key_values() {
        d.str(key);
        match value {
            MetricValue::Int(i) => d.u64(i),
            MetricValue::Float(f) => d.f64(f),
            MetricValue::OptFloat(o) => d.f64(o.unwrap_or(f64::NAN)),
            MetricValue::Text(s) => d.str(&s),
        };
    }
}

/// Runs the report for one generated row and checks it against the
/// generator's graph.
fn row<N, E>(
    rows: &mut Vec<MetricReport>,
    ck: &mut Checks,
    tr: &Tracer,
    name: &str,
    g: &Graph<N, E>,
) {
    let r = report(name, g, tr);
    ck.eq(&format!("{} report nodes", name), r.nodes, g.node_count());
    ck.eq(&format!("{} report edges", name), r.edges, g.edge_count());
    ck.check(
        r.mean_distance.is_finite() && r.distortion.is_finite(),
        || format!("{} report has a non-finite metric", name),
    );
    rows.push(r);
}

impl Workload for MetricMatrix {
    fn unit(&self) -> &'static str {
        "reports"
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        let (td, ts, spt, ss) = self.transit_stub;
        vec![
            ("n", self.n as f64),
            ("rows", 12.0),
            ("cities", self.cities as f64),
            ("isp_pops", self.isp_pops as f64),
            ("isp_customers", self.isp_customers as f64),
            ("transit_stub_nodes", (td * ts * (1 + spt * ss)) as f64),
        ]
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest {
        self.seed = seed;
        let (census, traffic, d) = geography(self.cities, seed + 2, tr);
        self.geo = Some((census, traffic));
        d
    }

    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut {
        let (census, traffic) = self.geo.as_ref().expect("set up");
        let (n, seed) = (self.n, self.seed);
        let t0 = Instant::now();
        let mut rows = Vec::new();
        let rows = &mut rows;
        // Optimization-driven family.
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, alpha) in [("fkp(a=10)", 10.0), ("fkp(a=4n)", 4.0 * n as f64)] {
            let cfg = FkpConfig {
                n,
                alpha,
                ..FkpConfig::default()
            };
            let g = tr.span("core.fkp", || grow(&cfg, &mut rng).to_graph());
            row(rows, ck, tr, name, &g);
        }
        {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let g = tr.span("core.buyatbulk", || {
                let cost = LinkCost::cables_only(CableCatalog::realistic_2003());
                let inst = Instance::random_uniform(n - 1, 15.0, cost, &mut rng);
                mmp::solve(&inst, &mut rng).to_graph(&inst)
            });
            row(rows, ck, tr, "buy-at-bulk", &g);
        }
        let isp = {
            let cfg = IspConfig {
                n_pops: self.isp_pops,
                total_customers: self.isp_customers,
                ..IspConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let isp = tr.span("core.isp", || generate(census, traffic, &cfg, &mut rng));
            row(rows, ck, tr, "isp(full)", &isp.graph);
            isp
        };
        // Degree-based family.
        let mut rng = StdRng::seed_from_u64(seed + 3);
        {
            let g = tr.span("baselines.generate", || ba::generate(n, 2, &mut rng));
            row(rows, ck, tr, "ba(m=2)", &g);
        }
        {
            let cfg = glp::GlpConfig {
                n,
                ..glp::GlpConfig::default()
            };
            let g = tr.span("baselines.generate", || glp::generate(&cfg, &mut rng));
            row(rows, ck, tr, "glp", &g);
        }
        {
            let g = tr.span("baselines.generate", || plrg::generate(n, 2.2, 1, &mut rng));
            row(rows, ck, tr, "plrg(g=2.2)", &g);
        }
        // Structural family.
        let mut rng = StdRng::seed_from_u64(seed + 4);
        {
            let cfg = waxman::WaxmanConfig {
                n,
                alpha: 0.1,
                beta: 0.25,
                ..waxman::WaxmanConfig::default()
            };
            let g = tr.span("baselines.generate", || waxman::generate(&cfg, &mut rng));
            row(rows, ck, tr, "waxman", &g);
        }
        {
            let (td, ts, spt, ss) = self.transit_stub;
            let cfg = transit_stub::TransitStubConfig {
                transit_domains: td,
                transit_size: ts,
                stubs_per_transit_node: spt,
                stub_size: ss,
                ..transit_stub::TransitStubConfig::default()
            };
            let g = tr.span("baselines.generate", || {
                transit_stub::generate(&cfg, &mut rng)
            });
            row(rows, ck, tr, "transit-stub", &g);
        }
        {
            let cfg = brite::BriteConfig {
                n,
                ..brite::BriteConfig::default()
            };
            let g = tr.span("baselines.generate", || brite::generate(&cfg, &mut rng));
            row(rows, ck, tr, "brite", &g);
        }
        // Null model, edge-matched to BA(m=2).
        {
            let mut rng = StdRng::seed_from_u64(seed + 5);
            let g = tr.span("baselines.generate", || random::gnm(n, 2 * n - 3, &mut rng));
            row(rows, ck, tr, "gnm(matched)", &g);
        }
        // The ISP's own degree-preserving surrogate.
        {
            let mut rng = StdRng::seed_from_u64(seed + 6);
            let g = tr.span("metrics.surrogate", || {
                hot_metrics::surrogate::degree_surrogate(&isp.graph, SURROGATE_SWAPS, &mut rng)
            });
            ck.eq(
                "surrogate degree sequence",
                g.degree_sequence(),
                isp.graph.degree_sequence(),
            );
            row(rows, ck, tr, "isp-surrogate", &g);
        }
        let mut d = Digest::default();
        for r in rows.iter() {
            digest_report(&mut d, r);
        }
        PassOut {
            digest: d,
            units: rows.len() as f64,
            step_ms: vec![t0.elapsed().as_secs_f64() * 1e3],
        }
    }
}
