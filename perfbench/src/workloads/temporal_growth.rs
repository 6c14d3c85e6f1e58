//! `temporal-growth`: the E20 schedule — HOT growth against GLP and BA
//! controls under the same arrival schedule and technology trend. Every
//! epoch appends to the epoch graph, commits it incrementally, and
//! updates the rolling degree, betweenness and trajectory trackers. The
//! only workload that writes to the graph layer.

use super::{step, PassOut, Size, Workload};
use crate::check::{Checks, Digest};
use crate::trace::Tracer;
use hot_econ::trend::TechTrend;
use hot_graph::graph::EdgeId;
use hot_metrics::rolling::{pow2_thresholds, DeltaBetweenness, RollingDegrees, Trajectory};
use hot_sim::evolve::{
    DegreeGrowth, Evolution, EvolveConfig, GrowthModel, HotGrowth, HotGrowthConfig,
};

const HOT_ALPHA: f64 = 6.0;
const REOPT_INTERVAL: u64 = 4;
const CONTROL_M: usize = 2;
const COST_DECLINE: f64 = 0.90;
const DEMAND_GROWTH: f64 = 1.35;

pub struct TemporalGrowth {
    epochs: u64,
    arrivals_per_epoch: usize,
    hot_cities: usize,
    hot_degree_cap: u32,
    pivot_stride: u64,
    ccdf_cap: u32,
    threads: usize,
    seed: u64,
    /// The three seeded (epoch-0) evolutions; a pass uses them up.
    start: Option<(
        Evolution<HotGrowth>,
        Evolution<DegreeGrowth>,
        Evolution<DegreeGrowth>,
    )>,
}

impl TemporalGrowth {
    pub fn new(size: Size, threads: usize) -> Self {
        TemporalGrowth {
            epochs: size.pick(40, 6),
            arrivals_per_epoch: size.pick(150, 20),
            hot_cities: size.pick(20, 5),
            hot_degree_cap: size.pick(16, 12),
            pivot_stride: size.pick(16, 4),
            ccdf_cap: size.pick(512, 64),
            threads,
            seed: 0,
            start: None,
        }
    }

    fn seeded<M: GrowthModel>(&self, model: M, tr: &Tracer) -> Evolution<M> {
        let cfg = EvolveConfig {
            epochs: self.epochs,
            arrivals_per_epoch: self.arrivals_per_epoch,
            trend: TechTrend::new(COST_DECLINE, DEMAND_GROWTH),
            reopt_interval: REOPT_INTERVAL,
            seed: self.seed + 20,
        };
        tr.span("sim.evolve.init", || Evolution::new(model, cfg))
    }
}

/// One model's evolution with its rolling trackers, advanced epoch by
/// epoch off the epoch graph's deltas.
struct Track<M> {
    evo: Evolution<M>,
    degs: RollingDegrees,
    bw: DeltaBetweenness,
    traj: Trajectory,
    nodes: usize,
    edges: usize,
}

impl<M: GrowthModel> Track<M> {
    fn new(evo: Evolution<M>, wl: &TemporalGrowth, tr: &Tracer) -> Self {
        let g = evo.graph();
        let degs = RollingDegrees::from_degrees(&g.csr().degree_sequence());
        let mut bw = DeltaBetweenness::new(wl.seed ^ 0xE20_B7EE, wl.pivot_stride);
        tr.span("metrics.rolling.betweenness_update", || {
            bw.update(g.csr(), wl.threads);
        });
        let mut traj = Trajectory::new(pow2_thresholds(wl.ccdf_cap));
        tr.span("metrics.rolling.record", || {
            traj.record(0, g.components(), &degs, &bw)
        });
        let (nodes, edges) = (g.node_count(), g.edge_count());
        Track {
            evo,
            degs,
            bw,
            traj,
            nodes,
            edges,
        }
    }

    fn epoch(&mut self, threads: usize, tr: &Tracer, ck: &mut Checks) {
        let delta = tr.span("sim.evolve.step", || self.evo.step());
        let g = self.evo.graph();
        let degs = &mut self.degs;
        tr.span("metrics.rolling.degrees", || {
            degs.grow_to(g.node_count());
            for e in delta.new_edges.clone() {
                let (a, b) = g.graph().edge_endpoints(EdgeId(e as u32));
                degs.add_edge(a.index(), b.index());
            }
        });
        let bw = &mut self.bw;
        tr.span("metrics.rolling.betweenness_update", || {
            bw.update(g.csr(), threads);
        });
        tr.span("metrics.rolling.record", || {
            self.traj
                .record(delta.epoch, g.components(), &self.degs, &self.bw)
        });
        tr.count("sim.evolve.new_nodes", delta.new_nodes.len() as f64);
        tr.count("sim.evolve.new_edges", delta.new_edges.len() as f64);
        tr.count("sim.evolve.reopt_links", delta.reopt_links as f64);
        let (nodes, edges) = (self.nodes, self.edges);
        ck.check(
            g.node_count() >= nodes
                && g.edge_count() >= edges
                && delta.new_nodes == (nodes..g.node_count())
                && delta.new_edges == (edges..g.edge_count()),
            || {
                format!(
                    "{} epoch {}: node or edge count went back",
                    self.evo.model_name(),
                    delta.epoch
                )
            },
        );
        (self.nodes, self.edges) = (g.node_count(), g.edge_count());
    }

    fn finish(self, epochs: u64, tr: &Tracer, ck: &mut Checks, d: &mut Digest) {
        let name = self.evo.model_name();
        let csr = self.evo.graph().csr();
        ck.eq(
            &format!("{} rolling degrees", name),
            self.degs.degrees(),
            &csr.degree_sequence()[..],
        );
        ck.eq(
            &format!("{} committed edges", name),
            csr.edge_count(),
            self.edges,
        );
        ck.eq(
            &format!("{} trajectory rows", name),
            self.traj.rows.len() as u64,
            epochs + 1,
        );
        tr.count("metrics.rolling.pivots", self.bw.pivot_count() as f64);
        d.str(name)
            .u64(self.nodes as u64)
            .u64(self.edges as u64)
            .f64s(self.bw.values())
            .str(&format!("{:?}", self.traj.rows));
    }
}

impl Workload for TemporalGrowth {
    fn unit(&self) -> &'static str {
        "epochs"
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("models", 3.0),
            ("epochs", self.epochs as f64),
            ("arrivals_per_epoch", self.arrivals_per_epoch as f64),
            ("hot_cities", self.hot_cities as f64),
            ("pivot_stride", self.pivot_stride as f64),
        ]
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest {
        self.seed = seed;
        let hot = self.seeded(
            HotGrowth::new(HotGrowthConfig {
                cities: self.hot_cities,
                alpha: HOT_ALPHA,
                degree_cap: self.hot_degree_cap,
                ..HotGrowthConfig::default()
            }),
            tr,
        );
        let glp = self.seeded(DegreeGrowth::glp(CONTROL_M), tr);
        let ba = self.seeded(DegreeGrowth::ba(CONTROL_M), tr);
        let mut d = Digest::default();
        for csr in [hot.graph().csr(), glp.graph().csr(), ba.graph().csr()] {
            d.u32s(csr.offsets())
                .u32s(&csr.targets().iter().map(|v| v.0).collect::<Vec<_>>());
        }
        self.start = Some((hot, glp, ba));
        d
    }

    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut {
        let (hot, glp, ba) = self.start.take().expect("set up");
        let (mut hot, mut glp, mut ba) = (
            Track::new(hot, self, tr),
            Track::new(glp, self, tr),
            Track::new(ba, self, tr),
        );
        // An epoch advances all three models under the shared schedule.
        let mut steps = Vec::new();
        for _ in 0..self.epochs {
            step(&mut steps, || {
                hot.epoch(self.threads, tr, ck);
                glp.epoch(self.threads, tr, ck);
                ba.epoch(self.threads, tr, ck);
            });
        }
        let mut d = Digest::default();
        hot.finish(self.epochs, tr, ck, &mut d);
        glp.finish(self.epochs, tr, ck, &mut d);
        ba.finish(self.epochs, tr, ck, &mut d);
        PassOut {
            digest: d,
            units: steps.len() as f64,
            step_ms: steps,
        }
    }

    fn consumes_input(&self) -> bool {
        true
    }
}
