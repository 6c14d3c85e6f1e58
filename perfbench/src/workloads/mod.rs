//! The four workloads. Each builds its inputs from the seed in
//! [`Workload::setup`] and runs one timed pass over them in
//! [`Workload::pass`], wrapping every call into a layer in a span.

mod engine_suite;
mod internet_build;
mod metric_matrix;
mod temporal_growth;

use crate::check::{Checks, Digest};
use crate::trace::Tracer;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "internet-build",
    "metric-matrix",
    "engine-suite",
    "temporal-growth",
];

/// Input scale: `full` is the benchmark, `tiny` the smoke-test size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// `full` at full size, `tiny` otherwise.
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// What one pass produced.
pub struct PassOut {
    /// Digest of every output of the pass.
    pub digest: Digest,
    /// Units of work completed (routers, reports, engine calls, epochs).
    pub units: f64,
    /// Latency of each repeated step of the pass, in ms.
    pub step_ms: Vec<f64>,
}

pub trait Workload {
    /// The unit `units_per_s` counts.
    fn unit(&self) -> &'static str;
    /// The input sizes, for the machine descriptor.
    fn sizes(&self) -> Vec<(&'static str, f64)>;
    /// Builds the inputs from `seed`; returns a digest of them.
    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest;
    /// One timed pass over the inputs.
    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut;
    /// Whether a pass uses its inputs up, so set-up runs again before
    /// the next pass.
    fn consumes_input(&self) -> bool {
        false
    }
}

/// The named workload: `instances` independent copies, each set up
/// from its own sub-seed and run back to back in every pass, so a run's
/// figures average over several draws of the inputs instead of one.
pub fn make(name: &str, size: Size, threads: usize) -> Option<Box<dyn Workload>> {
    type Factory = fn(Size, usize) -> Box<dyn Workload>;
    let (instances, one): (usize, Factory) = match name {
        "internet-build" => (1, |s, t| Box::new(internet_build::InternetBuild::new(s, t))),
        "metric-matrix" => (6, |s, _| Box::new(metric_matrix::MetricMatrix::new(s))),
        "engine-suite" => (2, |s, t| Box::new(engine_suite::EngineSuite::new(s, t))),
        "temporal-growth" => (2, |s, t| {
            Box::new(temporal_growth::TemporalGrowth::new(s, t))
        }),
        _ => return None,
    };
    Some(Box::new(Instances(
        (0..instances).map(|_| one(size, threads)).collect(),
    )))
}

/// Spacing of the instances' sub-seeds: wider than the seed offsets any
/// workload derives internally.
const SUBSEED_STRIDE: u64 = 1_000_000;

struct Instances(Vec<Box<dyn Workload>>);

impl Workload for Instances {
    fn unit(&self) -> &'static str {
        self.0[0].unit()
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        let mut sizes = self.0[0].sizes();
        sizes.push(("instances", self.0.len() as f64));
        sizes
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) -> Digest {
        let mut d = Digest::default();
        for (k, w) in self.0.iter_mut().enumerate() {
            let sub = seed.wrapping_add(k as u64 * SUBSEED_STRIDE);
            d.digest(w.setup(sub, tr));
        }
        d
    }

    fn pass(&mut self, tr: &Tracer, ck: &mut Checks) -> PassOut {
        let mut all = PassOut {
            digest: Digest::default(),
            units: 0.0,
            step_ms: Vec::new(),
        };
        for w in &mut self.0 {
            let out = w.pass(tr, ck);
            all.digest.digest(out.digest);
            all.units += out.units;
            all.step_ms.extend(out.step_ms);
        }
        all
    }

    fn consumes_input(&self) -> bool {
        self.0[0].consumes_input()
    }
}

/// Runs `f` and appends its latency in ms to `steps`.
fn step<T>(steps: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    steps.push(t0.elapsed().as_secs_f64() * 1e3);
    out
}

/// Ordered pairs of positive-mass nodes: the flows a product-form
/// demand matrix asks the traffic engine to route.
fn positive_pairs(demand: &hot_sim::demand::DemandMatrix) -> u64 {
    let k = (0..demand.len()).filter(|&i| demand.mass(i) > 0.0).count() as u64;
    k * k.saturating_sub(1)
}

/// The synthetic geography every ISP-level input builds on: a census of
/// `cities` Zipf cities and its gravity traffic matrix. Returns them
/// with their digest.
fn geography(
    cities: usize,
    seed: u64,
    tr: &Tracer,
) -> (
    hot_geo::population::Census,
    hot_geo::gravity::TrafficMatrix,
    Digest,
) {
    use hot_geo::gravity::{GravityConfig, TrafficMatrix};
    use hot_geo::population::{Census, CensusConfig};
    use rand::SeedableRng;
    let census = tr.span("geo.census", || {
        Census::synthesize(
            &CensusConfig {
                n_cities: cities,
                ..CensusConfig::default()
            },
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        )
    });
    let traffic = tr.span("geo.gravity", || {
        TrafficMatrix::gravity(&census, &GravityConfig::default())
    });
    let mut d = Digest::default();
    for c in &census.cities {
        d.f64(c.location.x).f64(c.location.y).f64(c.population);
    }
    for i in 0..traffic.len() {
        for j in 0..traffic.len() {
            d.f64(traffic.demand(i, j));
        }
    }
    (census, traffic, d)
}
