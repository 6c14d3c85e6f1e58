//! Capacitated-subsystem micro-benchmarks: tier provisioning, the TE
//! weight-tuning loop, and the overload cascade, serial and parallel.
//! (The ≥2× gate against the per-round reference lives in
//! `tests/te_speedup.rs`.) CI runs
//! this harness with `CRITERION_JSON=BENCH_te.json` so the cascade
//! engine's perf trajectory is tracked per commit.

use criterion::{criterion_group, criterion_main, Criterion};
use hot_baselines::glp;
use hot_econ::cable::CableCatalog;
use hot_econ::provision::provision_capacities;
use hot_graph::csr::CsrGraph;
use hot_graph::parallel::default_threads;
use hot_sim::cascade::{cascade, CascadeConfig};
use hot_sim::demand::OdDemand;
use hot_sim::te::{tune_weights, TeConfig};
use hot_sim::traffic::{link_loads, RoutePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Integer demands restricted to a source band: exact in f64, same
/// family the differential suite pins batched == naive with.
struct BandedIntegerDemand {
    n: usize,
    max_src: usize,
}

impl OdDemand for BandedIntegerDemand {
    fn node_count(&self) -> usize {
        self.n
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src == dst || src >= self.max_src {
            0.0
        } else {
            ((src * 7 + dst * 13) % 5) as f64
        }
    }
}

fn bench_te(c: &mut Criterion) {
    let n = 2000;
    let g = glp::generate(
        &glp::GlpConfig {
            n,
            ..glp::GlpConfig::default()
        },
        &mut StdRng::seed_from_u64(20030617),
    );
    let csr = CsrGraph::from_graph(&g);
    let threads = default_threads();
    let dem = BandedIntegerDemand { n, max_src: 200 };
    let loads = link_loads(&csr, &dem, RoutePolicy::TreePath, threads);
    // Under-provision every 7th link so the cascade benchmarks exercise
    // real multi-round failures, not a one-round fixed point.
    let stressed: Vec<f64> = loads
        .link_load
        .iter()
        .enumerate()
        .map(|(e, &l)| (l + 1.0) * if e % 7 == 0 { 0.8 } else { 1.5 })
        .collect();
    // Comfortable capacities for the TE loop: tight enough that weight
    // tuning has overloads to shave, loose enough to converge.
    let comfortable: Vec<f64> = loads.link_load.iter().map(|&l| (l + 1.0) * 1.2).collect();
    let catalog = CableCatalog::realistic_2003();
    let cascade_cfg = CascadeConfig::default();

    let mut group = c.benchmark_group("te_glp2000");
    group.sample_size(10);
    group.bench_function("provision_tiers", |b| {
        b.iter(|| black_box(provision_capacities(&catalog, &loads.link_load, 1.25)))
    });
    group.bench_function("te_tune_4rounds", |b| {
        let cfg = TeConfig {
            max_rounds: 4,
            ..TeConfig::default()
        };
        b.iter(|| black_box(tune_weights(&csr, &dem, &comfortable, &cfg, threads)))
    });
    group.bench_function("cascade_batched_serial", |b| {
        b.iter(|| black_box(cascade(&csr, &dem, &stressed, &cascade_cfg, 1)))
    });
    group.bench_function(format!("cascade_batched_par{}", threads).as_str(), |b| {
        b.iter(|| black_box(cascade(&csr, &dem, &stressed, &cascade_cfg, threads)))
    });
    group.finish();
}

criterion_group!(benches, bench_te);
criterion_main!(benches);
