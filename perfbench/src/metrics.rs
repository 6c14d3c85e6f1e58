//! The named metrics: end-to-end (untraced runs) and per-layer (traced
//! runs). `BENCHMARK.json` at the repository root lists the same names
//! and units; a test keeps the two in step.

use crate::trace::{Layer, Tracer};
use std::collections::BTreeMap;

/// End-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("units_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p90_ms", "ms"),
];

/// Per-layer metrics, in output order. A `_s` name is the self time of
/// the span it names (`metrics.report_s` alone is the report's total,
/// which its decomposition splits); `.calls` and `.cpu_util` read the
/// same span; anything else is a counter or a ratio of counters.
pub const PER_LAYER: [(&str, &str); 107] = [
    ("geo.census_s", "s"),
    ("geo.census.calls", "count"),
    ("geo.gravity_s", "s"),
    ("geo.gravity.calls", "count"),
    ("core.generate_internet_s", "s"),
    ("core.generate_internet.calls", "count"),
    ("core.generate_internet.cpu_util", "ratio"),
    ("core.routers", "count"),
    ("core.links", "count"),
    ("core.combined_router_graph_s", "s"),
    ("core.combined_router_graph.calls", "count"),
    ("core.fkp_s", "s"),
    ("core.fkp.calls", "count"),
    ("core.buyatbulk_s", "s"),
    ("core.buyatbulk.calls", "count"),
    ("core.isp_s", "s"),
    ("core.isp.calls", "count"),
    ("baselines.generate_s", "s"),
    ("baselines.generate.calls", "count"),
    ("metrics.surrogate_s", "s"),
    ("metrics.surrogate.calls", "count"),
    ("graph.csr_build_s", "s"),
    ("graph.csr_build.calls", "count"),
    ("graph.snapshot_encode_s", "s"),
    ("graph.snapshot_encode.calls", "count"),
    ("graph.snapshot_decode_s", "s"),
    ("graph.snapshot_decode.calls", "count"),
    ("graph.snapshot_bytes", "bytes"),
    ("metrics.report_s", "s"),
    ("metrics.report.calls", "count"),
    ("metrics.spectral_s", "s"),
    ("metrics.spectral.calls", "count"),
    ("metrics.spectral.cpu_util", "ratio"),
    ("metrics.spectral_share", "ratio"),
    ("metrics.paths_s", "s"),
    ("metrics.paths.calls", "count"),
    ("metrics.paths.cpu_util", "ratio"),
    ("metrics.clustering_s", "s"),
    ("metrics.clustering.calls", "count"),
    ("metrics.expansion_s", "s"),
    ("metrics.expansion.calls", "count"),
    ("metrics.resilience_s", "s"),
    ("metrics.resilience.calls", "count"),
    ("metrics.distortion_s", "s"),
    ("metrics.distortion.calls", "count"),
    ("metrics.hierarchy_s", "s"),
    ("metrics.hierarchy.calls", "count"),
    ("metrics.hierarchy.cpu_util", "ratio"),
    ("metrics.degree_s", "s"),
    ("metrics.degree.calls", "count"),
    ("metrics.robustness_s", "s"),
    ("metrics.robustness.calls", "count"),
    ("metrics.robustness.cpu_util", "ratio"),
    ("metrics.betweenness_s", "s"),
    ("metrics.betweenness.calls", "count"),
    ("metrics.betweenness.cpu_util", "ratio"),
    ("sim.traffic.link_loads_s", "s"),
    ("sim.traffic.link_loads.calls", "count"),
    ("sim.traffic.link_loads.cpu_util", "ratio"),
    ("sim.traffic.flows_routed", "count"),
    ("sim.traffic.flows_unrouted", "count"),
    ("sim.demand.build_s", "s"),
    ("sim.demand.build.calls", "count"),
    ("econ.provision_s", "s"),
    ("econ.provision.calls", "count"),
    ("sim.te.tune_weights_s", "s"),
    ("sim.te.tune_weights.calls", "count"),
    ("sim.te.tune_weights.cpu_util", "ratio"),
    ("sim.te.rounds_tried", "count"),
    ("sim.te.accept_ratio", "ratio"),
    ("sim.cascade_s", "s"),
    ("sim.cascade.calls", "count"),
    ("sim.cascade.cpu_util", "ratio"),
    ("sim.cascade.rounds", "count"),
    ("sim.probe.run_campaign_s", "s"),
    ("sim.probe.run_campaign.calls", "count"),
    ("sim.probe.run_campaign.cpu_util", "ratio"),
    ("sim.probe.probes_sent", "count"),
    ("sim.probe.completed_ratio", "ratio"),
    ("metrics.bias_summary_s", "s"),
    ("metrics.bias_summary.calls", "count"),
    ("metrics.bias_summary.cpu_util", "ratio"),
    ("bgp.topology_s", "s"),
    ("bgp.topology.calls", "count"),
    ("bgp.policy_summary_s", "s"),
    ("bgp.policy_summary.calls", "count"),
    ("bgp.policy_summary.cpu_util", "ratio"),
    ("bgp.sources", "count"),
    ("sim.evolve.init_s", "s"),
    ("sim.evolve.init.calls", "count"),
    ("sim.evolve.step_s", "s"),
    ("sim.evolve.step.calls", "count"),
    ("sim.evolve.step.cpu_util", "ratio"),
    ("sim.evolve.new_nodes", "count"),
    ("sim.evolve.new_edges", "count"),
    ("sim.evolve.reopt_links", "count"),
    ("metrics.rolling.betweenness_update_s", "s"),
    ("metrics.rolling.betweenness_update.calls", "count"),
    ("metrics.rolling.betweenness_update.cpu_util", "ratio"),
    ("metrics.rolling.pivots", "count"),
    ("metrics.rolling.degrees_s", "s"),
    ("metrics.rolling.degrees.calls", "count"),
    ("metrics.rolling.record_s", "s"),
    ("metrics.rolling.record.calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_share", "ratio"),
];

/// Counter ratios: `(metric, numerator, denominator)`.
const RATIOS: [(&str, &str, &str); 2] = [
    (
        "sim.te.accept_ratio",
        "sim.te.accepted",
        "sim.te.rounds_tried",
    ),
    (
        "sim.probe.completed_ratio",
        "sim.probe.probes_completed",
        "sim.probe.probes_sent",
    ),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Values of every [`PER_LAYER`] metric from a traced run; layers the
/// workload never calls read 0. `wall_s` and `untraced_wall_s` are the
/// median traced and untraced pass times.
pub fn per_layer(
    tr: &Tracer,
    threads: usize,
    wall_s: f64,
    untraced_wall_s: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let layers = tr.layers();
    let counts = tr.counts();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let cpu_util = |l: Layer| ratio(l.cpu_s, l.total_s * threads as f64);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let extra: BTreeMap<&str, f64> = [
        (
            "metrics.spectral_share",
            ratio(
                layer("metrics.spectral").self_s,
                layer("metrics.report").total_s,
            ),
        ),
        ("metrics.report_s", layer("metrics.report").total_s),
        ("trace.wall_s", wall_s),
        ("trace.overhead_s", wall_s - untraced_wall_s),
        ("trace.unaccounted_share", tr.unaccounted_share()),
    ]
    .into_iter()
    .chain(
        RATIOS
            .iter()
            .map(|&(name, num, den)| (name, ratio(count(num), count(den)))),
    )
    .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(&v) = extra.get(name) {
                v
            } else if let Some(span) = name.strip_suffix(".calls") {
                layer(span).calls
            } else if let Some(span) = name.strip_suffix(".cpu_util") {
                cpu_util(layer(span))
            } else if let Some(span) = name.strip_suffix("_s") {
                layer(span).self_s
            } else {
                count(name)
            };
            (name, unit, value)
        })
        .collect()
}
