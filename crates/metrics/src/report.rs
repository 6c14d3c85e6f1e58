//! The metric matrix: one struct per graph, one table across generators.
//!
//! This is the machinery behind experiment E6 — apply the *same* battery
//! of metrics to topologies from every generator and render them side by
//! side, making "matches on the chosen metric, dissimilar on others"
//! visible in a single table.

use crate::assortativity::assortativity;
use crate::clustering::mean_clustering;
use crate::degree_dist::{summarize, DegreeSummary};
use crate::distortion::distortion;
use crate::expansion::expansion_at;
use crate::expfit::{classify, TailClass};
use crate::hierarchy::{hierarchy, HierarchySummary};
use crate::paths::path_metrics;
use crate::resilience::mean_pairwise_connectivity;
use crate::spectral::SpectralSummary;
use hot_graph::graph::Graph;
use hot_graph::traversal::{component_count, largest_component_size};

/// Skip spectral work above this node count. The power iteration is
/// O(n + m) per step, but tree-like graphs run to its step cap, and
/// raising the limit would change E6's full-scale output. At or below
/// it, [`MetricReport::compute`] runs the spectral solves on one scoped
/// worker thread beside the other metrics; the output does not depend
/// on that scheduling.
const SPECTRAL_LIMIT: usize = 3000;

/// The full metric vector of one topology.
#[derive(Clone, Debug)]
pub struct MetricReport {
    /// Label for tables.
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub components: usize,
    /// Largest-component fraction.
    pub giant_fraction: f64,
    pub degree: DegreeSummary,
    /// Power-law CCDF exponent (γ−1) when the fit exists.
    pub powerlaw_exponent: Option<f64>,
    /// Tail classification of the degree distribution.
    pub tail: TailClass,
    pub mean_clustering: f64,
    /// Newman degree assortativity (`None` when undefined).
    pub assortativity: Option<f64>,
    pub mean_distance: f64,
    pub diameter: u32,
    /// Expansion at 3 hops.
    pub expansion3: f64,
    /// Mean sampled pairwise edge connectivity.
    pub resilience: f64,
    /// Approximate spanning-tree distance stretch.
    pub distortion: f64,
    pub hierarchy: HierarchySummary,
    /// Spectral radius (skipped = NaN-free `None`) for large graphs.
    pub spectral_radius: Option<f64>,
    pub algebraic_connectivity: Option<f64>,
}

/// One metric cell in structured, serialization-ready form — what the
/// scenario engine's JSON export consumes via
/// [`MetricReport::key_values`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Int(u64),
    Float(f64),
    /// A metric that may be undefined for this graph (e.g. spectral
    /// summaries skipped above [`SPECTRAL_LIMIT`]).
    OptFloat(Option<f64>),
    Text(String),
}

impl MetricReport {
    /// Computes the full report for a graph.
    ///
    /// For `0 < n ≤ SPECTRAL_LIMIT` (3000) the spectral solves (two
    /// deflated adjacency power iterations and the Fiedler one) are
    /// prepared on the caller's thread and run on one scoped worker
    /// while the caller computes the combinatorial metrics. Every metric is a pure
    /// function of the graph, and the worker touches only its prepared
    /// buffers, so the report is bit-identical to computing each metric
    /// in turn (as [`spectral_summary`] and the other public metric
    /// functions do) at any thread count. A panic on the worker is
    /// re-raised on the caller.
    ///
    /// [`spectral_summary`]: crate::spectral::spectral_summary
    pub fn compute<N, E>(name: impl Into<String>, g: &Graph<N, E>) -> Self {
        let n = g.node_count();
        let spectral = (n > 0 && n <= SPECTRAL_LIMIT).then(|| SpectralSummary::prepare(g));
        std::thread::scope(|scope| {
            let worker = spectral.map(|mut solve| {
                scope.spawn(move || {
                    solve.solve();
                    solve
                })
            });
            let degs = g.degree_sequence();
            let verdict = classify(&degs);
            let paths = path_metrics(g);
            let mut report = MetricReport {
                name: name.into(),
                nodes: n,
                edges: g.edge_count(),
                components: component_count(g),
                giant_fraction: if n > 0 {
                    largest_component_size(g) as f64 / n as f64
                } else {
                    0.0
                },
                degree: summarize(g),
                powerlaw_exponent: verdict.power.map(|f| f.exponent),
                tail: verdict.class,
                mean_clustering: mean_clustering(g),
                assortativity: assortativity(g),
                mean_distance: paths.mean_distance,
                diameter: paths.diameter,
                expansion3: expansion_at(g, 3),
                resilience: mean_pairwise_connectivity(g),
                distortion: distortion(g),
                hierarchy: hierarchy(g),
                spectral_radius: None,
                algebraic_connectivity: None,
            };
            if let Some(worker) = worker {
                let solve = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                let s = SpectralSummary::of(&solve);
                report.spectral_radius = Some(s.radius);
                report.algebraic_connectivity = Some(s.algebraic_connectivity);
            }
            report
        })
    }

    /// The full metric vector as ordered `(key, value)` pairs — the
    /// structured face of the report. The human table ([`row`](Self::row))
    /// shows a fixed-width subset; this is the complete, machine-readable
    /// form the E6 scenario serializes, in a stable order.
    pub fn key_values(&self) -> Vec<(&'static str, MetricValue)> {
        use MetricValue::*;
        vec![
            ("generator", Text(self.name.clone())),
            ("nodes", Int(self.nodes as u64)),
            ("edges", Int(self.edges as u64)),
            ("components", Int(self.components as u64)),
            ("giant_fraction", Float(self.giant_fraction)),
            ("mean_degree", Float(self.degree.mean)),
            ("max_degree", Int(self.degree.max as u64)),
            ("degree_cv", Float(self.degree.cv)),
            ("leaf_fraction", Float(self.degree.leaf_fraction)),
            ("powerlaw_exponent", OptFloat(self.powerlaw_exponent)),
            ("tail", Text(self.tail.to_string())),
            ("clustering", Float(self.mean_clustering)),
            ("assortativity", OptFloat(self.assortativity)),
            ("mean_distance", Float(self.mean_distance)),
            ("diameter", Int(self.diameter as u64)),
            ("expansion3", Float(self.expansion3)),
            ("resilience", Float(self.resilience)),
            ("distortion", Float(self.distortion)),
            ("betweenness_gini", Float(self.hierarchy.betweenness_gini)),
            (
                "betweenness_top_decile",
                Float(self.hierarchy.top_decile_share),
            ),
            ("spectral_radius", OptFloat(self.spectral_radius)),
            (
                "algebraic_connectivity",
                OptFloat(self.algebraic_connectivity),
            ),
        ]
    }

    /// Header row matching [`row`](Self::row).
    pub fn header() -> String {
        format!(
            "{:<18} {:>6} {:>7} {:>5} {:>6} {:>6} {:>12} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "generator",
            "nodes",
            "edges",
            "maxk",
            "cv",
            "plexp",
            "tail",
            "clust",
            "assort",
            "dist",
            "diam",
            "exp3",
            "resil",
            "dstrt",
            "gini",
            "lam1"
        )
    }

    /// One aligned table row.
    pub fn row(&self) -> String {
        format!(
            "{:<18} {:>6} {:>7} {:>5} {:>6.2} {:>6} {:>12} {:>6.3} {:>6} {:>6.2} {:>5} {:>6.3} {:>6.2} {:>6.2} {:>6.2} {:>6}",
            self.name,
            self.nodes,
            self.edges,
            self.degree.max,
            self.degree.cv,
            self.powerlaw_exponent
                .map(|e| format!("{:.2}", e))
                .unwrap_or_else(|| "-".into()),
            self.tail.to_string(),
            self.mean_clustering,
            self.assortativity
                .map(|r| format!("{:.2}", r))
                .unwrap_or_else(|| "-".into()),
            self.mean_distance,
            self.diameter,
            self.expansion3,
            self.resilience,
            self.distortion,
            self.hierarchy.betweenness_gini,
            self.spectral_radius
                .map(|r| format!("{:.2}", r))
                .unwrap_or_else(|| "-".into()),
        )
    }

    /// Renders a table of reports.
    pub fn table(reports: &[MetricReport]) -> String {
        let mut out = MetricReport::header();
        out.push('\n');
        for r in reports {
            out.push_str(&r.row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::spectral_summary;
    use hot_graph::graph::Graph;

    fn star(n: usize) -> Graph<(), ()> {
        Graph::from_edges(n, (1..n).map(|i| (0, i, ())).collect::<Vec<_>>())
    }

    #[test]
    fn report_on_star() {
        let r = MetricReport::compute("star", &star(50));
        assert_eq!(r.nodes, 50);
        assert_eq!(r.edges, 49);
        assert_eq!(r.components, 1);
        assert!((r.giant_fraction - 1.0).abs() < 1e-12);
        assert_eq!(r.degree.max, 49);
        assert_eq!(r.diameter, 2);
        assert!((r.resilience - 1.0).abs() < 1e-12); // tree
        assert!((r.distortion - 1.0).abs() < 1e-12);
        assert!(r.hierarchy.betweenness_gini > 0.9);
        assert!(r.spectral_radius.is_some());
    }

    #[test]
    fn key_values_track_the_report() {
        let r = MetricReport::compute("star", &star(50));
        let kv = r.key_values();
        // Keys are unique and lead with the generator name.
        let mut keys: Vec<&str> = kv.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys[0], "generator");
        keys.sort_unstable();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n);
        let get = |key: &str| {
            kv.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("generator"), MetricValue::Text("star".into()));
        assert_eq!(get("nodes"), MetricValue::Int(50));
        assert_eq!(get("max_degree"), MetricValue::Int(49));
        assert_eq!(get("diameter"), MetricValue::Int(2));
        match get("spectral_radius") {
            MetricValue::OptFloat(Some(v)) => assert!(v > 0.0),
            other => panic!("expected spectral radius, got {:?}", other),
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let reports = vec![
            MetricReport::compute("a", &star(10)),
            MetricReport::compute("b", &star(20)),
        ];
        let table = MetricReport::table(&reports);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("generator"));
        assert!(lines[1].starts_with('a'));
        assert!(lines[2].starts_with('b'));
    }

    #[test]
    fn empty_graph_report() {
        let g: Graph<(), ()> = Graph::new();
        let r = MetricReport::compute("empty", &g);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.components, 0);
        assert!(r.spectral_radius.is_none());
        // Row must render without panicking.
        assert!(!r.row().is_empty());
    }

    /// The public metric functions called one at a time on the caller's
    /// thread and composed field by field: the serial form of
    /// [`MetricReport::compute`].
    fn serial_report<N, E>(name: &str, g: &Graph<N, E>) -> MetricReport {
        let n = g.node_count();
        let verdict = classify(&g.degree_sequence());
        let paths = path_metrics(g);
        let spectral = (n > 0 && n <= SPECTRAL_LIMIT).then(|| spectral_summary(g));
        MetricReport {
            name: name.into(),
            nodes: n,
            edges: g.edge_count(),
            components: component_count(g),
            giant_fraction: if n > 0 {
                largest_component_size(g) as f64 / n as f64
            } else {
                0.0
            },
            degree: summarize(g),
            powerlaw_exponent: verdict.power.map(|f| f.exponent),
            tail: verdict.class,
            mean_clustering: mean_clustering(g),
            assortativity: assortativity(g),
            mean_distance: paths.mean_distance,
            diameter: paths.diameter,
            expansion3: expansion_at(g, 3),
            resilience: mean_pairwise_connectivity(g),
            distortion: distortion(g),
            hierarchy: hierarchy(g),
            spectral_radius: spectral.map(|s| s.radius),
            algebraic_connectivity: spectral.map(|s| s.algebraic_connectivity),
        }
    }

    /// Every field of a report, floats as their bits.
    fn bits(r: &MetricReport) -> Vec<(&'static str, String)> {
        r.key_values()
            .into_iter()
            .map(|(key, value)| {
                let value = match value {
                    MetricValue::Int(i) => i.to_string(),
                    MetricValue::Float(f) => format!("{:#x}", f.to_bits()),
                    MetricValue::OptFloat(o) => format!("{:?}", o.map(f64::to_bits)),
                    MetricValue::Text(s) => s,
                };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn compute_matches_the_serial_composition_bit_for_bit() {
        use hot_baselines::{ba, glp};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20030617);
        let ba = ba::generate(160, 2, &mut rng);
        let glp_config = glp::GlpConfig {
            n: 160,
            ..glp::GlpConfig::default()
        };
        let glp = glp::generate(&glp_config, &mut rng);
        // A 30-node path with 20 leaves on one end: its Fiedler solve
        // runs to the 10k-step cap.
        let mut broom_edges: Vec<(usize, usize, ())> = (1..30).map(|v| (v - 1, v, ())).collect();
        broom_edges.extend((30..50).map(|v| (0, v, ())));
        let broom = Graph::from_edges(50, broom_edges);
        let multigraph = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (3, 4),
                (3, 4),
                (4, 5),
            ]
            .map(|(a, b)| (a, b, ())),
        );
        let single: Graph<(), ()> = Graph::from_edges(1, Vec::new());
        let long_path = Graph::from_edges(
            SPECTRAL_LIMIT + 1,
            (0..SPECTRAL_LIMIT)
                .map(|i| (i, i + 1, ()))
                .collect::<Vec<_>>(),
        );
        let cases = [
            ("ba", &ba, true),
            ("glp", &glp, true),
            ("broom", &broom, true),
            ("multigraph", &multigraph, true),
            ("empty", &Graph::new(), false),
            ("single", &single, true),
            ("long-path", &long_path, false),
        ];
        for (name, g, spectral) in cases {
            let r = MetricReport::compute(name, g);
            assert_eq!(bits(&r), bits(&serial_report(name, g)), "{}", name);
            assert_eq!(r.spectral_radius.is_some(), spectral, "{}", name);
            assert_eq!(r.algebraic_connectivity.is_some(), spectral, "{}", name);
        }
    }

    #[test]
    fn spectral_skipped_for_large_graphs() {
        // A big path exceeds SPECTRAL_LIMIT.
        let edges: Vec<(usize, usize, ())> = (0..3500).map(|i| (i, i + 1, ())).collect();
        let g: Graph<(), ()> = Graph::from_edges(3501, edges);
        let r = MetricReport::compute("path", &g);
        assert!(r.spectral_radius.is_none());
        assert!(r.algebraic_connectivity.is_none());
    }
}
