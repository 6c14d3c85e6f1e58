//! Spectral metrics (Vukadinović et al., reference \[31\] in the paper).
//!
//! Thin, documented façade over [`hot_graph::spectral`] so the metric
//! matrix computes everything through one crate. Spectral analysis was
//! proposed as a generator-distinguishing tool precisely because two
//! graphs can share a degree sequence and differ in their spectra.

use hot_graph::graph::Graph;
use hot_graph::spectral::SpectralSolve;

/// Spectral summary of a graph.
#[derive(Clone, Copy, Debug)]
pub struct SpectralSummary {
    /// Largest adjacency eigenvalue (spectral radius).
    pub radius: f64,
    /// Second-largest adjacency eigenvalue.
    pub second: f64,
    /// Algebraic connectivity (Fiedler value of the Laplacian).
    pub algebraic_connectivity: f64,
}

impl SpectralSummary {
    /// Prepares the summary's solves: the top two adjacency eigenvalues
    /// and the Fiedler value.
    pub(crate) fn prepare<N, E>(g: &Graph<N, E>) -> SpectralSolve {
        SpectralSolve::prepare(g, 2, true)
    }

    /// The summary of a solve from [`prepare`](Self::prepare), once run.
    pub(crate) fn of(solve: &SpectralSolve) -> Self {
        let mut top = solve.top_adjacency_eigenvalues();
        SpectralSummary {
            radius: top.next().unwrap_or(0.0),
            second: top.next().unwrap_or(0.0),
            algebraic_connectivity: solve.algebraic_connectivity(),
        }
    }
}

/// Computes the spectral summary: two deflated adjacency solves and one
/// Fiedler solve, each O(n + m) per power-iteration step and linear in
/// memory. Slow-converging graphs (trees) run up to the 10k-step cap,
/// so the report module still skips it above a few thousand nodes.
///
/// Runs on the caller's thread. [`MetricReport::compute`] runs the same
/// solves on one scoped worker thread while it computes the other
/// metrics; the solves read only their own prepared buffers, so both
/// give the same bits whatever the scheduling.
///
/// [`MetricReport::compute`]: crate::report::MetricReport::compute
pub fn spectral_summary<N, E>(g: &Graph<N, E>) -> SpectralSummary {
    let mut solve = SpectralSummary::prepare(g);
    solve.solve();
    SpectralSummary::of(&solve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

    #[test]
    fn complete_graph_summary() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j, ()));
            }
        }
        let g: Graph<(), ()> = Graph::from_edges(5, edges);
        let s = spectral_summary(&g);
        assert!((s.radius - 4.0).abs() < 1e-5);
        assert!((s.second + 1.0).abs() < 1e-3);
        assert!((s.algebraic_connectivity - 5.0).abs() < 1e-5);
    }

    #[test]
    fn disconnected_zero_connectivity() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let s = spectral_summary(&g);
        assert!(s.algebraic_connectivity.abs() < 1e-6);
        assert!((s.radius - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_zeros() {
        let g: Graph<(), ()> = Graph::new();
        let s = spectral_summary(&g);
        assert_eq!(s.radius, 0.0);
        assert_eq!(s.second, 0.0);
    }
}
