//! Single-link failure response.
//!
//! For each candidate link: remove it, re-route the demands that used it,
//! and measure what the network pays — extra hops (stretch) and traffic
//! that cannot be re-routed at all. This quantifies what the paper's
//! footnote 7 redundancy requirement buys: on a tree every failure
//! strands traffic; on the 2-edge-connected backbone everything re-routes
//! at modest stretch.

use crate::traffic::Demand;
use hot_graph::csr::{CsrBfsTree, CsrGraph};
use hot_graph::graph::{EdgeId, Graph, NodeId};
use std::collections::BTreeMap;

/// Impact of one link's failure.
#[derive(Clone, Debug)]
pub struct FailureImpact {
    /// The failed link.
    pub link: EdgeId,
    /// Traffic that used the link before the failure.
    pub affected_traffic: f64,
    /// Traffic stranded (no alternative path).
    pub stranded_traffic: f64,
    /// Demand-weighted mean hops of re-routed traffic, after / before.
    pub stretch: f64,
    /// Peak link load after re-routing (where the displaced traffic
    /// lands — the redistribution measurement E16 reports).
    pub max_load_after: f64,
}

/// Summary over all simulated failures.
#[derive(Clone, Debug)]
pub struct FailureSummary {
    /// Per-link impacts, ordered by edge id (only links that carried
    /// traffic are simulated; idle links have trivially no impact).
    pub impacts: Vec<FailureImpact>,
    /// Fraction of simulated failures that stranded any traffic.
    pub stranding_fraction: f64,
    /// Worst single-failure stranded traffic, as a fraction of total.
    pub worst_stranded_fraction: f64,
    /// Mean stretch over failures that re-routed everything.
    pub mean_stretch: f64,
    /// Worst post-failure peak link load relative to the baseline peak
    /// (1.0 when nothing was simulated or the baseline was idle).
    pub max_load_amplification: f64,
}

impl FailureSummary {
    /// The summary of a study with nothing to simulate (no links, no
    /// demands, or nothing loaded).
    fn trivial() -> FailureSummary {
        FailureSummary {
            impacts: Vec::new(),
            stranding_fraction: 0.0,
            worst_stranded_fraction: 0.0,
            mean_stretch: 1.0,
            max_load_amplification: 1.0,
        }
    }
}

/// The numbers one routing pass — the intact baseline or one cut —
/// hands the summary.
struct CutOutcome {
    link_load: Vec<f64>,
    stranded: f64,
    routed_traffic: f64,
    traffic_hops: f64,
}

impl CutOutcome {
    /// Demand-weighted mean path length in hops (0 when nothing routed).
    fn mean_hops(&self) -> f64 {
        if self.routed_traffic > 0.0 {
            self.traffic_hops / self.routed_traffic
        } else {
            0.0
        }
    }

    fn max_load(&self) -> f64 {
        self.link_load.iter().copied().fold(0.0, f64::max)
    }
}

/// Shared state for hop-count cuts: the demand gather (out-of-range
/// amounts plus per-source groups) and every source's intact-graph BFS
/// tree are computed once. Replaying the cached trees with no cut is the
/// baseline routing. A cut only invalidates the trees that used the
/// failed edge — `edge_users` records which — so each simulated failure
/// re-runs BFS for those sources alone, on an edge-masked view, and
/// replays the cached trees for everyone else. Because
/// [`CsrGraph::edge_masked`] equals `edge_subgraph` + `from_graph` edge
/// ids included, and removing a non-tree edge cannot change a BFS
/// first-discovery tree, every path — and therefore every load, hop,
/// and stranded sum, accumulated in the same order — is bit-identical
/// to a full per-cut re-route.
struct HopCutCache<'a> {
    csr: CsrGraph,
    /// Sum of demands with endpoints outside the graph, which every pass
    /// reports as stranded.
    base_stranded: f64,
    /// In-range demands grouped by source, ascending — the order every
    /// pass accumulates in.
    by_src: Vec<(u32, Vec<&'a Demand>)>,
    /// Intact-graph BFS tree per `by_src` entry.
    trees: Vec<CsrBfsTree>,
    /// For each edge, the sources (ascending) whose baseline tree uses
    /// it as a parent edge.
    edge_users: Vec<Vec<u32>>,
    scratch: CsrBfsTree,
    alive: Vec<bool>,
}

impl<'a> HopCutCache<'a> {
    fn new<N, E>(g: &Graph<N, E>, demands: &'a [Demand]) -> HopCutCache<'a> {
        let csr = CsrGraph::from_graph(g);
        let n = csr.node_count();
        let mut out_of_range = 0.0f64;
        let mut groups: BTreeMap<u32, Vec<&Demand>> = BTreeMap::new();
        for d in demands {
            if d.src.index() >= n || d.dst.index() >= n {
                out_of_range += d.amount;
            } else {
                groups.entry(d.src.0).or_default().push(d);
            }
        }
        let by_src: Vec<(u32, Vec<&Demand>)> = groups.into_iter().collect();
        let mut edge_users = vec![Vec::new(); csr.edge_count()];
        let mut trees = Vec::with_capacity(by_src.len());
        for (src, _) in &by_src {
            let tree = csr.bfs_tree(NodeId(*src));
            for &v in tree.visit_order() {
                if let Some((_, e)) = tree.parent(v) {
                    edge_users[e.index()].push(*src);
                }
            }
            trees.push(tree);
        }
        HopCutCache {
            base_stranded: out_of_range,
            scratch: CsrBfsTree::sized(n),
            alive: vec![true; csr.edge_count()],
            csr,
            by_src,
            trees,
            edge_users,
        }
    }

    /// Routes every demand with `cut` failed (`None` = the intact
    /// baseline).
    fn replay(&mut self, cut: Option<EdgeId>) -> CutOutcome {
        let (masked, users) = match cut {
            Some(link) => {
                self.alive[link.index()] = false;
                let masked = self.csr.edge_masked(&self.alive);
                self.alive[link.index()] = true;
                (Some(masked), self.edge_users[link.index()].as_slice())
            }
            None => (None, &[][..]),
        };
        let mut link_load = vec![0.0f64; self.csr.edge_count()];
        let mut stranded = self.base_stranded;
        let mut traffic_hops = 0.0;
        let mut routed_traffic = 0.0;
        for (i, (src, group)) in self.by_src.iter().enumerate() {
            let rerouted = match &masked {
                Some((masked, new_to_old)) if users.binary_search(src).is_ok() => {
                    masked.bfs_tree_into(NodeId(*src), &mut self.scratch);
                    Some(new_to_old)
                }
                _ => None,
            };
            let tree = if rerouted.is_some() {
                &self.scratch
            } else {
                &self.trees[i]
            };
            for d in group {
                match tree.edge_path_to(d.dst) {
                    Some(path) => {
                        for e in &path {
                            // The cached trees carry original edge ids;
                            // the masked re-BFS carries masked ids.
                            let orig = match rerouted {
                                Some(new_to_old) => new_to_old[e.index()].index(),
                                None => e.index(),
                            };
                            link_load[orig] += d.amount;
                        }
                        traffic_hops += d.amount * path.len() as f64;
                        routed_traffic += d.amount;
                    }
                    None => stranded += d.amount,
                }
            }
        }
        CutOutcome {
            link_load,
            stranded,
            routed_traffic,
            traffic_hops,
        }
    }
}

/// Simulates every loaded link's failure independently under hop-count
/// shortest-path routing (deterministic BFS first-discovery trees).
///
/// All cuts share one demand gather and a BFS-forest cache, re-running
/// BFS only for the sources whose intact-graph tree used the failed
/// edge (see [`HopCutCache`]); the baseline is the same cache replayed
/// with no cut. Degenerate inputs (no links, no demands, endpoints
/// outside the graph) produce a trivial summary instead of panicking.
pub fn single_link_failures<N, E>(g: &Graph<N, E>, demands: &[Demand]) -> FailureSummary {
    if g.edge_count() == 0 || demands.is_empty() {
        return FailureSummary::trivial();
    }
    let mut cache = HopCutCache::new(g, demands);
    let baseline = cache.replay(None);
    summarize(demands, &baseline, |link| cache.replay(Some(link)))
}

/// Fails every link loaded at `baseline` once, in edge-id order, via
/// `cut`, and folds the outcomes into the summary.
fn summarize(
    demands: &[Demand],
    baseline: &CutOutcome,
    mut cut: impl FnMut(EdgeId) -> CutOutcome,
) -> FailureSummary {
    let baseline_max = baseline.max_load();
    let total_traffic: f64 = demands.iter().map(|d| d.amount).sum();
    let mut impacts = Vec::new();
    let mut stranded_failures = 0usize;
    let mut worst_stranded = 0.0f64;
    let mut worst_max_after = 0.0f64;
    let mut stretch_sum = 0.0;
    let mut stretch_count = 0usize;
    for (e, &affected) in baseline.link_load.iter().enumerate() {
        if affected <= 0.0 {
            continue;
        }
        let link = EdgeId(e as u32);
        let outcome = cut(link);
        let stranded = outcome.stranded;
        let stretch = if outcome.routed_traffic > 0.0 && baseline.routed_traffic > 0.0 {
            outcome.mean_hops() / baseline.mean_hops()
        } else {
            1.0
        };
        let max_load_after = outcome.max_load();
        worst_max_after = worst_max_after.max(max_load_after);
        if stranded > 0.0 {
            stranded_failures += 1;
            if total_traffic > 0.0 {
                worst_stranded = worst_stranded.max(stranded / total_traffic);
            }
        } else {
            stretch_sum += stretch;
            stretch_count += 1;
        }
        impacts.push(FailureImpact {
            link,
            affected_traffic: affected,
            stranded_traffic: stranded,
            stretch,
            max_load_after,
        });
    }
    let simulated = impacts.len().max(1);
    FailureSummary {
        stranding_fraction: stranded_failures as f64 / simulated as f64,
        worst_stranded_fraction: worst_stranded,
        mean_stretch: if stretch_count > 0 {
            stretch_sum / stretch_count as f64
        } else {
            1.0
        },
        max_load_amplification: if !impacts.is_empty() && baseline_max > 0.0 {
            worst_max_after / baseline_max
        } else {
            1.0
        },
        impacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::naive_link_load;
    use hot_graph::parallel::bfs_forest;

    fn d(src: usize, dst: usize, amount: f64) -> Demand {
        Demand {
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            amount,
        }
    }

    #[test]
    fn tree_strands_every_failure() {
        // Path 0-1-2 with end-to-end demand: both links are cuts.
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 2, 3.0)]);
        assert_eq!(summary.impacts.len(), 2);
        assert!((summary.stranding_fraction - 1.0).abs() < 1e-12);
        assert!((summary.worst_stranded_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_reroutes_everything() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 1, 1.0), d(1, 3, 1.0)]);
        assert_eq!(summary.stranding_fraction, 0.0);
        // Re-routing around a 4-cycle costs extra hops.
        assert!(summary.mean_stretch > 1.0);
        assert!(summary.worst_stranded_fraction == 0.0);
    }

    #[test]
    fn idle_links_not_simulated() {
        // Triangle but demand only between 0 and 1: edge (1,2)/(0,2)
        // carry nothing under shortest path.
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 1, 1.0)]);
        assert_eq!(summary.impacts.len(), 1);
        assert_eq!(summary.impacts[0].link, hot_graph::graph::EdgeId(0));
        // The failure re-routes via node 2 at stretch 2.
        assert_eq!(summary.stranding_fraction, 0.0);
        assert!((summary.impacts[0].stretch - 2.0).abs() < 1e-12);
    }

    /// Regression: the degenerate inputs — empty graph, no demands, a
    /// demand whose endpoints are outside the graph, and a disconnected
    /// OD pair already stranded at baseline — all produce a clean
    /// summary instead of a panic.
    #[test]
    fn degenerate_inputs_are_trivial_not_panics() {
        let empty: Graph<(), f64> = Graph::new();
        let s = single_link_failures(&empty, &[d(0, 1, 1.0)]);
        assert!(s.impacts.is_empty());
        assert_eq!(s.max_load_amplification, 1.0);
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let s = single_link_failures(&g, &[]);
        assert!(s.impacts.is_empty());
        assert_eq!(s.mean_stretch, 1.0);
        // Out-of-range endpoints and a disconnected baseline pair ride
        // along with one routable demand.
        let s = single_link_failures(&g, &[d(0, 9, 1.0), d(0, 3, 2.0), d(0, 1, 1.0)]);
        assert_eq!(s.impacts.len(), 1); // only link (0,1) carries traffic
        assert!((s.stranding_fraction - 1.0).abs() < 1e-12); // it is a cut
    }

    /// Redistribution accounting: on a 4-cycle with one demand, failing
    /// the direct link pushes the same traffic onto the 3-hop detour, so
    /// the post-failure peak equals the baseline peak (amplification 1)
    /// and every impact records where the load landed.
    #[test]
    fn load_redistribution_recorded() {
        let g: Graph<(), f64> =
            Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let s = single_link_failures(&g, &[d(0, 1, 2.0)]);
        assert_eq!(s.impacts.len(), 1);
        assert!((s.impacts[0].max_load_after - 2.0).abs() < 1e-12);
        assert!((s.max_load_amplification - 1.0).abs() < 1e-12);
        // Two demands sharing a link: failing it doubles up the detour.
        let s = single_link_failures(&g, &[d(0, 1, 2.0), d(3, 1, 1.0)]);
        assert!(s.max_load_amplification > 1.0);
    }

    /// Regression for the BFS-forest cache: the cached fast path must
    /// reproduce a full hop-count re-route on an `edge_subgraph` per
    /// loaded link bit for bit, on a meshy multigraph with cuts,
    /// detours, out-of-range endpoints, and a disconnected pair. Every
    /// impact field and summary scalar is compared on exact bits, and so
    /// is every link's load — baseline and after each cut.
    #[test]
    fn cached_cuts_match_full_reroute_bitwise() {
        // Ladder + chords + a stub island (node 29 attached by a cut
        // edge, node 30 isolated): mixes re-routable and stranding cuts.
        let n = 31usize;
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..28 {
            edges.push((i, i + 1, 1.0 + (i % 3) as f64));
        }
        for i in (0..24).step_by(4) {
            edges.push((i, i + 5, 2.0));
        }
        for i in (1..20).step_by(7) {
            edges.push((i, i + 9, 1.5));
        }
        edges.push((3, 29, 1.0)); // cut edge to a leaf
        let g: Graph<(), f64> = Graph::from_edges(n, edges);
        let mut demands = vec![d(0, 40, 1.0)]; // out-of-range endpoint
        demands.push(d(5, 30, 2.0)); // disconnected at baseline
        for s in 0..12 {
            for t in [14, 22, 28, 29] {
                demands.push(d(s, t, 1.0 + ((s * 5 + t) % 4) as f64));
            }
        }
        let without = |link: EdgeId| {
            let mut keep = vec![true; g.edge_count()];
            keep[link.index()] = false;
            full_route(&g.edge_subgraph(&keep), &demands)
        };
        let fast = single_link_failures(&g, &demands);
        let slow = summarize(&demands, &full_route(&g, &demands), without);
        assert_eq!(fast.impacts.len(), slow.impacts.len());
        assert!(!fast.impacts.is_empty());
        for (a, b) in fast.impacts.iter().zip(&slow.impacts) {
            assert_eq!(a.link, b.link);
            for (x, y) in [
                (a.affected_traffic, b.affected_traffic),
                (a.stranded_traffic, b.stranded_traffic),
                (a.stretch, b.stretch),
                (a.max_load_after, b.max_load_after),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "link {:?}: {} vs {}",
                    a.link,
                    x,
                    y
                );
            }
        }
        for (x, y) in [
            (fast.stranding_fraction, slow.stranding_fraction),
            (fast.worst_stranded_fraction, slow.worst_stranded_fraction),
            (fast.mean_stretch, slow.mean_stretch),
            (fast.max_load_amplification, slow.max_load_amplification),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Whole load vectors: the subgraph renumbers the edges after the
        // cut one down, so re-inserting an idle slot at the cut maps its
        // loads back to the original ids.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cache = HopCutCache::new(&g, &demands);
        let baseline = full_route(&g, &demands).link_load;
        assert_eq!(bits(&cache.replay(None).link_load), bits(&baseline));
        for link in g.edge_ids() {
            let mut want = without(link).link_load;
            want.insert(link.index(), 0.0);
            assert_eq!(
                bits(&cache.replay(Some(link)).link_load),
                bits(&want),
                "{:?}",
                link
            );
        }
    }

    /// The full re-route oracle: hop-count routing from scratch on `g`
    /// with the per-flow engine, flows stably sorted by source (the
    /// cache's accumulation order). Stranded sums come out in another
    /// order, which is exact here because every amount is an integer.
    fn full_route<N, E>(g: &Graph<N, E>, demands: &[Demand]) -> CutOutcome {
        let csr = CsrGraph::from_graph(g);
        let mut flows = demands.to_vec();
        flows.sort_by_key(|f| f.src);
        let mut sources: Vec<NodeId> = flows.iter().map(|f| f.src).collect();
        sources.retain(|s| s.index() < csr.node_count());
        sources.dedup();
        let out = naive_link_load(&csr, &bfs_forest(&csr, &sources, 1), &flows);
        CutOutcome {
            link_load: out.link_load,
            stranded: out.unrouted_traffic,
            routed_traffic: out.routed_traffic,
            traffic_hops: out.traffic_hops,
        }
    }

    #[test]
    fn affected_traffic_recorded() {
        let g: Graph<(), f64> = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let summary = single_link_failures(&g, &[d(0, 2, 2.0), d(1, 2, 1.5)]);
        let link1 = summary
            .impacts
            .iter()
            .find(|i| i.link.index() == 1)
            .unwrap();
        assert!((link1.affected_traffic - 3.5).abs() < 1e-12);
    }
}
