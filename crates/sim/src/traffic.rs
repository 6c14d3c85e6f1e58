//! Batched, deterministic link-load simulation.
//!
//! [`naive_link_load`] walks every flow's path edge by edge — fine for
//! an explicit list of thousands of flows, hopeless for the all-pairs
//! workloads the demand models in [`crate::demand`] describe (millions
//! of OD flows). The batched engine routes those workloads in O(n + m)
//! per *source* instead of O(path) per *flow*:
//!
//! 1. one CSR BFS tree per source, computed once into reused scratch
//!    ([`hot_graph::csr::CsrGraph::bfs_tree_into`]) and shared by every
//!    demand model in the batch;
//! 2. per model, a reverse-visit-order **subtree accumulation**: seed
//!    each destination with its demand, then push accumulated demand up
//!    the tree — every tree edge receives exactly the sum of the demands
//!    below it, which is what per-flow path walking would have added one
//!    flow at a time;
//! 3. sources fan out over the fixed 64-chunk scheduler
//!    ([`hot_graph::parallel::run_chunks`]): chunk boundaries ignore the
//!    thread count and partial load vectors merge in chunk order, so
//!    **link loads are bit-identical at every thread count**, and — for
//!    integer-valued demands — bit-identical to the naive per-flow walk.
//!
//! [`RoutePolicy::Ecmp`] additionally splits each flow equally over *all*
//! shortest paths (per-path, so parallel equal-length paths through a
//! high-σ neighbor carry proportionally more), via the same reverse
//! sweep with Brandes-style path counts.
//!
//! [`link_loads_weighted`] generalizes ECMP with per-link multiplicative
//! weights (a path's weight is the product of its edge weights; flows
//! split proportionally to weighted path counts). It is the mechanism
//! under the TE loop in [`crate::te`]: de-weighting a hot link shifts
//! traffic onto parallel shortest paths without changing any path
//! length. With all weights 1.0 it is **bit-identical** to
//! [`RoutePolicy::Ecmp`] (every weighted product multiplies by exactly
//! 1.0), and dyadic weights (the TE loop halves) keep the splits exact
//! in floating point.

use crate::demand::OdDemand;
use hot_graph::csr::{CsrBfsTree, CsrGraph, UNREACHABLE};
use hot_graph::graph::NodeId;
use hot_graph::parallel::{run_chunks, BfsForest};

/// One explicit flow: `amount` of traffic from `src` to `dst`.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    pub src: NodeId,
    pub dst: NodeId,
    pub amount: f64,
}

/// How a flow is mapped onto shortest paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// The deterministic BFS-tree path (first discovery in adjacency
    /// order) — the path [`naive_link_load`] walks for each flow.
    TreePath,
    /// Equal-cost multipath: the flow splits over all shortest paths,
    /// proportionally to path counts (Brandes σ).
    Ecmp,
}

/// Link loads and flow accounting from one batched run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficLoads {
    /// Traffic carried by each link (indexed by `EdgeId`).
    pub link_load: Vec<f64>,
    /// OD flows routed (positive-demand ordered pairs with a path).
    pub routed_flows: u64,
    /// OD flows between disconnected endpoints.
    pub unrouted_flows: u64,
    /// Total routed traffic.
    pub routed_traffic: f64,
    /// Total traffic between disconnected endpoints.
    pub unrouted_traffic: f64,
    /// Total routed traffic × hops.
    pub traffic_hops: f64,
}

impl TrafficLoads {
    fn zero(links: usize) -> TrafficLoads {
        TrafficLoads {
            link_load: vec![0.0; links],
            routed_flows: 0,
            unrouted_flows: 0,
            routed_traffic: 0.0,
            unrouted_traffic: 0.0,
            traffic_hops: 0.0,
        }
    }

    fn absorb(&mut self, other: &TrafficLoads) {
        for (a, b) in self.link_load.iter_mut().zip(&other.link_load) {
            *a += b;
        }
        self.routed_flows += other.routed_flows;
        self.unrouted_flows += other.unrouted_flows;
        self.routed_traffic += other.routed_traffic;
        self.unrouted_traffic += other.unrouted_traffic;
        self.traffic_hops += other.traffic_hops;
    }

    /// Demand-weighted mean path length in hops.
    pub fn mean_hops(&self) -> f64 {
        if self.routed_traffic > 0.0 {
            self.traffic_hops / self.routed_traffic
        } else {
            0.0
        }
    }

    /// Maximum link load.
    pub fn max_load(&self) -> f64 {
        self.link_load.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all link loads (equals `traffic_hops` up to float
    /// reassociation).
    pub fn total_load(&self) -> f64 {
        self.link_load.iter().sum()
    }
}

/// Per-worker scratch: a reusable BFS tree, the subtree accumulator, the
/// ECMP path counts, and one positive-demand list per model. O(n) each,
/// allocated once per worker thread.
struct EngineScratch {
    tree: CsrBfsTree,
    acc: Vec<f64>,
    sigma: Vec<f64>,
    /// `entries[m]` = the current source's positive demands under model
    /// `m`, as `(dst, amount)`.
    entries: Vec<Vec<(u32, f64)>>,
}

/// Routes every demand model in `demands` over `csr` in one batched
/// sweep — each source's BFS tree is computed once and fanned out over
/// all models — and returns one [`TrafficLoads`] per model, in input
/// order. Output is bit-identical at every thread count.
///
/// Self-demand (the matrix diagonal) and non-positive demands are
/// ignored. All models must cover exactly `csr.node_count()` nodes.
pub fn link_loads_multi(
    csr: &CsrGraph,
    demands: &[&dyn OdDemand],
    policy: RoutePolicy,
    threads: usize,
) -> Vec<TrafficLoads> {
    link_loads_inner(csr, demands, policy, None, threads)
}

/// Routes `demand` over `csr` under weighted ECMP: each flow splits
/// over all shortest paths proportionally to *weighted* path counts,
/// where a path's weight is the product of its links' entries in
/// `link_weights` (indexed by `EdgeId`, all positive and finite). Unit
/// weights reproduce [`RoutePolicy::Ecmp`] bit for bit; see the module
/// docs. Output is bit-identical at every thread count.
pub fn link_loads_weighted(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    link_weights: &[f64],
    threads: usize,
) -> TrafficLoads {
    assert_eq!(
        link_weights.len(),
        csr.edge_count(),
        "one weight per link required"
    );
    assert!(
        link_weights.iter().all(|&w| w.is_finite() && w > 0.0),
        "link weights must be positive and finite"
    );
    let weights = Some(link_weights);
    link_loads_inner(csr, &[demand], RoutePolicy::Ecmp, weights, threads)
        .pop()
        .expect("one model in, one result out")
}

fn link_loads_inner(
    csr: &CsrGraph,
    demands: &[&dyn OdDemand],
    policy: RoutePolicy,
    weights: Option<&[f64]>,
    threads: usize,
) -> Vec<TrafficLoads> {
    let n = csr.node_count();
    let links = csr.edge_count();
    for dem in demands {
        assert_eq!(dem.node_count(), n, "demand sized for a different graph");
    }
    let mut totals: Vec<TrafficLoads> = demands.iter().map(|_| TrafficLoads::zero(links)).collect();
    if n == 0 || demands.is_empty() {
        return totals;
    }
    let partials = run_chunks(
        n,
        threads,
        || EngineScratch {
            tree: CsrBfsTree::sized(n),
            acc: vec![0.0; n],
            sigma: vec![0.0; n],
            entries: demands.iter().map(|_| Vec::new()).collect(),
        },
        |scratch, range| {
            let mut partial: Vec<TrafficLoads> =
                demands.iter().map(|_| TrafficLoads::zero(links)).collect();
            for s in range {
                // Gather each model's positive demands first: a source
                // nobody sends from (masked masses, restricted bands)
                // skips its BFS entirely.
                let mut any = false;
                for (dem, entries) in demands.iter().zip(&mut scratch.entries) {
                    entries.clear();
                    dem.gather_row(s, entries);
                    any |= !entries.is_empty();
                }
                if !any {
                    continue;
                }
                csr.bfs_tree_into(NodeId(s as u32), &mut scratch.tree);
                if policy == RoutePolicy::Ecmp {
                    count_paths(csr, &scratch.tree, &mut scratch.sigma, weights);
                }
                for (m, out) in partial.iter_mut().enumerate() {
                    accumulate_source(csr, scratch, m, policy, weights, out);
                }
            }
            partial
        },
    );
    for (_, partial) in partials {
        for (total, part) in totals.iter_mut().zip(&partial) {
            total.absorb(part);
        }
    }
    totals
}

/// [`link_loads_multi`] for a single demand model.
pub fn link_loads(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    policy: RoutePolicy,
    threads: usize,
) -> TrafficLoads {
    link_loads_multi(csr, &[demand], policy, threads)
        .pop()
        .expect("one model in, one result out")
}

/// Brandes-style shortest-path counts from the tree's source, into
/// `sigma` (entries outside the reached set are never read). With
/// `weights`, σ counts each path with the product of its edge weights;
/// unit weights multiply by exactly 1.0, so the unweighted numbers are
/// reproduced bit for bit.
fn count_paths(csr: &CsrGraph, tree: &CsrBfsTree, sigma: &mut [f64], weights: Option<&[f64]>) {
    for &v in tree.visit_order() {
        sigma[v.index()] = 0.0;
    }
    sigma[tree.source.index()] = 1.0;
    for &v in tree.visit_order() {
        let next = tree.dist[v.index()] + 1;
        match weights {
            None => {
                for &u in csr.neighbors(v) {
                    if tree.dist[u.index()] == next {
                        sigma[u.index()] += sigma[v.index()];
                    }
                }
            }
            Some(w) => {
                for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
                    if tree.dist[u.index()] == next {
                        sigma[u.index()] += sigma[v.index()] * w[e.index()];
                    }
                }
            }
        }
    }
}

/// Routes the gathered positive demands of model `m` (for the current
/// source, already in `scratch.entries[m]`) over the current scratch
/// tree into `out`. The subtree accumulator is left all-zero again on
/// return.
fn accumulate_source(
    csr: &CsrGraph,
    scratch: &mut EngineScratch,
    m: usize,
    policy: RoutePolicy,
    weights: Option<&[f64]>,
    out: &mut TrafficLoads,
) {
    let EngineScratch {
        tree,
        acc,
        sigma,
        entries,
    } = scratch;
    for &(v, amount) in &entries[m] {
        let v = v as usize;
        // Self-demand is never routed, whatever a gather_row emits.
        if v == tree.source.index() {
            continue;
        }
        if tree.dist[v] == UNREACHABLE {
            out.unrouted_flows += 1;
            out.unrouted_traffic += amount;
        } else {
            acc[v] = amount;
            out.routed_flows += 1;
            out.routed_traffic += amount;
            out.traffic_hops += amount * tree.dist[v] as f64;
        }
    }
    // Children precede parents in reverse visit order, so by the time a
    // node is popped its accumulator holds the whole subtree's demand.
    for &v in tree.visit_order().iter().rev() {
        if v == tree.source {
            continue;
        }
        let a = acc[v.index()];
        if a == 0.0 {
            continue;
        }
        match policy {
            RoutePolicy::TreePath => {
                let (p, e) = tree
                    .parent(v)
                    .expect("reached non-source node has a parent");
                out.link_load[e.index()] += a;
                acc[p.index()] += a;
            }
            RoutePolicy::Ecmp => {
                let dv = tree.dist[v.index()];
                let share = a / sigma[v.index()];
                for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
                    let du = tree.dist[u.index()];
                    if du != UNREACHABLE && du + 1 == dv {
                        // Weighted: the σ entering v through edge e is
                        // σ[u]·w(e), so that is e's share of the split.
                        // Unweighted multiplies by exactly 1.0 — the
                        // two cases are bit-identical at unit weights.
                        let c = match weights {
                            None => share * sigma[u.index()],
                            Some(w) => share * (sigma[u.index()] * w[e.index()]),
                        };
                        out.link_load[e.index()] += c;
                        acc[u.index()] += c;
                    }
                }
            }
        }
        acc[v.index()] = 0.0;
    }
    acc[tree.source.index()] = 0.0;
}

/// The per-flow engine: walks every flow's tree path edge by edge over a
/// prebuilt [`BfsForest`] (the multi-source tree cache), adding each
/// flow's amount to its links in input order. It routes explicit flow
/// lists (E12's customer pairs) and is the differential/speedup oracle
/// for the batched engine, which it matches bit for bit on
/// integer-valued demands. Flows whose source has no tree in the
/// forest — or whose endpoints lie outside the graph — count as
/// unrouted.
pub fn naive_link_load(csr: &CsrGraph, forest: &BfsForest, flows: &[Demand]) -> TrafficLoads {
    let n = csr.node_count();
    let mut out = TrafficLoads::zero(csr.edge_count());
    for f in flows {
        let path = if f.dst.index() < n {
            forest
                .tree_from(f.src)
                .and_then(|tree| tree.edge_path_to(f.dst))
        } else {
            None
        };
        match path {
            Some(path) => {
                for e in &path {
                    out.link_load[e.index()] += f.amount;
                }
                out.routed_flows += 1;
                out.routed_traffic += f.amount;
                out.traffic_hops += f.amount * path.len() as f64;
            }
            None => {
                out.unrouted_flows += 1;
                out.unrouted_traffic += f.amount;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandConfig, DemandMatrix, DemandModel};
    use crate::routing::{flow, route_flows};
    use hot_graph::graph::Graph;
    use hot_graph::parallel::bfs_forest;
    use proptest::prelude::*;

    /// A demand given by an explicit dense matrix (tests only).
    struct Dense {
        n: usize,
        d: Vec<f64>,
    }

    impl OdDemand for Dense {
        fn node_count(&self) -> usize {
            self.n
        }
        fn demand(&self, src: usize, dst: usize) -> f64 {
            self.d[src * self.n + dst]
        }
    }

    fn path4() -> (Graph<(), ()>, CsrGraph) {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        (g, csr)
    }

    #[test]
    fn batched_matches_route_on_path() {
        let (_, csr) = path4();
        let mut d = vec![0.0; 16];
        d[3] = 5.0; // 0 -> 3
        d[1 * 4 + 2] = 2.0; // 1 -> 2
        let dense = Dense { n: 4, d };
        let loads = link_loads(&csr, &dense, RoutePolicy::TreePath, 2);
        let flows = route_flows(&csr, &[flow(0, 3, 5.0), flow(1, 2, 2.0)]);
        assert_eq!(loads.link_load, flows.link_load);
        assert_eq!(loads.routed_flows, 2);
        assert_eq!(loads.unrouted_flows, 0);
        assert_eq!(loads.routed_traffic, flows.routed_traffic);
        assert_eq!(loads.mean_hops(), flows.mean_hops());
    }

    #[test]
    fn ecmp_splits_across_equal_paths() {
        // Square: two 2-hop paths from 0 to 3.
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[3] = 2.0;
        let dense = Dense { n: 4, d };
        let tree = link_loads(&csr, &dense, RoutePolicy::TreePath, 1);
        let ecmp = link_loads(&csr, &dense, RoutePolicy::Ecmp, 1);
        // Tree path uses one side only; ECMP puts exactly 1.0 on all
        // four edges (2 paths, amount 2, splits are powers of two).
        assert_eq!(tree.link_load.iter().filter(|&&l| l > 0.0).count(), 2);
        assert_eq!(ecmp.link_load, vec![1.0; 4]);
        assert_eq!(ecmp.traffic_hops, 4.0);
        assert_eq!(ecmp.mean_hops(), 2.0);
    }

    #[test]
    fn disconnected_demand_counted_unrouted() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[2] = 3.0; // 0 -> 2 impossible
        d[1] = 1.0; // 0 -> 1 fine
        let dense = Dense { n: 4, d };
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let loads = link_loads(&csr, &dense, policy, 3);
            assert_eq!(loads.unrouted_flows, 1);
            assert_eq!(loads.unrouted_traffic, 3.0);
            assert_eq!(loads.routed_traffic, 1.0);
        }
    }

    #[test]
    fn multi_model_matches_single_runs_bitwise() {
        let g: Graph<(), ()> = Graph::from_edges(
            7,
            vec![
                (0, 1, ()),
                (1, 2, ()),
                (2, 3, ()),
                (3, 0, ()),
                (2, 4, ()),
                (4, 5, ()),
                (5, 6, ()),
                (6, 2, ()),
            ],
        );
        let csr = CsrGraph::from_graph(&g);
        let models: Vec<DemandMatrix> = [
            DemandModel::Uniform,
            DemandModel::Gravity {
                distance_exponent: 0.0,
            },
            DemandModel::RankBiased { exponent: 1.0 },
        ]
        .into_iter()
        .map(|model| {
            DemandMatrix::build(
                &csr,
                None,
                &DemandConfig {
                    model,
                    ..DemandConfig::default()
                },
            )
        })
        .collect();
        let refs: Vec<&dyn OdDemand> = models.iter().map(|m| m as &dyn OdDemand).collect();
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let multi = link_loads_multi(&csr, &refs, policy, 4);
            for (dem, got) in models.iter().zip(&multi) {
                let single = link_loads(&csr, dem, policy, 1);
                assert_eq!(&single, got, "{:?}", policy);
                // Conservation: total load equals traffic x hops.
                assert!((got.total_load() - got.traffic_hops).abs() < 1e-9 * got.traffic_hops);
            }
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let g: Graph<(), ()> = Graph::from_edges(
            9,
            (0..8)
                .map(|i| (i, i + 1, ()))
                .chain([(0, 4, ()), (2, 7, ())])
                .collect::<Vec<_>>(),
        );
        let csr = CsrGraph::from_graph(&g);
        let dem = DemandMatrix::build(
            &csr,
            None,
            &DemandConfig {
                model: DemandModel::Gravity {
                    distance_exponent: 0.0,
                },
                mass_jitter: 0.4,
                seed: 5,
                ..DemandConfig::default()
            },
        );
        for policy in [RoutePolicy::TreePath, RoutePolicy::Ecmp] {
            let reference = link_loads(&csr, &dem, policy, 1);
            for threads in 2..=8 {
                let got = link_loads(&csr, &dem, policy, threads);
                let same = reference
                    .link_load
                    .iter()
                    .zip(&got.link_load)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{:?} diverged at {} threads", policy, threads);
                assert_eq!(reference.traffic_hops.to_bits(), got.traffic_hops.to_bits());
            }
        }
    }

    #[test]
    fn unit_weights_reproduce_ecmp_bitwise() {
        let g: Graph<(), ()> = Graph::from_edges(
            9,
            (0..8)
                .map(|i| (i, i + 1, ()))
                .chain([(0, 4, ()), (2, 7, ()), (1, 6, ())])
                .collect::<Vec<_>>(),
        );
        let csr = CsrGraph::from_graph(&g);
        let dem = DemandMatrix::build(
            &csr,
            None,
            &DemandConfig {
                model: DemandModel::Gravity {
                    distance_exponent: 0.0,
                },
                mass_jitter: 0.3,
                seed: 11,
                ..DemandConfig::default()
            },
        );
        let plain = link_loads(&csr, &dem, RoutePolicy::Ecmp, 3);
        for threads in [1, 3, 8] {
            let unit = link_loads_weighted(&csr, &dem, &vec![1.0; csr.edge_count()], threads);
            assert_eq!(plain, unit, "unit weights at {} threads", threads);
        }
        // A uniform dyadic rescale (all 0.5) changes no split either:
        // every σ scales by an exact power of two that cancels.
        let halved = link_loads_weighted(&csr, &dem, &vec![0.5; csr.edge_count()], 2);
        assert_eq!(plain, halved);
    }

    #[test]
    fn weighted_split_follows_weights() {
        // Square: paths 0-1-3 (edges 0, 2) and 0-2-3 (edges 1, 3).
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let mut d = vec![0.0; 16];
        d[3] = 4.0;
        let dense = Dense { n: 4, d };
        // Weight 3 on edge 0 makes the left path carry 3 of every 4.
        let loads = link_loads_weighted(&csr, &dense, &[3.0, 1.0, 1.0, 1.0], 1);
        assert_eq!(loads.link_load, vec![3.0, 1.0, 3.0, 1.0]);
        assert_eq!(loads.routed_traffic, 4.0);
        assert_eq!(loads.mean_hops(), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_rejects_zero_weight() {
        let (_, csr) = path4();
        let dense = Dense {
            n: 4,
            d: vec![0.0; 16],
        };
        link_loads_weighted(&csr, &dense, &[1.0, 0.0, 1.0], 1);
    }

    #[test]
    fn empty_graph_yields_empty_loads() {
        let g: Graph<(), ()> = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        let dense = Dense { n: 0, d: vec![] };
        let loads = link_loads(&csr, &dense, RoutePolicy::TreePath, 4);
        assert!(loads.link_load.is_empty());
        assert_eq!(loads.routed_flows, 0);
        assert_eq!(loads.max_load(), 0.0);
        assert_eq!(loads.mean_hops(), 0.0);
    }

    #[test]
    fn naive_missing_source_tree_is_unrouted() {
        let (_, csr) = path4();
        let forest = bfs_forest(&csr, &[NodeId(0)], 1);
        let flows = vec![
            flow(2, 3, 4.0),
            // Regression: an out-of-range destination is unrouted like a
            // source without a tree, not an index panic.
            flow(0, 99, 1.5),
        ];
        let out = naive_link_load(&csr, &forest, &flows);
        assert_eq!(out.unrouted_flows, 2);
        assert_eq!(out.unrouted_traffic, 5.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Conservation identity for the per-flow engine: total load
        /// summed over links equals traffic × hops summed over routed
        /// flows, and on a connected graph every offered unit routes.
        #[test]
        fn naive_load_equals_traffic_hops(
            n in 2usize..12,
            extra in proptest::collection::vec((0usize..12, 0usize..12), 0..14),
            pairs in proptest::collection::vec((0usize..12, 0usize..12, 0.1f64..5.0), 1..10),
        ) {
            // A spanning path keeps the graph connected; chords add
            // alternative routes.
            let chords = extra.into_iter().map(|(a, b)| (a % n, b % n)).filter(|(a, b)| a != b);
            let edges = (1..n).map(|i| (i - 1, i)).chain(chords).map(|(a, b)| (a, b, ()));
            let csr = CsrGraph::from_graph(&Graph::<(), ()>::from_edges(n, edges));
            let flows: Vec<Demand> = pairs
                .into_iter()
                .map(|(a, b, amount)| flow((a % n) as u32, (b % n) as u32, amount))
                .filter(|f| f.src != f.dst)
                .collect();
            let out = route_flows(&csr, &flows);
            prop_assert_eq!(out.unrouted_flows, 0);
            prop_assert!((out.total_load() - out.traffic_hops).abs() < 1e-9,
                "sum load {} vs traffic-hops {}", out.total_load(), out.traffic_hops);
            let offered: f64 = flows.iter().map(|f| f.amount).sum();
            prop_assert!((out.routed_traffic - offered).abs() < 1e-9);
        }
    }
}
