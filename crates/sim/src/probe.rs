//! Streaming probe-campaign engine: traceroute inference at scale.
//!
//! [`crate::traceroute::infer_map`] states the measurement model — from
//! each vantage, the forwarding path to each destination is observed and
//! the inferred map is the union of observed links — but it runs one
//! allocating Dijkstra per vantage over the mutable [`Graph`] and walks
//! a materialized `Vec<EdgeId>` per destination, which caps campaigns at
//! toy sizes. This module is the batch engine behind scenario E19: the
//! same observation model over a [`CsrGraph`], with
//!
//! - **per-worker scratch** (a reused [`CsrBfsTree`] or Dijkstra state
//!   with O(reached) reset) so a vantage costs one tree build and zero
//!   per-probe allocation;
//! - **O(reached) marking**: with all-destinations campaigns the
//!   observed links from a vantage are exactly the tree's parent edges,
//!   so masks are stamped straight off the visit order without ever
//!   materializing a path; destination subsets walk parent chains with
//!   an epoch-stamped early stop, so shared path prefixes are walked
//!   once per vantage;
//! - the fixed 64-chunk deterministic scheduler
//!   ([`hot_graph::parallel::run_chunks`]) fanning vantages out, with
//!   bitset partials OR-merged in chunk order — inferred maps and probe
//!   statistics are **bit-identical at any thread count**;
//! - two forwarding modes: hop-count trees (unit-cost BFS, the mesh
//!   controls) and **latency forwarding** over a per-link latency slice
//!   (for generated topologies, the `hot-geo` link lengths), whose
//!   Dijkstra replicates [`hot_graph::shortest_path::dijkstra`]'s heap
//!   semantics operation-for-operation, so the inferred masks equal
//!   `infer_map`'s bit for bit (property-tested).
//!
//! Out-of-range vantage or destination ids are skipped, matching the
//! hardened `infer_map` and the routing/BGP query conventions.

use crate::traceroute::InferredMap;
use hot_graph::csr::{CsrBfsTree, CsrGraph, UNREACHABLE};
use hot_graph::graph::{EdgeId, Graph, NodeId};
use hot_graph::parallel::run_chunks;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A probe campaign: who probes, toward what, under which forwarding
/// metric.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCampaign<'a> {
    /// Vantage (source) routers. Out-of-range ids are skipped; repeats
    /// are allowed (idempotent on the masks).
    pub vantages: &'a [NodeId],
    /// Probe targets: every node when `None`, else the given subset
    /// (out-of-range ids skipped, like a probe to an unrouted prefix).
    pub destinations: Option<&'a [NodeId]>,
    /// Per-link latency (typically the `hot-geo` link length), indexed
    /// by edge id. `Some` selects weighted (latency) forwarding;
    /// `None` selects hop-count forwarding. Entries must be finite and
    /// non-negative.
    pub link_latency: Option<&'a [f64]>,
}

/// Aggregate statistics of a campaign. All fields are exact integers or
/// chunk-ordered f64 sums, so they are bit-identical at any thread
/// count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeStats {
    /// Probes fired: one per (in-range vantage, in-range destination)
    /// pair, self-probes included.
    pub probes_sent: u64,
    /// Probes whose destination was reachable (the self-probe always
    /// completes).
    pub probes_completed: u64,
    /// Total forwarding hops over completed probes.
    pub total_hops: u64,
    /// Longest completed probe, in hops.
    pub max_hops: u32,
    /// Total accumulated latency over completed probes (zero under
    /// hop-count forwarding).
    pub total_latency: f64,
    /// Largest completed-probe latency.
    pub max_latency: f64,
}

impl ProbeStats {
    /// Mean hop count of completed probes (0 when none completed).
    pub fn mean_hops(&self) -> f64 {
        if self.probes_completed == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.probes_completed as f64
        }
    }

    /// Mean latency of completed probes (0 when none completed).
    pub fn mean_latency(&self) -> f64 {
        if self.probes_completed == 0 {
            0.0
        } else {
            self.total_latency / self.probes_completed as f64
        }
    }

    fn absorb(&mut self, o: &ProbeStats) {
        self.probes_sent += o.probes_sent;
        self.probes_completed += o.probes_completed;
        self.total_hops += o.total_hops;
        self.max_hops = self.max_hops.max(o.max_hops);
        self.total_latency += o.total_latency;
        self.max_latency = self.max_latency.max(o.max_latency);
    }
}

/// The outcome of a campaign: the inferred map plus probe statistics.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The inferred (sampled) map, in ground-truth indexing — the same
    /// structure `infer_map` returns, bit-identical to it under the
    /// same campaign.
    pub map: InferredMap,
    /// Aggregate probe statistics.
    pub stats: ProbeStats,
}

/// One [`HeapEntry`] of the latency Dijkstra. This mirrors the private
/// entry in `hot_graph::shortest_path` exactly — comparison on `dist`
/// alone, reversed for a min-heap — because mask equality with
/// `infer_map` requires the *same* heap pop order among equal
/// distances, not just the same distances.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in probe Dijkstra heap")
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable single-source Dijkstra state over a CSR view: settle-order
/// reset (O(reached) per vantage), flat parent arrays, and a hop-depth
/// array filled in settle order — valid because a node's final parent
/// is always settled before the node itself.
struct DijkstraScratch {
    dist: Vec<f64>,
    depth: Vec<u32>,
    parent_node: Vec<NodeId>,
    parent_edge: Vec<EdgeId>,
    done: Vec<bool>,
    /// Settle order of the last run; exactly the reachable nodes,
    /// source first.
    order: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
}

impl DijkstraScratch {
    fn sized(n: usize) -> DijkstraScratch {
        DijkstraScratch {
            dist: vec![f64::INFINITY; n],
            depth: vec![0; n],
            parent_node: vec![NodeId(u32::MAX); n],
            parent_edge: vec![EdgeId(u32::MAX); n],
            done: vec![false; n],
            order: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
        }
    }

    /// Runs Dijkstra from `source`. The loop body replicates
    /// `hot_graph::shortest_path::dijkstra` operation for operation
    /// (same relaxation condition, same push order via the CSR's
    /// preserved adjacency order, same `d + w` arithmetic), so the
    /// parent forest — and every mask derived from it — matches the
    /// classic implementation bit for bit.
    fn run(&mut self, csr: &CsrGraph, latency: &[f64], source: NodeId) {
        for &v in &self.order {
            self.dist[v as usize] = f64::INFINITY;
            self.done[v as usize] = false;
        }
        self.order.clear();
        debug_assert!(self.heap.is_empty());
        let offsets = csr.offsets();
        let targets = csr.targets();
        let edge_ids = csr.edge_ids_raw();
        self.dist[source.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            if self.done[v.index()] {
                continue;
            }
            self.done[v.index()] = true;
            self.order.push(v.0);
            let lo = offsets[v.index()] as usize;
            let hi = offsets[v.index() + 1] as usize;
            for i in lo..hi {
                let u = targets[i];
                let nd = d + latency[edge_ids[i].index()];
                if nd < self.dist[u.index()] {
                    self.dist[u.index()] = nd;
                    self.parent_node[u.index()] = v;
                    self.parent_edge[u.index()] = edge_ids[i];
                    self.heap.push(HeapEntry { dist: nd, node: u });
                }
            }
        }
        // Hop depths in settle order: a node's (final) parent was
        // settled strictly earlier, so its depth is already in place.
        self.depth[source.index()] = 0;
        for &v in &self.order[1..] {
            let v = v as usize;
            self.depth[v] = self.depth[self.parent_node[v].index()] + 1;
        }
    }
}

/// Per-worker forwarding state: one tree (or Dijkstra state) reused
/// across every vantage the worker processes.
enum Forwarding {
    Hops(CsrBfsTree),
    Latency(DijkstraScratch),
}

struct WorkerScratch {
    fwd: Forwarding,
    /// Epoch stamps for destination-subset chain walks: `stamp[v] ==
    /// epoch` means `v`'s chain suffix is already marked for the
    /// current vantage.
    stamp: Vec<u32>,
    epoch: u32,
}

/// One chunk's partial result: observed-node/edge bitsets plus stats.
/// Bitsets keep the 64 in-flight partials small (n/8 bytes each) and
/// make the chunk-ordered merge a word-wise OR.
struct Partial {
    node_words: Vec<u64>,
    edge_words: Vec<u64>,
    stats: ProbeStats,
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Runs `campaign` over `csr` on `threads` workers and returns the
/// inferred map plus probe statistics. Deterministic: the result is a
/// pure function of `(csr, campaign)` — the thread count only shapes
/// wall-clock.
///
/// # Panics
///
/// Panics if `campaign.link_latency` is present with the wrong length
/// or with a non-finite / negative entry.
pub fn run_campaign(csr: &CsrGraph, campaign: &ProbeCampaign, threads: usize) -> CampaignResult {
    let n = csr.node_count();
    let m = csr.edge_count();
    if let Some(lat) = campaign.link_latency {
        assert_eq!(lat.len(), m, "one latency per link");
        assert!(
            lat.iter().all(|l| l.is_finite() && *l >= 0.0),
            "link latencies must be finite and non-negative"
        );
    }
    let node_words_len = n.div_ceil(64).max(1);
    let edge_words_len = m.div_ceil(64).max(1);
    let parts = run_chunks(
        campaign.vantages.len(),
        threads,
        || WorkerScratch {
            fwd: match campaign.link_latency {
                Some(_) => Forwarding::Latency(DijkstraScratch::sized(n)),
                None => Forwarding::Hops(CsrBfsTree::sized(n)),
            },
            stamp: vec![0; n],
            epoch: 0,
        },
        |scratch, range| {
            let mut part = Partial {
                node_words: vec![0; node_words_len],
                edge_words: vec![0; edge_words_len],
                stats: ProbeStats::default(),
            };
            for i in range {
                let v = campaign.vantages[i];
                if v.index() >= n {
                    continue; // unrouted vantage, like infer_map
                }
                if campaign.destinations.is_some() {
                    advance_epoch(scratch);
                }
                let WorkerScratch { fwd, stamp, epoch } = scratch;
                match fwd {
                    Forwarding::Hops(tree) => {
                        csr.bfs_tree_into(v, tree);
                        match campaign.destinations {
                            None => mark_full_tree_hops(tree, &mut part),
                            Some(ds) => mark_subset_hops(tree, ds, stamp, *epoch, &mut part),
                        }
                    }
                    Forwarding::Latency(dj) => {
                        dj.run(csr, campaign.link_latency.expect("latency mode"), v);
                        match campaign.destinations {
                            None => mark_full_tree_latency(dj, &mut part),
                            Some(ds) => mark_subset_latency(dj, ds, stamp, *epoch, &mut part),
                        }
                    }
                }
            }
            part
        },
    );
    let mut node_words = vec![0u64; node_words_len];
    let mut edge_words = vec![0u64; edge_words_len];
    let mut stats = ProbeStats::default();
    for (_, part) in &parts {
        for (acc, w) in node_words.iter_mut().zip(&part.node_words) {
            *acc |= w;
        }
        for (acc, w) in edge_words.iter_mut().zip(&part.edge_words) {
            *acc |= w;
        }
        stats.absorb(&part.stats);
    }
    let node_seen: Vec<bool> = (0..n).map(|i| get_bit(&node_words, i)).collect();
    let edge_seen: Vec<bool> = (0..m).map(|i| get_bit(&edge_words, i)).collect();
    let nodes_obs = node_seen.iter().filter(|&&s| s).count();
    let edges_obs = edge_seen.iter().filter(|&&s| s).count();
    CampaignResult {
        map: InferredMap {
            node_coverage: if n > 0 {
                nodes_obs as f64 / n as f64
            } else {
                0.0
            },
            edge_coverage: if m > 0 {
                edges_obs as f64 / m as f64
            } else {
                0.0
            },
            node_seen,
            edge_seen,
        },
        stats,
    }
}

/// Convenience wrapper: builds the CSR view of `truth`, gathers per-edge
/// latencies with `weight`, and runs the batched campaign — the drop-in
/// replacement for [`crate::traceroute::infer_map`] (bit-identical
/// masks), plus stats.
pub fn infer_map_batched<N, E>(
    truth: &Graph<N, E>,
    vantages: &[NodeId],
    destinations: Option<&[NodeId]>,
    mut weight: impl FnMut(&E) -> f64,
    threads: usize,
) -> CampaignResult {
    let csr = CsrGraph::from_graph(truth);
    let latency: Vec<f64> = truth
        .edge_ids()
        .map(|e| weight(truth.edge_weight(e)))
        .collect();
    run_campaign(
        &csr,
        &ProbeCampaign {
            vantages,
            destinations,
            link_latency: Some(&latency),
        },
        threads,
    )
}

fn advance_epoch(scratch: &mut WorkerScratch) {
    if scratch.epoch == u32::MAX {
        scratch.stamp.fill(0);
        scratch.epoch = 1;
    } else {
        scratch.epoch += 1;
    }
}

/// All-destinations campaign under hop forwarding: every reached
/// non-source node contributes itself and its parent edge; one probe
/// per node of the graph was sent.
fn mark_full_tree_hops(tree: &CsrBfsTree, part: &mut Partial) {
    let order = tree.visit_order();
    let parents = tree.parent_edges();
    part.stats.probes_sent += tree.dist.len() as u64;
    part.stats.probes_completed += order.len() as u64;
    set_bit(&mut part.node_words, tree.source.index());
    for &u in &order[1..] {
        let d = tree.dist[u.index()];
        set_bit(&mut part.node_words, u.index());
        set_bit(&mut part.edge_words, parents[u.index()].index());
        part.stats.total_hops += d as u64;
        part.stats.max_hops = part.stats.max_hops.max(d);
    }
}

/// All-destinations campaign under latency forwarding: same shape as
/// the hop variant, off the Dijkstra settle order.
fn mark_full_tree_latency(dj: &DijkstraScratch, part: &mut Partial) {
    part.stats.probes_sent += dj.dist.len() as u64;
    part.stats.probes_completed += dj.order.len() as u64;
    if let Some(&src) = dj.order.first() {
        set_bit(&mut part.node_words, src as usize);
    }
    for &u in &dj.order[1..] {
        let u = u as usize;
        set_bit(&mut part.node_words, u);
        set_bit(&mut part.edge_words, dj.parent_edge[u].index());
        part.stats.total_hops += dj.depth[u] as u64;
        part.stats.max_hops = part.stats.max_hops.max(dj.depth[u]);
        part.stats.total_latency += dj.dist[u];
        part.stats.max_latency = part.stats.max_latency.max(dj.dist[u]);
    }
}

/// Destination-subset campaign under hop forwarding: walk each
/// destination's parent chain toward the source, stopping at the first
/// node already stamped for this vantage (its suffix is marked).
fn mark_subset_hops(
    tree: &CsrBfsTree,
    dests: &[NodeId],
    stamp: &mut [u32],
    epoch: u32,
    part: &mut Partial,
) {
    let n = tree.dist.len();
    let parents_n = tree.parent_nodes();
    let parents_e = tree.parent_edges();
    // The vantage observes itself even when every probe times out
    // (`infer_map` sets the source bit before probing anything).
    set_bit(&mut part.node_words, tree.source.index());
    for &dst in dests {
        if dst.index() >= n {
            continue; // unrouted prefix, like infer_map
        }
        part.stats.probes_sent += 1;
        let d = tree.dist[dst.index()];
        if d == UNREACHABLE {
            continue; // probe timed out
        }
        part.stats.probes_completed += 1;
        part.stats.total_hops += d as u64;
        part.stats.max_hops = part.stats.max_hops.max(d);
        let mut cur = dst;
        while cur != tree.source && stamp[cur.index()] != epoch {
            stamp[cur.index()] = epoch;
            set_bit(&mut part.node_words, cur.index());
            set_bit(&mut part.edge_words, parents_e[cur.index()].index());
            cur = parents_n[cur.index()];
        }
    }
}

/// Destination-subset campaign under latency forwarding.
fn mark_subset_latency(
    dj: &DijkstraScratch,
    dests: &[NodeId],
    stamp: &mut [u32],
    epoch: u32,
    part: &mut Partial,
) {
    let n = dj.dist.len();
    let source = match dj.order.first() {
        Some(&s) => NodeId(s),
        None => return,
    };
    // The vantage observes itself even when every probe times out
    // (`infer_map` sets the source bit before probing anything).
    set_bit(&mut part.node_words, source.index());
    for &dst in dests {
        if dst.index() >= n {
            continue;
        }
        part.stats.probes_sent += 1;
        if !dj.done[dst.index()] {
            continue;
        }
        part.stats.probes_completed += 1;
        part.stats.total_hops += dj.depth[dst.index()] as u64;
        part.stats.max_hops = part.stats.max_hops.max(dj.depth[dst.index()]);
        part.stats.total_latency += dj.dist[dst.index()];
        part.stats.max_latency = part.stats.max_latency.max(dj.dist[dst.index()]);
        let mut cur = dst;
        while cur != source && stamp[cur.index()] != epoch {
            stamp[cur.index()] = epoch;
            set_bit(&mut part.node_words, cur.index());
            set_bit(&mut part.edge_words, dj.parent_edge[cur.index()].index());
            cur = dj.parent_node[cur.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::{infer_map, strided_vantages};
    use hot_graph::graph::Graph;

    /// Square with a cheap diagonal (the traceroute.rs fixture).
    fn square_diag() -> Graph<(), f64> {
        Graph::from_edges(
            4,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 0.5),
            ],
        )
    }

    #[test]
    fn matches_infer_map_on_square() {
        let g = square_diag();
        for k in 1..=4 {
            let vantages = strided_vantages(&g, k);
            let classic = infer_map(&g, &vantages, None, |w| *w);
            let batched = infer_map_batched(&g, &vantages, None, |w| *w, 2);
            assert_eq!(classic.node_seen, batched.map.node_seen, "k = {}", k);
            assert_eq!(classic.edge_seen, batched.map.edge_seen, "k = {}", k);
            assert_eq!(classic.node_coverage, batched.map.node_coverage);
            assert_eq!(classic.edge_coverage, batched.map.edge_coverage);
        }
    }

    #[test]
    fn hop_mode_counts_probes() {
        let g: Graph<(), f64> = Graph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let csr = CsrGraph::from_graph(&g);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(0)],
                destinations: None,
                link_latency: None,
            },
            1,
        );
        // 4 probes sent (one per node), node 3 unreachable.
        assert_eq!(result.stats.probes_sent, 4);
        assert_eq!(result.stats.probes_completed, 3);
        assert_eq!(result.stats.total_hops, 3); // 0 + 1 + 2
        assert_eq!(result.stats.max_hops, 2);
        assert_eq!(result.stats.total_latency, 0.0);
        assert!((result.map.node_coverage - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_mode_accumulates_distance() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(0)],
                destinations: None,
                link_latency: Some(&latency),
            },
            1,
        );
        // Distances from 0: 0, 1.0, 0.5 (diagonal), 1.0.
        assert_eq!(result.stats.probes_completed, 4);
        assert!((result.stats.total_latency - 2.5).abs() < 1e-12);
        assert!((result.stats.max_latency - 1.0).abs() < 1e-12);
        assert_eq!(result.stats.max_hops, 1);
    }

    #[test]
    fn destination_subsets_restrict_the_map() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let dests = [NodeId(1), NodeId(1), NodeId(0)];
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(0)],
                destinations: Some(&dests),
                link_latency: Some(&latency),
            },
            1,
        );
        let classic = infer_map(&g, &[NodeId(0)], Some(&dests), |w| *w);
        assert_eq!(result.map.node_seen, classic.node_seen);
        assert_eq!(result.map.edge_seen, classic.edge_seen);
        assert_eq!(result.stats.probes_sent, 3);
        assert_eq!(result.stats.probes_completed, 3);
        assert_eq!(result.stats.total_hops, 2); // 1 + 1 + 0
    }

    #[test]
    fn out_of_range_ids_are_skipped() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[NodeId(99), NodeId(0)],
                destinations: Some(&[NodeId(1), NodeId(77)]),
                link_latency: None,
            },
            1,
        );
        assert_eq!(result.stats.probes_sent, 1, "only the routable pair");
        assert!(result.map.node_seen[0] && result.map.node_seen[1]);
        assert_eq!(result.map.edge_seen.iter().filter(|&&s| s).count(), 1);
    }

    #[test]
    fn empty_graph_and_empty_vantages() {
        let empty: Graph<(), f64> = Graph::new();
        let csr = CsrGraph::from_graph(&empty);
        let result = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[],
                destinations: None,
                link_latency: None,
            },
            4,
        );
        assert_eq!(result.stats, ProbeStats::default());
        assert_eq!(result.map.node_coverage, 0.0);
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let none = run_campaign(
            &csr,
            &ProbeCampaign {
                vantages: &[],
                destinations: None,
                link_latency: None,
            },
            4,
        );
        assert!(none.map.node_seen.iter().all(|&s| !s));
    }

    /// The contract of the whole module: thread count never changes a
    /// bit of the output.
    #[test]
    fn thread_count_is_invisible() {
        let g = square_diag();
        let csr = CsrGraph::from_graph(&g);
        let latency: Vec<f64> = g.edge_ids().map(|e| *g.edge_weight(e)).collect();
        let vantages = strided_vantages(&g, 3);
        for link_latency in [None, Some(&latency[..])] {
            let campaign = ProbeCampaign {
                vantages: &vantages,
                destinations: None,
                link_latency,
            };
            let serial = run_campaign(&csr, &campaign, 1);
            for threads in [2, 4, 8] {
                let parallel = run_campaign(&csr, &campaign, threads);
                assert_eq!(serial.map.node_seen, parallel.map.node_seen);
                assert_eq!(serial.map.edge_seen, parallel.map.edge_seen);
                assert_eq!(serial.stats, parallel.stats);
            }
        }
    }
}
