//! Deterministic parallel kernels over [`CsrGraph`].
//!
//! The per-source loops of the hot analytics (Brandes betweenness,
//! multi-source BFS path sampling) are embarrassingly parallel, but naive
//! per-thread accumulation makes the floating-point reduction order — and
//! therefore the low bits of the result — depend on the thread count and
//! the scheduler. These kernels avoid that with a fixed decomposition:
//!
//! 1. Sources are split into [`NUM_CHUNKS`] contiguous chunks whose
//!    boundaries depend only on the input size — never on the thread
//!    count.
//! 2. Worker threads *steal whole chunks* from an atomic counter; each
//!    chunk's partial result is a pure function of the chunk (sources
//!    accumulated in ascending order), no matter which thread runs it.
//! 3. The main thread reduces the partials in chunk-index order.
//!
//! Consequently `par_betweenness(csr, t)` returns bit-identical output
//! for every `t`, and the serial entry points are literally the 1-thread
//! runs — "serial vs parallel" can never drift apart.
//!
//! Everything uses `std::thread::scope`; there are no dependencies.

use crate::csr::{BfsScratch, BrandesScratch, CsrBfsTree, CsrGraph};
use crate::graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of work chunks a source set is split into. Fixed (not derived
/// from the thread count) so the reduction tree — and the floating-point
/// result — is identical no matter how many workers run. 64 chunks keep
/// up to ~16 threads well fed through the work-stealing counter.
pub const NUM_CHUNKS: usize = 64;

/// Worker threads to use by default: everything the machine offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The half-open source range of chunk `c` over `len` items.
#[inline]
fn chunk_bounds(len: usize, c: usize) -> std::ops::Range<usize> {
    (c * len / NUM_CHUNKS)..((c + 1) * len / NUM_CHUNKS)
}

/// Runs `work` over all [`NUM_CHUNKS`] chunks of `0..len` on `threads`
/// scoped worker threads and returns the per-chunk results sorted by
/// chunk index.
///
/// Chunks are handed out through an atomic counter (work stealing);
/// `init` builds one reusable per-worker scratch state, so expensive
/// buffers are allocated once per thread, not once per chunk. For the
/// pipeline to stay deterministic, `work` must be a pure function of
/// the chunk range — the scratch must carry no information between
/// chunks.
///
/// This is the one scheduler behind every deterministic parallel sweep
/// in the workspace (betweenness, path sampling, and the robustness
/// curves in `hot-metrics`); empty chunks are skipped, so callers with
/// fewer than [`NUM_CHUNKS`] items get exactly one singleton chunk per
/// item, in order.
pub fn run_chunks<S, T, I, F>(len: usize, threads: usize, init: I, work: F) -> Vec<(usize, T)>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
{
    let threads = threads.max(1).min(NUM_CHUNKS);
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(NUM_CHUNKS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Lazy: threads that never win a chunk skip `init`.
                    let mut state: Option<S> = None;
                    let mut out = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= NUM_CHUNKS {
                            break;
                        }
                        let range = chunk_bounds(len, c);
                        if range.is_empty() {
                            continue;
                        }
                        let state = state.get_or_insert_with(&init);
                        out.push((c, work(state, range)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            collected.extend(h.join().expect("analytics worker panicked"));
        }
    });
    collected.sort_by_key(|&(c, _)| c);
    collected
}

/// Deterministic parallel map: applies `f` to every element of `items`
/// on `threads` workers through the fixed-chunk scheduler and returns
/// the results in input order.
///
/// `f` receives `(index, &item)` and must be a pure function of them for
/// the determinism guarantee to mean anything; under that contract the
/// output is identical at every thread count. This is the entry point
/// the scenario engine (`hot-exp`) fans its scenarios out over.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let parts = run_chunks(
        items.len(),
        threads,
        || (),
        |_, range| range.map(|i| f(i, &items[i])).collect::<Vec<U>>(),
    );
    let mut out = Vec::with_capacity(items.len());
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// A multi-source BFS tree cache: one [`CsrBfsTree`] per requested
/// source, computed once (in parallel, deterministically) and then
/// shared by every consumer that routes from those sources — repeated
/// path queries, per-flow load walks, failure what-ifs.
///
/// Memory is O(sources × nodes); build forests over the *distinct
/// sources you will actually query*, not over every node of a large
/// graph.
#[derive(Clone, Debug)]
pub struct BfsForest {
    /// `index[v]` = position of `v`'s tree in `trees`, `u32::MAX` when
    /// `v` is not a source.
    index: Vec<u32>,
    trees: Vec<CsrBfsTree>,
}

/// Builds the BFS tree of every source in `sources` on `threads` workers
/// through the fixed-chunk scheduler. Trees are pure functions of
/// `(csr, source)`, so the forest is identical at every thread count.
/// Duplicate sources keep the first tree.
pub fn bfs_forest(csr: &CsrGraph, sources: &[NodeId], threads: usize) -> BfsForest {
    let trees = par_map(sources, threads, |_, &s| csr.bfs_tree(s));
    let mut index = vec![u32::MAX; csr.node_count()];
    for (i, &s) in sources.iter().enumerate() {
        if index[s.index()] == u32::MAX {
            index[s.index()] = i as u32;
        }
    }
    BfsForest { index, trees }
}

impl BfsForest {
    /// Number of cached trees (one per requested source, duplicates
    /// included).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The `i`-th tree, in the source order the forest was built with.
    pub fn tree(&self, i: usize) -> &CsrBfsTree {
        &self.trees[i]
    }

    /// The tree rooted at `s`, or `None` when `s` was not a source.
    pub fn tree_from(&self, s: NodeId) -> Option<&CsrBfsTree> {
        match self.index.get(s.index()) {
            Some(&i) if i != u32::MAX => Some(&self.trees[i as usize]),
            _ => None,
        }
    }
}

/// Betweenness centrality of every node (unweighted shortest paths, each
/// unordered pair counted once, endpoints excluded) computed on `threads`
/// worker threads.
///
/// Output is bit-identical for every thread count — see the module docs
/// — so the 1-thread run is the serial reference.
pub fn par_betweenness(csr: &CsrGraph, threads: usize) -> Vec<f64> {
    let n = csr.node_count();
    if n == 0 {
        return Vec::new();
    }
    let partials = run_chunks(
        n,
        threads,
        || BrandesScratch::new(csr),
        |scratch, range| {
            // The per-chunk partial must be fresh (it is the reduction
            // unit); only the O(n + m) scratch is reused across chunks.
            let mut partial = vec![0.0f64; n];
            for s in range {
                scratch.accumulate_source(csr, NodeId(s as u32), &mut partial);
            }
            partial
        },
    );
    let mut centrality = vec![0.0f64; n];
    for (_, partial) in partials {
        for (c, p) in centrality.iter_mut().zip(partial) {
            *c += p;
        }
    }
    // Undirected graphs: each pair was counted twice. Exact (power of 2).
    for c in &mut centrality {
        *c /= 2.0;
    }
    centrality
}

/// Betweenness centrality *estimated* from a pivot subset (Brandes–Pich
/// source sampling): the Brandes dependency sweep runs only from
/// `pivots`, and each node's summed dependency is scaled by
/// `n / (2k)` so the estimate is unbiased when pivots are drawn
/// uniformly. With `pivots` = all nodes in ascending order this is
/// *bit-identical* to [`par_betweenness`] — the chunk decomposition,
/// accumulation order, and final scaling (×0.5 vs ÷2) agree exactly —
/// so exact and sampled results live on one code path.
///
/// Pivot *selection* (seeded, deterministic) lives with the callers;
/// `hot-metrics` picks seeded uniform pivots above its node threshold.
/// Output is bit-identical at every thread count, as always.
pub fn par_betweenness_sampled(csr: &CsrGraph, pivots: &[NodeId], threads: usize) -> Vec<f64> {
    let n = csr.node_count();
    if n == 0 || pivots.is_empty() {
        return vec![0.0; n];
    }
    let partials = run_chunks(
        pivots.len(),
        threads,
        || BrandesScratch::new(csr),
        |scratch, range| {
            let mut partial = vec![0.0f64; n];
            for &p in &pivots[range] {
                scratch.accumulate_source(csr, p, &mut partial);
            }
            partial
        },
    );
    let mut centrality = vec![0.0f64; n];
    for (_, partial) in partials {
        for (c, p) in centrality.iter_mut().zip(partial) {
            *c += p;
        }
    }
    // Each unordered pair is seen twice per covering pivot; the n/k
    // factor extrapolates the pivot subset to all sources.
    let scale = n as f64 / (2.0 * pivots.len() as f64);
    for c in &mut centrality {
        *c *= scale;
    }
    centrality
}

/// Aggregate of a multi-source BFS sweep: the ingredients of mean path
/// length, diameter, and the hop plot. All fields are integer-valued, so
/// parallel merging is exact by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathSummary {
    /// Sum of hop distances over sampled reachable ordered pairs.
    pub total_hops: u64,
    /// Number of sampled reachable ordered pairs (distance ≥ 1).
    pub pairs: u64,
    /// Largest observed hop distance.
    pub diameter: u32,
    /// `hop_histogram[h]` = sampled ordered pairs at distance `h`.
    pub hop_histogram: Vec<usize>,
}

impl PathSummary {
    /// Mean hop distance over the sampled pairs (0 when none).
    pub fn mean_distance(&self) -> f64 {
        if self.pairs > 0 {
            self.total_hops as f64 / self.pairs as f64
        } else {
            0.0
        }
    }

    fn absorb(&mut self, other: &PathSummary) {
        self.total_hops += other.total_hops;
        self.pairs += other.pairs;
        self.diameter = self.diameter.max(other.diameter);
        if self.hop_histogram.len() < other.hop_histogram.len() {
            self.hop_histogram.resize(other.hop_histogram.len(), 0);
        }
        for (h, &c) in other.hop_histogram.iter().enumerate() {
            self.hop_histogram[h] += c;
        }
    }
}

/// BFS from every source in `sources`, aggregated into a [`PathSummary`],
/// on `threads` worker threads. Unreachable pairs are skipped.
///
/// Runs on the direction-optimizing distance kernel
/// ([`CsrGraph::bfs_distances_into`]): the summary only consumes the
/// distance multiset, which is identical between classic and
/// direction-optimizing traversals, so swapping the kernel changed no
/// output bit while cutting the per-source edge traffic on the fat
/// middle levels of low-diameter internet graphs.
pub fn par_path_summary(csr: &CsrGraph, sources: &[NodeId], threads: usize) -> PathSummary {
    let n = csr.node_count();
    let partials = run_chunks(
        sources.len(),
        threads,
        || BfsScratch::sized(n),
        |scratch, range| {
            let mut summary = PathSummary::default();
            for &s in &sources[range] {
                csr.bfs_distances_into(s, scratch);
                for &v in scratch.reached() {
                    let d = scratch.dist()[v as usize];
                    if d == 0 {
                        continue;
                    }
                    summary.total_hops += d as u64;
                    summary.pairs += 1;
                    summary.diameter = summary.diameter.max(d);
                    if summary.hop_histogram.len() <= d as usize {
                        summary.hop_histogram.resize(d as usize + 1, 0);
                    }
                    summary.hop_histogram[d as usize] += 1;
                }
            }
            summary
        },
    );
    let mut total = PathSummary::default();
    for (_, partial) in partials {
        total.absorb(&partial);
    }
    total
}

/// Exact mean hop distance over all reachable ordered pairs, computed by
/// an all-sources BFS sweep on `threads` worker threads.
pub fn par_avg_path_length(csr: &CsrGraph, threads: usize) -> f64 {
    let sources: Vec<NodeId> = (0..csr.node_count() as u32).map(NodeId).collect();
    par_path_summary(csr, &sources, threads).mean_distance()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::shortest_path::bellman_ford;
    use proptest::prelude::*;

    fn grid(w: usize, h: usize) -> Graph<(), ()> {
        let mut g: Graph<(), ()> = Graph::new();
        for _ in 0..w * h {
            g.add_node(());
        }
        let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    g.add_edge(id(x, y), id(x + 1, y), ());
                }
                if y + 1 < h {
                    g.add_edge(id(x, y), id(x, y + 1), ());
                }
            }
        }
        g
    }

    #[test]
    fn chunk_bounds_cover_everything_once() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000] {
            let mut covered = Vec::new();
            for c in 0..NUM_CHUNKS {
                covered.extend(chunk_bounds(len, c));
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len {}", len);
        }
    }

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..137).collect();
        let expected: Vec<usize> = items.iter().map(|&v| v * v + 1).collect();
        for threads in [1, 2, 5, 8] {
            let got = par_map(&items, threads, |i, &v| {
                assert_eq!(i, v);
                v * v + 1
            });
            assert_eq!(got, expected, "threads = {}", threads);
        }
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, 4, |_, &v| v).is_empty());
    }

    #[test]
    fn bfs_forest_matches_individual_trees() {
        let g = grid(6, 4);
        let csr = crate::csr::CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = [0u32, 7, 23, 7].iter().map(|&v| NodeId(v)).collect();
        let reference = bfs_forest(&csr, &sources, 1);
        for threads in [1, 2, 4, 8] {
            let forest = bfs_forest(&csr, &sources, threads);
            assert_eq!(forest.len(), sources.len());
            for (i, &s) in sources.iter().enumerate() {
                let tree = forest.tree(i);
                assert_eq!(tree.source, s);
                assert_eq!(tree.dist, csr.bfs_tree(s).dist, "threads {}", threads);
                assert_eq!(tree.dist, reference.tree(i).dist);
            }
            // Duplicate source 7 resolves to the first tree.
            assert_eq!(forest.tree_from(NodeId(7)).unwrap().source, NodeId(7));
            assert!(forest.tree_from(NodeId(1)).is_none());
        }
        let empty = bfs_forest(&csr, &[], 4);
        assert!(empty.is_empty());
        assert!(empty.tree_from(NodeId(0)).is_none());
    }

    #[test]
    fn par_betweenness_thread_counts_agree() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let reference = par_betweenness(&csr, 1);
        for threads in 2..=8 {
            let b = par_betweenness(&csr, threads);
            let same = reference
                .iter()
                .zip(&b)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit mismatch at {} threads", threads);
        }
    }

    #[test]
    fn par_betweenness_empty_and_single() {
        let empty: Graph<(), ()> = Graph::new();
        assert!(par_betweenness(&CsrGraph::from_graph(&empty), 4).is_empty());
        let mut one: Graph<(), ()> = Graph::new();
        one.add_node(());
        assert_eq!(par_betweenness(&CsrGraph::from_graph(&one), 4), vec![0.0]);
    }

    /// With pivots = all nodes the sampled estimator must reproduce the
    /// exact kernel bit-for-bit (same chunking, same accumulation order,
    /// ×0.5 scaling == ÷2).
    #[test]
    fn sampled_betweenness_all_pivots_is_exact() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let exact = par_betweenness(&csr, default_threads());
        let pivots: Vec<NodeId> = (0..csr.node_count() as u32).map(NodeId).collect();
        let sampled = par_betweenness_sampled(&csr, &pivots, default_threads());
        let same = exact
            .iter()
            .zip(&sampled)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "all-pivot estimate must equal the exact kernel");
    }

    #[test]
    fn sampled_betweenness_thread_counts_agree() {
        let g = grid(7, 5);
        let csr = CsrGraph::from_graph(&g);
        let pivots: Vec<NodeId> = [0u32, 3, 11, 17, 29, 34]
            .iter()
            .map(|&v| NodeId(v))
            .collect();
        let reference = par_betweenness_sampled(&csr, &pivots, 1);
        for threads in 2..=8 {
            let b = par_betweenness_sampled(&csr, &pivots, threads);
            let same = reference
                .iter()
                .zip(&b)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit mismatch at {} threads", threads);
        }
        // Degenerate inputs stay well-defined.
        assert_eq!(
            par_betweenness_sampled(&csr, &[], 4),
            vec![0.0; csr.node_count()]
        );
        let empty: Graph<(), ()> = Graph::new();
        assert!(par_betweenness_sampled(&CsrGraph::from_graph(&empty), &[], 4).is_empty());
    }

    #[test]
    fn path_summary_matches_known_path_graph() {
        // 0-1-2-3: ordered pairs at distances 1 (6 pairs), 2 (4), 3 (2).
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = (0..4).map(NodeId).collect();
        let s = par_path_summary(&csr, &sources, 1);
        assert_eq!(s.pairs, 12);
        assert_eq!(s.total_hops, 6 + 8 + 6);
        assert_eq!(s.diameter, 3);
        assert_eq!(s.hop_histogram, vec![0, 6, 4, 2]);
        assert!((s.mean_distance() - 20.0 / 12.0).abs() < 1e-12);
        for threads in 2..=8 {
            assert_eq!(par_path_summary(&csr, &sources, threads), s);
        }
    }

    #[test]
    fn avg_path_length_on_disconnected_graph() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        let csr = CsrGraph::from_graph(&g);
        // Only the 4 adjacent ordered pairs are reachable.
        assert!((par_avg_path_length(&csr, 3) - 1.0).abs() < 1e-12);
        let empty: Graph<(), ()> = Graph::new();
        assert_eq!(par_avg_path_length(&CsrGraph::from_graph(&empty), 2), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Identity: on any connected graph, the total betweenness equals
        /// the total interior length of shortest paths,
        /// Σ_v B(v) = Σ_{u<w} (d(u, w) − 1).
        #[test]
        fn par_betweenness_sums_to_path_interiors(
            n in 2usize..10,
            extra in proptest::collection::vec((0usize..10, 0usize..10), 0..16),
        ) {
            // A spanning path for connectivity, then chords.
            let chords = extra.into_iter().map(|(a, b)| (a % n, b % n)).filter(|(a, b)| a != b);
            let edges = (1..n).map(|i| (i - 1, i)).chain(chords).map(|(a, b)| (a, b, 1.0));
            let g: Graph<(), f64> = Graph::from_edges(n, edges);
            let total_b: f64 = par_betweenness(&CsrGraph::from_graph(&g), 2).iter().sum();
            let mut interior = 0.0;
            for u in 0..n {
                let dist = bellman_ford(&g, NodeId(u as u32), |_, _| 1.0);
                interior += dist[u + 1..].iter().map(|d| d - 1.0).sum::<f64>();
            }
            prop_assert!((total_b - interior).abs() < 1e-6,
                "sum B = {} vs interior length {}", total_b, interior);
        }
    }
}
