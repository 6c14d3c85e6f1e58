//! Spectral estimates via power iteration: dominant adjacency eigenvalues
//! and the Laplacian's algebraic connectivity.
//!
//! Vukadinović et al. (cited as \[31\] in the paper) proposed spectral
//! analysis for distinguishing topology generators; experiment E6 reports
//! the top adjacency eigenvalues and the algebraic connectivity as part of
//! the metric matrix. Both solves iterate on a sparse row form of the
//! shifted matrix, so each step costs O(n + m) and memory stays linear.
//! [`SpectralSolve`] splits them into a prepare step that reads the graph
//! and an allocation-free solve that may run on another thread.

use crate::graph::Graph;

/// Maximum power-iteration steps before giving up on convergence.
const MAX_ITERS: usize = 10_000;
/// Convergence tolerance on the eigenvalue estimate.
const TOL: f64 = 1e-10;

/// A symmetric matrix `A + diag(d)` in sparse row form, where `A` counts
/// the edges between each node pair (parallel edges merge into one
/// weight). Row `i` holds its `(column, value)` pairs in ascending column
/// order, with `d[i]` at column `i`.
///
/// Summing a row's products in that order gives bit-for-bit the dense
/// row sum: every skipped dense entry is `0.0`, and adding `±0.0` to a
/// running sum changes at most the sign of a zero, which never reaches
/// an eigenvalue estimate.
struct SparseRows {
    /// Row `i` spans `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl SparseRows {
    /// Builds `A + diag(d)` for `g`, with `diag(i)` the shift on row `i`.
    fn shifted_adjacency<N, E>(g: &Graph<N, E>, diag: impl Fn(usize) -> f64) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(2 * g.edge_count() + n);
        let mut cols = Vec::new();
        offsets.push(0);
        for v in g.node_ids() {
            let i = v.index();
            cols.clear();
            cols.extend(g.neighbors(v).map(|(u, _)| u.index()));
            // `Graph` rejects self-loops, so column `i` holds only the shift.
            cols.push(i);
            cols.sort_unstable();
            let row_start = entries.len();
            for &j in &cols {
                match entries[row_start..].last_mut() {
                    Some((last, w)) if *last == j => *w += 1.0,
                    _ if j == i => entries.push((i, diag(i))),
                    _ => entries.push((j, 1.0)),
                }
            }
            offsets.push(entries.len());
        }
        SparseRows { offsets, entries }
    }

    /// `out = M v`.
    fn matvec(&self, v: &[f64], out: &mut [f64]) {
        for (o, span) in out.iter_mut().zip(self.offsets.windows(2)) {
            *o = self.entries[span[0]..span[1]]
                .iter()
                .map(|&(j, a)| a * v[j])
                .sum();
        }
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Removes the components of `v` along each (unit) vector in `basis`.
fn deflate(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let d = dot(v, b);
        for (x, y) in v.iter_mut().zip(b) {
            *x -= d * y;
        }
    }
}

/// Power iteration for the largest-magnitude eigenvalue of the symmetric
/// matrix applied by `matvec`, orthogonal to the `deflated` unit
/// eigenvectors.
///
/// `v` and `next` are the caller's length-`n` buffers; on return `v`
/// holds the eigenvector. Allocates nothing. A deterministic non-uniform
/// start vector avoids getting stuck orthogonal to the dominant
/// eigenvector on symmetric graphs.
fn power_iteration(
    matvec: impl Fn(&[f64], &mut [f64]),
    deflated: &[Vec<f64>],
    v: &mut Vec<f64>,
    next: &mut Vec<f64>,
) -> f64 {
    for (i, x) in v.iter_mut().enumerate() {
        *x = 1.0 + (i as f64 * 0.7183).sin() * 0.5;
    }
    deflate(v, deflated);
    normalize(v);
    let mut lambda = 0.0;
    for _ in 0..MAX_ITERS {
        matvec(v, next);
        deflate(next, deflated);
        let new_lambda = dot(next, v);
        normalize(next);
        std::mem::swap(v, next);
        if (new_lambda - lambda).abs() < TOL * (1.0 + new_lambda.abs()) {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }
    lambda
}

/// The largest eigenvalues of one shifted sparse matrix, found one at a
/// time by power iteration, each deflated against the known eigenvectors
/// and every eigenvector found before it; holds every buffer it writes.
struct Deflated {
    rows: SparseRows,
    /// Unit vectors each iterate is kept orthogonal to, in deflation
    /// order: `known` given eigenvectors, then one slot per eigenvalue
    /// solved for, which receives that eigenvalue's eigenvector.
    basis: Vec<Vec<f64>>,
    known: usize,
    next: Vec<f64>,
    /// The eigenvalue of each slot, largest first, once solved.
    values: Vec<f64>,
}

impl Deflated {
    fn new(rows: SparseRows, mut basis: Vec<Vec<f64>>, k: usize) -> Self {
        let n = rows.offsets.len() - 1;
        let known = basis.len();
        basis.resize(known + k, vec![0.0; n]);
        Deflated {
            rows,
            basis,
            known,
            next: vec![0.0; n],
            values: vec![0.0; k],
        }
    }

    /// Runs the slots' power iterations in order; allocates nothing.
    fn solve(&mut self) {
        let rows = &self.rows;
        for (slot, value) in self.values.iter_mut().enumerate() {
            let (deflated, rest) = self.basis.split_at_mut(self.known + slot);
            *value = power_iteration(
                |v, out| rows.matvec(v, out),
                deflated,
                &mut rest[0],
                &mut self.next,
            );
        }
    }
}

/// The spectral solves of one graph, ready to run: the deflated top-`k`
/// adjacency solve and the Fiedler solve, each with its shifted sparse
/// matrix and every power-iteration buffer.
///
/// [`prepare`](Self::prepare) reads the graph on the caller's thread.
/// [`solve`](Self::solve) reads and writes only this struct and
/// allocates nothing, so a caller may move it (it is `Send`, whatever the
/// graph's payloads) to another thread and run it there; the results are
/// the same bits wherever it runs. The free functions below run through
/// the same solve.
pub struct SpectralSolve {
    /// The shift `c` of `A + cI`, and its solve, when `k > 0` and `n > 0`.
    adjacency: Option<(f64, Deflated)>,
    /// The shift `c` of `cI − L`, and its solve, when asked for and `n ≥ 2`.
    fiedler: Option<(f64, Deflated)>,
}

impl SpectralSolve {
    /// Prepares the `k` algebraically largest adjacency eigenvalues (at
    /// most `n`) and, when `fiedler`, the algebraic connectivity.
    ///
    /// The adjacency matrix (parallel edges sum) is shifted by `cI` (`c`
    /// = max degree + 1) so that the algebraically largest eigenvalue is
    /// also the largest in magnitude — without the shift, power iteration
    /// oscillates on bipartite graphs (e.g. stars and trees, whose
    /// spectra are symmetric about 0). The Fiedler solve iterates on
    /// `cI − L` (with `c` the Gershgorin bound), deflated against the
    /// constant vector.
    pub fn prepare<N, E>(g: &Graph<N, E>, k: usize, fiedler: bool) -> Self {
        let n = g.node_count();
        let degree: Vec<f64> = g.degree_sequence().into_iter().map(f64::from).collect();
        let max_degree = degree.iter().copied().fold(0.0, f64::max);
        let k = k.min(n);
        let adjacency = (k > 0).then(|| {
            let c = max_degree + 1.0;
            let rows = SparseRows::shifted_adjacency(g, |_| c);
            (c, Deflated::new(rows, Vec::new(), k))
        });
        let fiedler = (fiedler && n >= 2).then(|| {
            // Gershgorin: all Laplacian eigenvalues lie in [0, 2*max_degree].
            let c = 2.0 * max_degree + 1.0;
            // Shifted matrix M = cI - L = A + diag(c - deg) has eigenvalues
            // c - mu, so the smallest mu becomes the largest. Deflate the
            // known eigenvector 1/sqrt(n) (mu = 0).
            let rows = SparseRows::shifted_adjacency(g, |i| c - degree[i]);
            let ones = vec![1.0 / (n as f64).sqrt(); n];
            (c, Deflated::new(rows, vec![ones], 1))
        });
        SpectralSolve { adjacency, fiedler }
    }

    /// Runs the adjacency solve, then the Fiedler solve. Allocates
    /// nothing.
    pub fn solve(&mut self) {
        for (_, solve) in self.adjacency.iter_mut().chain(&mut self.fiedler) {
            solve.solve();
        }
    }

    /// The prepared top adjacency eigenvalues, descending, once solved.
    pub fn top_adjacency_eigenvalues(&self) -> impl Iterator<Item = f64> + '_ {
        self.adjacency
            .iter()
            .flat_map(|(c, solve)| solve.values.iter().map(move |lambda| lambda - c))
    }

    /// The algebraic connectivity once solved; 0 when the Fiedler solve
    /// was not prepared or the graph has fewer than 2 nodes.
    pub fn algebraic_connectivity(&self) -> f64 {
        self.fiedler
            .as_ref()
            .map_or(0.0, |(c, solve)| (c - solve.values[0]).max(0.0))
    }
}

/// The `k` algebraically largest eigenvalues of the adjacency matrix
/// (parallel edges sum), descending, via shifted power iteration with
/// deflation (see [`SpectralSolve::prepare`]).
///
/// Only the leading eigenvalues are meaningful for generator comparison;
/// `k` beyond ~5 accumulates deflation error.
pub fn top_adjacency_eigenvalues<N, E>(g: &Graph<N, E>, k: usize) -> Vec<f64> {
    let mut solve = SpectralSolve::prepare(g, k, false);
    solve.solve();
    solve.top_adjacency_eigenvalues().collect()
}

/// Spectral radius (largest adjacency eigenvalue); 0 for the empty graph.
pub fn spectral_radius<N, E>(g: &Graph<N, E>) -> f64 {
    top_adjacency_eigenvalues(g, 1)
        .first()
        .copied()
        .unwrap_or(0.0)
}

/// Algebraic connectivity: the second-smallest eigenvalue of the
/// combinatorial Laplacian `L = D − A` (Fiedler value).
///
/// Computed by power iteration on `cI − L` (with `c` = Gershgorin bound)
/// deflated against the constant vector. Returns 0 for graphs with fewer
/// than 2 nodes; values near 0 indicate disconnection or bottlenecks.
pub fn algebraic_connectivity<N, E>(g: &Graph<N, E>) -> f64 {
    let mut solve = SpectralSolve::prepare(g, 0, true);
    solve.solve();
    solve.algebraic_connectivity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;

    fn complete(n: usize) -> Graph<(), ()> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j, ()));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn complete_graph_spectral_radius() {
        // K_n has spectral radius n-1.
        let g = complete(5);
        assert!((spectral_radius(&g) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn star_spectral_radius() {
        // Star with k leaves has spectral radius sqrt(k).
        let g: Graph<(), ()> =
            Graph::from_edges(10, (1..10).map(|i| (0, i, ())).collect::<Vec<_>>());
        assert!((spectral_radius(&g) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_algebraic_connectivity() {
        // K_n Laplacian eigenvalues: 0 and n (multiplicity n-1).
        let g = complete(4);
        assert!((algebraic_connectivity(&g) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn path_algebraic_connectivity() {
        // P_n: lambda_2 = 2(1 - cos(pi/n)) = 4 sin^2(pi/(2n)).
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (1, 2, ()), (2, 3, ())]);
        let expect = 2.0 * (1.0 - (std::f64::consts::PI / 4.0).cos());
        assert!((algebraic_connectivity(&g) - expect).abs() < 1e-6);
    }

    #[test]
    fn disconnected_has_zero_connectivity() {
        let g: Graph<(), ()> = Graph::from_edges(4, vec![(0, 1, ()), (2, 3, ())]);
        assert!(algebraic_connectivity(&g).abs() < 1e-6);
    }

    #[test]
    fn top_eigenvalues_of_complete_graph() {
        // K_4: eigenvalues 3, -1, -1, -1.
        let g = complete(4);
        let ev = top_adjacency_eigenvalues(&g, 2);
        assert!((ev[0] - 3.0).abs() < 1e-6);
        assert!((ev[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_graph_degenerate() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(spectral_radius(&g), 0.0);
        assert_eq!(algebraic_connectivity(&g), 0.0);
        assert!(top_adjacency_eigenvalues(&g, 3).is_empty());
    }

    #[test]
    fn sparse_rows_merge_parallel_edges_around_the_shift() {
        let g: Graph<(), ()> = Graph::from_edges(3, vec![(0, 2, ()), (2, 0, ()), (1, 2, ())]);
        let m = SparseRows::shifted_adjacency(&g, |i| 10.0 + i as f64);
        assert_eq!(m.offsets, vec![0, 2, 4, 7]);
        assert_eq!(
            m.entries,
            vec![
                (0, 10.0),
                (2, 2.0),
                (1, 11.0),
                (2, 1.0),
                (0, 2.0),
                (1, 1.0),
                (2, 12.0)
            ]
        );
    }

    // ---- Dense reference: the O(n²)-per-step oracle the sparse rows
    // must reproduce bit for bit.

    fn dense_adjacency(g: &Graph<(), ()>) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut m = vec![vec![0.0; n]; n];
        for (_, a, b, _) in g.edges() {
            m[a.index()][b.index()] += 1.0;
            m[b.index()][a.index()] += 1.0;
        }
        m
    }

    fn dense_laplacian(g: &Graph<(), ()>) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut m = vec![vec![0.0; n]; n];
        for (_, a, b, _) in g.edges() {
            m[a.index()][b.index()] -= 1.0;
            m[b.index()][a.index()] -= 1.0;
            m[a.index()][a.index()] += 1.0;
            m[b.index()][b.index()] += 1.0;
        }
        m
    }

    fn dense_matvec(m: &[Vec<f64>], v: &[f64], out: &mut [f64]) {
        for (i, row) in m.iter().enumerate() {
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    fn dense_top_adjacency_eigenvalues(g: &Graph<(), ()>, k: usize) -> Vec<f64> {
        let mut m = dense_adjacency(g);
        let n = m.len();
        if n == 0 {
            return Vec::new();
        }
        let c = g.degree_sequence().into_iter().max().unwrap_or(0) as f64 + 1.0;
        for (i, row) in m.iter_mut().enumerate() {
            row[i] += c;
        }
        let mut values = Vec::new();
        let mut vectors: Vec<Vec<f64>> = Vec::new();
        let mut next = vec![0.0; n];
        for _ in 0..k.min(n) {
            let mut v = vec![0.0; n];
            let matvec = |v: &[f64], out: &mut [f64]| dense_matvec(&m, v, out);
            let lambda = power_iteration(matvec, &vectors, &mut v, &mut next);
            values.push(lambda - c);
            vectors.push(v);
        }
        values
    }

    /// The dense Fiedler value and the number of power-iteration steps
    /// it took.
    fn dense_algebraic_connectivity(g: &Graph<(), ()>) -> (f64, usize) {
        let n = g.node_count();
        if n < 2 {
            return (0.0, 0);
        }
        let l = dense_laplacian(g);
        let c = 2.0 * l.iter().enumerate().map(|(i, r)| r[i]).fold(0.0, f64::max) + 1.0;
        let m: Vec<Vec<f64>> = l
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, &x)| if i == j { c - x } else { -x })
                    .collect()
            })
            .collect();
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let steps = std::cell::Cell::new(0);
        let matvec = |v: &[f64], out: &mut [f64]| {
            steps.set(steps.get() + 1);
            dense_matvec(&m, v, out)
        };
        let (mut v, mut next) = (vec![0.0; n], vec![0.0; n]);
        let lambda = power_iteration(matvec, &[ones], &mut v, &mut next);
        ((c - lambda).max(0.0), steps.get())
    }

    /// Top-2 adjacency eigenvalues and the Fiedler value agree with the
    /// dense reference to the bit, whether solved alone or together.
    /// Returns the Fiedler solve's step count.
    fn matches_dense(g: &Graph<(), ()>) -> Result<usize, String> {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let top = bits(dense_top_adjacency_eigenvalues(g, 2));
        let (fiedler, steps) = dense_algebraic_connectivity(g);
        prop_assert_eq!(&bits(top_adjacency_eigenvalues(g, 2)), &top);
        prop_assert_eq!(algebraic_connectivity(g).to_bits(), fiedler.to_bits());
        let mut both = SpectralSolve::prepare(g, 2, true);
        both.solve();
        prop_assert_eq!(&bits(both.top_adjacency_eigenvalues().collect()), &top);
        prop_assert_eq!(both.algebraic_connectivity().to_bits(), fiedler.to_bits());
        Ok(steps)
    }

    /// Counts each thread's allocator calls, so a test can check that a
    /// solve makes none.
    struct CountingAlloc;

    thread_local! {
        static ALLOC_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn alloc_calls() -> usize {
        ALLOC_CALLS.with(|c| c.get())
    }

    fn count_call() {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: every call goes unchanged to `System`, which upholds the
    // `GlobalAlloc` contract. The counter is a const-initialised
    // thread-local `Cell` with no destructor, so touching it neither
    // allocates nor re-enters the allocator.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            count_call();
            std::alloc::System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            count_call();
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn prepared_solve_is_send_and_allocates_nothing() {
        fn assert_send<T: Send>(_: &T) {}
        for g in [broom(), ba(200, 2, 7), glp(200, 2, 7)] {
            let mut solve = SpectralSolve::prepare(&g, 2, true);
            assert_send(&solve);
            let before = alloc_calls();
            solve.solve();
            assert_eq!(alloc_calls(), before, "solve touched the allocator");
        }
    }

    /// splitmix64: a seedable stream for the test generators below.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, k: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % k as u64) as usize
        }
    }

    fn add_edge(g: &mut Graph<(), ()>, ends: &mut Vec<u32>, a: usize, b: usize) {
        g.add_edge(
            crate::graph::NodeId(a as u32),
            crate::graph::NodeId(b as u32),
            (),
        );
        ends.extend([a as u32, b as u32]);
    }

    /// Barabási–Albert: each arrival links to `m` distinct targets drawn
    /// by degree from a seed clique of `m + 1` nodes.
    fn ba(n: usize, m: usize, seed: u64) -> Graph<(), ()> {
        let mut rng = Stream(seed);
        let mut g = complete(m + 1);
        let mut ends: Vec<u32> = g.edges().flat_map(|(_, a, b, _)| [a.0, b.0]).collect();
        for v in m + 1..n {
            g.add_node(());
            let mut targets: Vec<usize> = Vec::new();
            while targets.len() < m {
                let t = ends[rng.below(ends.len())] as usize;
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                add_edge(&mut g, &mut ends, v, t);
            }
        }
        g
    }

    /// GLP-style growth from a path: each event either adds a node with
    /// `m` preferential links or adds `m` preferential links between
    /// existing nodes, which may repeat a pair (a multigraph).
    fn glp(n: usize, m: usize, seed: u64) -> Graph<(), ()> {
        let mut rng = Stream(seed);
        let mut g: Graph<(), ()> = Graph::from_edges(2, vec![(0, 1, ())]);
        let mut ends = vec![0u32, 1];
        while g.node_count() < n {
            let grow = rng.below(2) == 0;
            let a = if grow {
                g.add_node(()).index()
            } else {
                ends[rng.below(ends.len())] as usize
            };
            for _ in 0..m {
                let b = ends[rng.below(ends.len())] as usize;
                if a != b {
                    add_edge(&mut g, &mut ends, a, b);
                }
            }
        }
        g
    }

    /// A broom (a 30-node path with 20 leaves on one end) runs the
    /// Fiedler solve to the step cap: its hub inflates the Gershgorin
    /// shift, so the path's small Laplacian eigenvalues barely separate.
    fn broom() -> Graph<(), ()> {
        let mut edges: Vec<(usize, usize, ())> = (1..30).map(|v| (v - 1, v, ())).collect();
        edges.extend((30..50).map(|v| (0, v, ())));
        Graph::from_edges(50, edges)
    }

    /// The sparse sums must track the dense ones through all 10k steps.
    #[test]
    fn sparse_matches_dense_at_the_step_cap() {
        assert_eq!(matches_dense(&broom()).unwrap(), MAX_ITERS);
    }

    #[test]
    fn sparse_matches_dense_on_complete_graphs() {
        for n in 0..12 {
            matches_dense(&complete(n)).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Parallel edges merge into one weight; small `n` makes them common.
        #[test]
        fn sparse_matches_dense_on_multigraphs(
            n in 2usize..12,
            pairs in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
        ) {
            let edges = pairs
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a, b, ()));
            matches_dense(&Graph::from_edges(n, edges))?;
        }

        /// Two components plus isolated nodes: the Fiedler value is 0
        /// and the deflated adjacency solves see repeated eigenvalues.
        #[test]
        fn sparse_matches_dense_on_disconnected_graphs(
            n in 3usize..20,
            pairs in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        ) {
            let s = n / 3;
            let edges = pairs
                .into_iter()
                .map(|(a, b)| {
                    let base = if (a + b) % 2 == 0 { 0 } else { s };
                    (base + a % s.max(1), base + b % s.max(1))
                })
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a, b, ()));
            matches_dense(&Graph::from_edges(n, edges))?;
        }

        /// Stars, paths and random trees: bipartite spectra symmetric
        /// about 0, where the unshifted adjacency solve would oscillate.
        #[test]
        fn sparse_matches_dense_on_trees(
            kind in 0usize..3,
            n in 2usize..24,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Stream(seed);
            let edges = (1..n).map(|v| {
                let parent = match kind {
                    0 => 0,
                    1 => v - 1,
                    _ => rng.below(v),
                };
                (parent, v, ())
            });
            let g = Graph::from_edges(n, edges.collect::<Vec<_>>());
            matches_dense(&g)?;
        }

        #[test]
        fn sparse_matches_dense_on_ba_and_glp(
            n in 4usize..24,
            m in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            matches_dense(&ba(n, m, seed))?;
            matches_dense(&glp(n, m, seed))?;
        }
    }
}
