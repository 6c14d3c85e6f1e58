//! Slow, direct reference implementations the engines are tested
//! against: [`infer_map`] (one Dijkstra per vantage, one edge path per
//! destination) for `hot_sim::probe`, and [`cascade_naive`] (one BFS
//! per source per round, one tree-path walk per flow) for
//! `hot_sim::cascade`. Neither shares a loop with the engine it
//! checks, so a differential test also covers the engine's bookkeeping.

use hotgen::graph::csr::CsrGraph;
use hotgen::graph::graph::{EdgeId, Graph, NodeId};
use hotgen::graph::shortest_path::dijkstra;
use hotgen::sim::cascade::{CascadeConfig, CascadeOutcome, CascadeRound};
use hotgen::sim::demand::OdDemand;
use hotgen::sim::traceroute::InferredMap;

/// Runs a measurement campaign: shortest paths (under `weight`) from each
/// vantage to every destination (all nodes when `destinations` is
/// `None`); observed = union of path links. Unreachable destinations
/// and out-of-range vantage or destination ids are skipped.
pub fn infer_map<N, E>(
    truth: &Graph<N, E>,
    vantages: &[NodeId],
    destinations: Option<&[NodeId]>,
    mut weight: impl FnMut(&E) -> f64,
) -> InferredMap {
    let n = truth.node_count();
    let mut node_seen = vec![false; n];
    let mut edge_seen = vec![false; truth.edge_count()];
    let all: Vec<NodeId> = truth.node_ids().collect();
    let dests = destinations.unwrap_or(&all);
    for &v in vantages {
        if v.index() >= n {
            continue;
        }
        node_seen[v.index()] = true;
        let sp = dijkstra(truth, v, |_, w| weight(w));
        for &dst in dests {
            if dst.index() >= n {
                continue;
            }
            if let Some(path) = sp.edge_path_to(dst) {
                node_seen[dst.index()] = true;
                let mut cur = dst;
                for e in path.iter().rev() {
                    edge_seen[e.index()] = true;
                    cur = truth.opposite(*e, cur);
                    node_seen[cur.index()] = true;
                }
            }
        }
    }
    let fraction = |seen: &[bool]| {
        if seen.is_empty() {
            0.0
        } else {
            seen.iter().filter(|&&s| s).count() as f64 / seen.len() as f64
        }
    };
    InferredMap {
        node_coverage: fraction(&node_seen),
        edge_coverage: fraction(&edge_seen),
        node_seen,
        edge_seen,
    }
}

/// First-discovery BFS parents from `src` over the links with
/// `alive[e]`, scanning neighbors in adjacency order: `parent[v]` is
/// the (node, edge) `v` was reached through, `None` for `src` and for
/// unreachable nodes.
fn bfs_parents(csr: &CsrGraph, alive: &[bool], src: usize) -> Vec<Option<(NodeId, EdgeId)>> {
    let mut parent = vec![None; csr.node_count()];
    let mut seen = vec![false; csr.node_count()];
    let mut queue = vec![NodeId(src as u32)];
    seen[src] = true;
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for (&u, &e) in csr.neighbors(v).iter().zip(csr.incident_edges(v)) {
            if alive[e.index()] && !seen[u.index()] {
                seen[u.index()] = true;
                parent[u.index()] = Some((v, e));
                queue.push(u);
            }
        }
    }
    parent
}

/// Runs the cascade of `demand` over `csr` with per-link `capacities`:
/// each round routes every positive off-diagonal flow along its BFS
/// tree path over the surviving links, then fails every link whose
/// utilization exceeds `cfg.threshold`, until a round fails nothing or
/// `cfg.max_rounds` rounds have run.
pub fn cascade_naive(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    capacities: &[f64],
    cfg: &CascadeConfig,
) -> CascadeOutcome {
    let n = csr.node_count();
    let m = csr.edge_count();
    assert_eq!(capacities.len(), m, "one capacity per link required");
    assert_eq!(demand.node_count(), n, "demand sized for a different graph");
    // The offered flows never change between rounds; only the surviving
    // topology does.
    let mut rows: Vec<(usize, Vec<(u32, f64)>)> = Vec::new();
    for s in 0..n {
        let mut row = Vec::new();
        demand.gather_row(s, &mut row);
        row.retain(|&(dst, _)| dst as usize != s);
        if !row.is_empty() {
            rows.push((s, row));
        }
    }
    let mut alive = vec![true; m];
    let mut rounds: Vec<CascadeRound> = Vec::new();
    loop {
        let mut load = vec![0.0; m];
        let mut routed_traffic = 0.0;
        let mut stranded_traffic = 0.0;
        for (s, row) in &rows {
            let parent = bfs_parents(csr, &alive, *s);
            for &(dst, amount) in row {
                let mut cur = NodeId(dst);
                if parent[cur.index()].is_none() {
                    stranded_traffic += amount;
                    continue;
                }
                while let Some((p, e)) = parent[cur.index()] {
                    load[e.index()] += amount;
                    cur = p;
                }
                routed_traffic += amount;
            }
        }
        let live: Vec<usize> = (0..m).filter(|&e| alive[e]).collect();
        let util = |e: usize| load[e] / capacities[e];
        let max_util = live.iter().map(|&e| util(e)).fold(0.0, f64::max);
        let failing: Vec<usize> = live
            .into_iter()
            .filter(|&e| util(e) > cfg.threshold)
            .collect();
        for &e in &failing {
            alive[e] = false;
        }
        let failed_before = rounds.last().map_or(0, |r| r.failed_total);
        rounds.push(CascadeRound {
            round: rounds.len(),
            failed: failing.len(),
            failed_total: failed_before + failing.len(),
            max_util,
            routed_traffic,
            stranded_traffic,
            surviving_capacity: (0..m).filter(|&e| alive[e]).map(|e| capacities[e]).sum(),
        });
        if failing.is_empty() || rounds.len() >= cfg.max_rounds {
            break;
        }
    }
    CascadeOutcome {
        converged: rounds.last().expect("one round ran").failed == 0,
        rounds,
        alive,
    }
}
