//! Cascading-overload simulation on a capacitated network.
//!
//! The failure model behind the HOT-vs-hub comparison: route the
//! offered demand, fail **every** link whose utilization exceeds the
//! threshold in one deterministic batch, re-route the same demand on
//! the survivors, and repeat until a round fails nothing (the fixed
//! point). Each failing round removes at least one link, so the process
//! terminates in at most `|E|` failing rounds; the per-round trajectory
//! (links failed, stranded demand, surviving capacity) is the output.
//!
//! Rerouting runs on [`CsrGraph::edge_masked`] views — node ids and
//! relative adjacency order are preserved, so the batched engine's BFS
//! trees on the masked view are identical to trees on a rebuilt
//! subgraph, and the whole cascade is bit-identical at any thread
//! count. The integration tests keep a per-flow, per-round oracle with
//! its own round loop: with integer demands the two agree exactly,
//! round by round.

use crate::demand::OdDemand;
use crate::traffic::{link_loads, RoutePolicy};
use hot_graph::csr::CsrGraph;

/// Parameters of the cascade loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CascadeConfig {
    /// A link fails when its utilization (load / capacity) strictly
    /// exceeds this (must be positive; 1.0 = fail past rated capacity).
    pub threshold: f64,
    /// Safety cap on rounds (≥ 1). Termination is guaranteed in
    /// `|E| + 1` rounds regardless, so the default never binds.
    pub max_rounds: usize,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            threshold: 1.0,
            max_rounds: usize::MAX,
        }
    }
}

/// One round of the cascade: the routing outcome on the links alive at
/// the start of the round, and the failures it triggered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CascadeRound {
    /// Round index (0 = the initial routing).
    pub round: usize,
    /// Links that failed *this* round.
    pub failed: usize,
    /// Cumulative failed links after this round.
    pub failed_total: usize,
    /// Maximum utilization over the links alive at the start of the
    /// round (measured before this round's failures).
    pub max_util: f64,
    /// Demand routed this round.
    pub routed_traffic: f64,
    /// Demand stranded (no surviving path) this round.
    pub stranded_traffic: f64,
    /// Total capacity of the links still alive *after* this round's
    /// failures.
    pub surviving_capacity: f64,
}

/// Full cascade trajectory to the fixed point.
#[derive(Clone, Debug, PartialEq)]
pub struct CascadeOutcome {
    /// Per-round records, in order. Never empty; the last round is the
    /// fixed point (failed == 0) whenever `converged` is true.
    pub rounds: Vec<CascadeRound>,
    /// Which links survived the whole cascade.
    pub alive: Vec<bool>,
    /// `true` when a round failed nothing (fixed point reached);
    /// `false` only if `max_rounds` cut the loop short.
    pub converged: bool,
}

impl CascadeOutcome {
    /// The last recorded round (the fixed point when converged).
    pub fn final_round(&self) -> &CascadeRound {
        self.rounds.last().expect("at least one round is recorded")
    }

    /// Total links lost across the cascade.
    pub fn failed_links(&self) -> usize {
        self.final_round().failed_total
    }

    /// Fraction of offered demand stranded at the fixed point (0 when
    /// nothing was offered).
    pub fn stranded_fraction(&self) -> f64 {
        let r = self.final_round();
        let offered = r.routed_traffic + r.stranded_traffic;
        if offered > 0.0 {
            r.stranded_traffic / offered
        } else {
            0.0
        }
    }
}

/// Runs the cascade of `demand` over `csr` with per-link `capacities`
/// (indexed by `EdgeId`), using the batched engine
/// ([`RoutePolicy::TreePath`]) for every re-route round. Deterministic
/// and bit-identical at any `threads`.
pub fn cascade(
    csr: &CsrGraph,
    demand: &dyn OdDemand,
    capacities: &[f64],
    cfg: &CascadeConfig,
    threads: usize,
) -> CascadeOutcome {
    assert_eq!(
        capacities.len(),
        csr.edge_count(),
        "one capacity per link required"
    );
    assert!(
        capacities.iter().all(|&c| c > 0.0),
        "capacities must be positive"
    );
    assert!(
        cfg.threshold > 0.0,
        "threshold must be positive, got {}",
        cfg.threshold
    );
    assert!(cfg.max_rounds >= 1, "at least one round required");
    let m = csr.edge_count();
    let mut alive = vec![true; m];
    let mut rounds: Vec<CascadeRound> = Vec::new();
    let mut failed_total = 0usize;
    let mut converged = false;
    loop {
        let (mcsr, map) = csr.edge_masked(&alive);
        let loads = link_loads(&mcsr, demand, RoutePolicy::TreePath, threads);
        let mut max_util = 0.0f64;
        let mut failed = 0usize;
        for (new, old) in map.iter().enumerate() {
            let util = loads.link_load[new] / capacities[old.index()];
            max_util = max_util.max(util);
            if util > cfg.threshold {
                alive[old.index()] = false;
                failed += 1;
            }
        }
        failed_total += failed;
        let surviving_capacity: f64 = alive
            .iter()
            .zip(capacities)
            .filter(|&(&a, _)| a)
            .map(|(_, &c)| c)
            .sum();
        rounds.push(CascadeRound {
            round: rounds.len(),
            failed,
            failed_total,
            max_util,
            routed_traffic: loads.routed_traffic,
            stranded_traffic: loads.unrouted_traffic,
            surviving_capacity,
        });
        if failed == 0 {
            converged = true;
            break;
        }
        if rounds.len() >= cfg.max_rounds {
            break;
        }
    }
    CascadeOutcome {
        rounds,
        alive,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_graph::graph::Graph;

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

    /// Square with one weak link: 0-3 demand takes the tree path over
    /// edge 0 and 2; edge 0's capacity trips, the re-route survives on
    /// the other side.
    fn square() -> (CsrGraph, Dense) {
        let g: Graph<(), ()> =
            Graph::from_edges(4, vec![(0, 1, ()), (0, 2, ()), (1, 3, ()), (2, 3, ())]);
        let mut d = vec![0.0; 16];
        d[3] = 4.0;
        (CsrGraph::from_graph(&g), Dense { n: 4, d })
    }

    #[test]
    fn weak_link_fails_and_reroute_survives() {
        let (csr, dem) = square();
        // Tree path 0-1-3 (edges 0, 2); edge 0 too small, the rest ample.
        let caps = vec![2.0, 10.0, 10.0, 10.0];
        let out = cascade(&csr, &dem, &caps, &CascadeConfig::default(), 2);
        assert!(out.converged);
        assert_eq!(out.rounds.len(), 2);
        assert_eq!(out.rounds[0].failed, 1);
        assert_eq!(out.rounds[0].max_util, 2.0);
        assert!(!out.alive[0]);
        assert_eq!(out.failed_links(), 1);
        // Fixed point: everything re-routes over 0-2-3.
        let last = out.final_round();
        assert_eq!(last.failed, 0);
        assert_eq!(last.routed_traffic, 4.0);
        assert_eq!(last.stranded_traffic, 0.0);
        assert_eq!(last.surviving_capacity, 30.0);
        assert_eq!(out.stranded_fraction(), 0.0);
    }

    #[test]
    fn total_collapse_strands_everything() {
        let (csr, dem) = square();
        // Every link far too small: each re-route overloads the next
        // path until nothing is left.
        let caps = vec![0.5; 4];
        let out = cascade(&csr, &dem, &caps, &CascadeConfig::default(), 1);
        assert!(out.converged);
        assert_eq!(out.failed_links(), 4);
        assert_eq!(out.final_round().routed_traffic, 0.0);
        assert_eq!(out.stranded_fraction(), 1.0);
        assert_eq!(out.final_round().surviving_capacity, 0.0);
        // Surviving capacity never increases.
        for pair in out.rounds.windows(2) {
            assert!(pair[1].surviving_capacity <= pair[0].surviving_capacity);
        }
        // Termination bound: at most |E| failing rounds + the fixed point.
        assert!(out.rounds.len() <= csr.edge_count() + 1);
    }

    #[test]
    fn ample_capacity_is_a_one_round_fixed_point() {
        let (csr, dem) = square();
        let out = cascade(&csr, &dem, &vec![100.0; 4], &CascadeConfig::default(), 4);
        assert!(out.converged);
        assert_eq!(out.rounds.len(), 1);
        assert_eq!(out.failed_links(), 0);
        assert!(out.alive.iter().all(|&a| a));
    }

    #[test]
    fn max_rounds_cuts_the_loop() {
        let (csr, dem) = square();
        let cfg = CascadeConfig {
            threshold: 1.0,
            max_rounds: 1,
        };
        let out = cascade(&csr, &dem, &vec![0.5; 4], &cfg, 1);
        assert!(!out.converged);
        assert_eq!(out.rounds.len(), 1);
    }

    #[test]
    fn empty_graph_converges_trivially() {
        let g: Graph<(), ()> = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        let dem = Dense { n: 0, d: vec![] };
        let out = cascade(&csr, &dem, &[], &CascadeConfig::default(), 2);
        assert!(out.converged);
        assert_eq!(out.rounds.len(), 1);
        assert_eq!(out.final_round().max_util, 0.0);
    }
}
