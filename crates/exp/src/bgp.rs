//! Valley-free policy routing as E13 runs it (test-only module): the
//! `hot-bgp` propagation kernel and [`inflation_stats`] on hand-built AS
//! graphs whose distances and ratios are worked out by hand.

use crate::scenarios::e13::inflation_stats;
use hot_bgp::{AsClass, AsTopology};

/// The four E13 ratios of the topology given by its relationships:
/// `(provider, customer)` pairs and peer pairs.
fn ratios(n: usize, p2c: &[(u32, u32)], peers: &[(u32, u32)], class: Vec<AsClass>) -> [f64; 4] {
    let topo = AsTopology::from_relationships(n, p2c, peers, class).unwrap();
    inflation_stats(&topo).map(|(_, value)| value)
}

mod tests {
    use super::*;
    use hot_bgp::UNREACHED;
    use AsClass::*;

    /// Hand-built network: 0 and 1 are tier-1 peers; 0 provides 2, 1
    /// provides 3, 2 provides 4.
    fn toy(peered: bool) -> AsTopology {
        let peers: &[(u32, u32)] = if peered { &[(0, 1)] } else { &[] };
        let class = vec![Tier1, Tier1, Tier2, Tier2, Stub];
        AsTopology::from_relationships(5, &[(0, 2), (1, 3), (2, 4)], peers, class).unwrap()
    }

    #[test]
    fn valley_free_basic_paths() {
        let from4 = toy(true).propagate(4).dist;
        // 4 -> 2 -> 0 -> peer 1 -> 3: length 4, valley-free.
        assert_eq!(from4, vec![2, 3, 1, 4, 0]);
    }

    #[test]
    fn valley_blocks_peer_to_peer_transit() {
        // Without the tier-1 peer link the stubs under different tier-1s
        // cannot reach each other, under policy or otherwise.
        let net = toy(false);
        assert_eq!(net.propagate(2).dist[3], UNREACHED);
        assert_eq!(net.shortest(2)[3], UNREACHED);
    }

    #[test]
    fn policy_never_beats_shortest() {
        let net = toy(true);
        for src in 0..net.len() {
            let vf = net.propagate(src).dist;
            let sp = net.shortest(src);
            for dst in 0..net.len() {
                if vf[dst] != UNREACHED {
                    assert!(vf[dst] >= sp[dst], "{} -> {}", src, dst);
                }
            }
        }
    }

    /// Regression: a source outside the topology reaches nothing,
    /// including any source on the empty topology.
    #[test]
    fn out_of_range_source_reaches_nothing() {
        let net = toy(true);
        assert_eq!(net.propagate(99).dist, vec![UNREACHED; net.len()]);
        assert_eq!(net.shortest(99), vec![UNREACHED; net.len()]);
        let empty = AsTopology::from_relationships(0, &[], &[], vec![]).unwrap();
        assert!(empty.propagate(0).dist.is_empty());
        assert!(empty.shortest(0).is_empty());
    }

    #[test]
    fn inflation_on_toy() {
        // A tree with a peered top: every valley-free path is a shortest
        // path.
        let class = vec![Tier1, Tier1, Tier2, Tier2, Stub];
        let got = ratios(5, &[(0, 2), (1, 3), (2, 4)], &[(0, 1)], class.clone());
        assert_eq!(got, [1.0, 1.0, 0.0, 1.0]);
        // Stub 4 buying transit from both 2 and 3 makes the raw 2-hop
        // shortcut 2 → 4 → 3 a valley, so 2 ↔ 3 takes the 3-hop route
        // over the peered top: ratio 1.5 on 2 of the 20 pairs.
        let got = ratios(5, &[(0, 2), (1, 3), (2, 4), (3, 4)], &[(0, 1)], class);
        assert_eq!(got, [1.0, (18.0 + 2.0 * 1.5) / 20.0, 2.0 / 20.0, 1.5]);
        // A peer chain allows one peer crossing: the two end-to-end
        // pairs are denied outright, not inflated.
        let got = ratios(3, &[], &[(0, 1), (1, 2)], vec![Tier1; 3]);
        assert_eq!(got, [4.0 / 6.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn empty_network() {
        // Nothing to compare: the neutral ratios.
        assert_eq!(ratios(0, &[], &[], vec![]), [1.0, 1.0, 0.0, 1.0]);
    }
}
