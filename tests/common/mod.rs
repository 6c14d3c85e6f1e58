//! Helpers shared by the traffic test binaries. The probe and cascade
//! references are in `oracle.rs`, which binaries mount with `#[path]`
//! as `pub mod oracle`: `pub`, so a reference a binary does not call is
//! not dead code there.

use hotgen::sim::demand::OdDemand;

/// Restricts any demand to sources below `max_src` (all destinations):
/// the source-band workload the traffic suites route, small enough for
/// debug builds while the paths still traverse the full topology.
pub struct Banded<D> {
    pub inner: D,
    pub max_src: usize,
}

impl<D: OdDemand> OdDemand for Banded<D> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn demand(&self, src: usize, dst: usize) -> f64 {
        if src < self.max_src {
            self.inner.demand(src, dst)
        } else {
            0.0
        }
    }
}
