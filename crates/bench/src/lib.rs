//! # hot-bench — the criterion benches
//!
//! The bench targets under `benches/` time the graph kernels, the
//! generators, the metric battery, and the simulation engines (e.g.
//! `cargo bench -p hot-bench --bench graph_benches`); this library
//! re-exports the shared fixtures from `hot_exp::fixtures` for them.
//! The experiments run through `expctl`, e.g.
//! `cargo run --release -p hot-exp --bin expctl -- --run e3 --scale full`.

pub use hot_exp::fixtures::{standard_geography, SEED};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geography_reexport_is_deterministic() {
        let (c1, t1) = standard_geography(20, SEED);
        let (c2, t2) = standard_geography(20, SEED);
        assert_eq!(c1.cities, c2.cities);
        assert_eq!(t1.demand(0, 1), t2.demand(0, 1));
    }
}
