//! Deterministic per-run seed derivation.
//!
//! Every Monte Carlo trial draws its perturbations from a generator
//! seeded purely by `(master_seed, run_index)`. The derivation is the
//! workspace-wide convention (it predates this crate in
//! `vls-variation` and the table flows, which now call through here):
//! XOR the master seed with the index spread by the 64-bit golden
//! ratio, then expand through SplitMix64 inside
//! [`vls_num::rng::Xoshiro256pp::seed_from_u64`]. Two properties matter:
//!
//! * **schedule independence** — the seed depends only on the index,
//!   so any sharding of the ensemble reproduces the same streams;
//! * **decorrelation** — the golden-ratio multiply separates adjacent
//!   indices by ~2⁶³ in seed space before SplitMix64 mixes them, so
//!   neighbouring trials share no visible stream structure.

/// The 64-bit golden-ratio constant used to spread run indices.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of run `index` within the ensemble started from
/// `master_seed`. A pure function: bit-identical for any worker count
/// or execution order.
pub fn derive_seed(master_seed: u64, index: u64) -> u64 {
    master_seed ^ index.wrapping_mul(GOLDEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_num::rng::{Rng, Xoshiro256pp};

    #[test]
    fn seeds_are_pure_functions_of_master_and_index() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        // Index 0 is the master seed itself — the historical scheme.
        assert_eq!(derive_seed(42, 0), 42);
    }

    #[test]
    fn matches_the_historical_inline_derivation() {
        // `vls-variation` and the table flows used this exact
        // expression before the runner centralized it; golden Monte
        // Carlo statistics depend on it staying put.
        for (seed, k) in [(0x55_7653u64, 3u64), (1, 999), (u64::MAX, 17)] {
            assert_eq!(
                derive_seed(seed, k),
                seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            );
        }
    }

    #[test]
    fn adjacent_runs_get_uncorrelated_streams() {
        let mut a = Xoshiro256pp::seed_from_u64(derive_seed(9, 0));
        let mut b = Xoshiro256pp::seed_from_u64(derive_seed(9, 1));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}
