//! # ants-rng — deterministic randomness substrate
//!
//! The ANTS plane-search model (Lenzen, Lynch, Newport, Radeva; PODC 2014)
//! equips every agent with biased coins whose probabilities are bounded from
//! below by `1/2^ℓ`. The parameter `ℓ` enters the paper's *selection
//! complexity* metric `χ(A) = b + log ℓ`, so the randomness layer of a
//! faithful reproduction has to make probability *resolution* a first-class,
//! auditable quantity rather than an `f64` afterthought.
//!
//! This crate provides:
//!
//! * [`SplitMix64`] and [`Xoshiro256PlusPlus`] — fast, seedable,
//!   from-scratch PRNGs (no external dependencies) with stream splitting for
//!   deterministic per-agent randomness;
//! * [`DyadicProb`] — exact probabilities of the form `a/2^m`, the only
//!   probabilities a finite-state coin-flipping agent can realise;
//! * [`BiasedCoin`] — the paper's coin `C_p` ("shows **tails** with
//!   probability `p`");
//! * [`CompositeCoin`] — Algorithm 2 of the paper: simulating `C_{1/2^{kℓ}}`
//!   from `k` flips of `C_{1/2^ℓ}` using `⌈log k⌉` bits of loop counter;
//! * samplers ([`Geometric`]) and statistical helpers ([`stats`]) used by the
//!   test-suite and the experiment harnesses.
//!
//! ## Example
//!
//! ```
//! use ants_rng::{Xoshiro256PlusPlus, BiasedCoin, Coin, DyadicProb, Flip, SeedableRng64};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
//! // The paper's C_{1/2}: a fair coin.
//! let fair = BiasedCoin::new(DyadicProb::half());
//! let flip = fair.flip(&mut rng);
//! assert!(flip == Flip::Heads || flip == Flip::Tails);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coin;
mod composite;
mod dyadic;
mod geometric;
mod rng;
mod splitmix;
pub mod stats;
mod xoshiro;

pub use coin::{BiasedCoin, Coin, Flip};
pub use composite::CompositeCoin;
pub use dyadic::{DyadicError, DyadicProb};
pub use geometric::Geometric;
pub use rng::{Rng64, SeedableRng64};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256PlusPlus;

/// The default PRNG used across the workspace.
///
/// An alias so downstream crates can switch generators in one place.
pub type DefaultRng = Xoshiro256PlusPlus;

/// Derive a deterministic per-entity RNG from a base seed and an index.
///
/// Used by the simulator to give every `(trial, agent)` pair an independent,
/// reproducible stream. Mixing goes through [`SplitMix64`] so that related
/// indices (0, 1, 2, …) produce unrelated states.
///
/// ```
/// use ants_rng::{derive_rng, Rng64};
/// let mut a = derive_rng(42, 0);
/// let mut b = derive_rng(42, 1);
/// assert_ne!(a.next_u64(), b.next_u64());
/// ```
pub fn derive_rng(base_seed: u64, index: u64) -> DefaultRng {
    let mut mixer = SplitMix64::new(base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Xoshiro256PlusPlus::from_splitmix(&mut mixer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_rng_deterministic() {
        let mut a = derive_rng(1, 2);
        let mut b = derive_rng(1, 2);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_rng_streams_differ_across_indices() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let mut r = derive_rng(99, i);
            assert!(seen.insert(r.next_u64()), "stream collision at index {i}");
        }
    }

    #[test]
    fn derive_rng_streams_differ_across_seeds() {
        let mut a = derive_rng(1, 0);
        let mut b = derive_rng(2, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
