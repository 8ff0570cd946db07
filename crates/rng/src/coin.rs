//! Biased coins in the paper's convention.
//!
//! Section 3 of the paper fixes the convention: "Let coin `C_p` denote a
//! coin that shows **tails** with probability `p`." All pseudocode in the
//! paper ("while coin `C_{1/D}` shows heads do move") relies on it, so we
//! keep it verbatim: [`Flip::Tails`] is the probability-`p` outcome.

use crate::dyadic::DyadicProb;
use crate::rng::Rng64;

/// The outcome of a coin flip.
///
/// Following the paper, the *rare* outcome of `C_p` (for small `p`) is
/// `Tails`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flip {
    /// The probability-`1−p` outcome of `C_p`.
    Heads,
    /// The probability-`p` outcome of `C_p`.
    Tails,
}

impl Flip {
    /// Is this `Tails`?
    pub fn is_tails(self) -> bool {
        matches!(self, Flip::Tails)
    }

    /// Is this `Heads`?
    pub fn is_heads(self) -> bool {
        matches!(self, Flip::Heads)
    }
}

/// A coin that can be flipped with a [`Rng64`].
///
/// The two implementors are [`BiasedCoin`] (an atomic coin, one RNG draw)
/// and [`CompositeCoin`](crate::CompositeCoin) (the paper's Algorithm 2,
/// built from repeated flips of an atomic coin).
pub trait Coin {
    /// Flip the coin once.
    fn flip<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Flip;

    /// The exact probability of [`Flip::Tails`].
    fn tails_probability(&self) -> DyadicProb;

    /// The resolution `ℓ` this coin requires of the agent: the smallest `ℓ`
    /// such that every *atomic* probability used is at least `1/2^ℓ`.
    ///
    /// For an atomic coin this is `min(p, 1−p).ell()` (both outcomes are
    /// transition probabilities of the agent's state machine); composite
    /// coins report the resolution of their *base* coin, which is the whole
    /// point of the construction.
    fn required_ell(&self) -> u32;
}

/// An atomic biased coin `C_p` with exact dyadic bias.
///
/// ```
/// use ants_rng::{BiasedCoin, Coin, DyadicProb, SeedableRng64, Xoshiro256PlusPlus};
/// let coin = BiasedCoin::new(DyadicProb::one_over_pow2(3).unwrap()); // tails w.p. 1/8
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let mut tails = 0u32;
/// for _ in 0..8000 { if coin.flip(&mut rng).is_tails() { tails += 1; } }
/// assert!((tails as f64 / 8000.0 - 0.125).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BiasedCoin {
    p_tails: DyadicProb,
}

impl BiasedCoin {
    /// Create `C_p`: a coin showing tails with probability `p`.
    pub fn new(p_tails: DyadicProb) -> Self {
        Self { p_tails }
    }

    /// The paper's base coin `C_{1/2^ℓ}`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::DyadicError::ExponentTooLarge`] for `ell > 64`.
    pub fn base(ell: u32) -> Result<Self, crate::DyadicError> {
        Ok(Self::new(DyadicProb::one_over_pow2(ell)?))
    }

    /// A fair coin (`C_{1/2}`).
    pub fn fair() -> Self {
        Self::new(DyadicProb::half())
    }
}

impl Coin for BiasedCoin {
    #[inline]
    fn flip<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Flip {
        match self.p_tails.u64_threshold() {
            None => Flip::Tails, // probability one
            Some(0) => Flip::Heads,
            Some(t) => {
                if rng.next_u64() < t {
                    Flip::Tails
                } else {
                    Flip::Heads
                }
            }
        }
    }

    fn tails_probability(&self) -> DyadicProb {
        self.p_tails
    }

    fn required_ell(&self) -> u32 {
        if self.p_tails.is_zero() || self.p_tails.is_one() {
            return 0; // deterministic coin: no probabilistic resolution needed
        }
        let c = self.p_tails.complement();
        self.p_tails.ell().max(c.ell())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng64;
    use crate::Xoshiro256PlusPlus;

    fn frequency(coin: &BiasedCoin, n: u32, seed: u64) -> f64 {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let tails: u32 = (0..n).map(|_| u32::from(coin.flip(&mut rng).is_tails())).sum();
        tails as f64 / n as f64
    }

    #[test]
    fn fair_coin_balanced() {
        let f = frequency(&BiasedCoin::fair(), 200_000, 1);
        // 5σ ≈ 0.0056 at n = 200k; failure probability < 1e-6.
        assert!((f - 0.5).abs() < 0.01, "fair frequency {f}");
    }

    #[test]
    fn eighth_coin_frequency() {
        let coin = BiasedCoin::base(3).unwrap();
        let f = frequency(&coin, 200_000, 2);
        assert!((f - 0.125).abs() < 0.01, "1/8 frequency {f}");
    }

    #[test]
    fn extreme_coins_are_deterministic() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let always = BiasedCoin::new(DyadicProb::ONE);
        let never = BiasedCoin::new(DyadicProb::ZERO);
        for _ in 0..100 {
            assert_eq!(always.flip(&mut rng), Flip::Tails);
            assert_eq!(never.flip(&mut rng), Flip::Heads);
        }
    }

    #[test]
    fn required_ell_counts_both_sides() {
        // C_{1/8}: tails needs ℓ=3, heads (7/8) needs ℓ=1 ⇒ max 3.
        assert_eq!(BiasedCoin::base(3).unwrap().required_ell(), 3);
        // C_{7/8}: symmetric.
        assert_eq!(BiasedCoin::new(DyadicProb::new(7, 3).unwrap()).required_ell(), 3);
        // Fair coin: ℓ = 1.
        assert_eq!(BiasedCoin::fair().required_ell(), 1);
        // Deterministic coins need no randomness at all.
        assert_eq!(BiasedCoin::new(DyadicProb::ONE).required_ell(), 0);
    }

    #[test]
    fn tiny_probability_still_sampled() {
        // p = 1/2^40: expect ~0 tails in 10^5 flips but no panic.
        let coin = BiasedCoin::base(40).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let tails: u32 = (0..100_000).map(|_| u32::from(coin.flip(&mut rng).is_tails())).sum();
        assert!(tails <= 2);
    }
}
