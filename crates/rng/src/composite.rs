//! Algorithm 2 of the paper: composite coins.
//!
//! `coin(k, ℓ)` simulates a coin showing tails with probability `1/2^{kℓ}`
//! using only the base coin `C_{1/2^ℓ}`: flip the base coin up to `k` times
//! and return heads as soon as any flip shows heads; return tails only when
//! all `k` flips show tails. Since the flips are independent,
//! `P[tails] = (1/2^ℓ)^k = 1/2^{kℓ}` (Lemma 3.6).
//!
//! The agent only needs the loop counter — `⌈log₂ k⌉` bits of memory — which
//! is precisely how the paper converts *probability resolution* into
//! *memory*, the trade-off at the heart of the `χ = b + log ℓ` metric.
//!
//! Note on the paper's pseudocode: Algorithm 2 writes `for i = 0 · · · k`,
//! which read literally performs `k + 1` flips and yields `1/2^{(k+1)ℓ}`,
//! contradicting Lemma 3.6's statement `1/2^{kℓ}`. We implement `k` flips,
//! matching the lemma (the proof also speaks of "a total of k coin flips").

use crate::coin::{BiasedCoin, Coin, Flip};
use crate::dyadic::{DyadicError, DyadicProb};
use crate::rng::Rng64;

/// The paper's `coin(k, ℓ)`: tails with probability `1/2^{kℓ}`, realised by
/// `k` flips of `C_{1/2^ℓ}`.
///
/// ```
/// use ants_rng::{CompositeCoin, Coin, SeedableRng64, Xoshiro256PlusPlus};
/// // coin(3, 2) == C_{1/64}.
/// let coin = CompositeCoin::new(3, 2).unwrap();
/// assert_eq!(coin.tails_probability().to_f64(), 1.0 / 64.0);
/// assert_eq!(coin.memory_bits(), 2); // ⌈log₂ 3⌉
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompositeCoin {
    k: u32,
    ell: u32,
    base: BiasedCoin,
}

impl CompositeCoin {
    /// Create `coin(k, ℓ)`.
    ///
    /// # Errors
    ///
    /// [`DyadicError::ExponentTooLarge`] if `ℓ > 64` or `k·ℓ > 64` (the
    /// resulting probability would be below the crate's `2^-64` floor).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `ℓ == 0`; both are degenerate (the paper
    /// assumes `ℓ ≥ 1`, and `k = 0` flips nothing).
    pub fn new(k: u32, ell: u32) -> Result<Self, DyadicError> {
        assert!(k > 0, "composite coin requires k >= 1");
        assert!(ell > 0, "composite coin requires ell >= 1");
        let total = k.checked_mul(ell).ok_or(DyadicError::ExponentTooLarge)?;
        if total > 64 {
            return Err(DyadicError::ExponentTooLarge);
        }
        Ok(Self { k, ell, base: BiasedCoin::base(ell)? })
    }

    /// Construct the coin used by `Non-Uniform-Search` (Theorem 3.7): the
    /// coin closest to `C_{1/D}` realisable at resolution `ℓ`, i.e.
    /// `coin(⌈log₂ D / ℓ⌉, ℓ)`.
    ///
    /// # Errors
    ///
    /// As [`CompositeCoin::new`].
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` (the paper's algorithms assume `D > 1`).
    pub fn for_distance(d: u64, ell: u32) -> Result<Self, DyadicError> {
        assert!(d >= 2, "distance must be at least 2");
        let log_d = ceil_log2(d);
        let k = log_d.div_ceil(ell).max(1);
        Self::new(k, ell)
    }

    /// The number of base-coin flips `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The base-coin resolution `ℓ`.
    pub fn ell(&self) -> u32 {
        self.ell
    }

    /// The memory cost of the loop counter: `⌈log₂ k⌉` bits (Lemma 3.6).
    pub fn memory_bits(&self) -> u32 {
        ceil_log2(self.k as u64)
    }
}

impl Coin for CompositeCoin {
    fn flip<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Flip {
        // Faithful to Algorithm 2: flip the base coin up to k times.
        for _ in 0..self.k {
            if self.base.flip(rng).is_heads() {
                return Flip::Heads;
            }
        }
        Flip::Tails
    }

    fn tails_probability(&self) -> DyadicProb {
        // 1/2^{kℓ}; the constructor guarantees kℓ ≤ 64.
        DyadicProb::one_over_pow2(self.k * self.ell).expect("checked in constructor")
    }

    fn required_ell(&self) -> u32 {
        self.base.required_ell()
    }
}

/// `⌈log₂ x⌉` for `x ≥ 1` (0 for `x = 1`).
pub(crate) fn ceil_log2(x: u64) -> u32 {
    assert!(x >= 1, "ceil_log2 requires x >= 1");
    64 - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng64;
    use crate::Xoshiro256PlusPlus;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn probability_is_exactly_one_over_2_kl() {
        for (k, ell) in [(1u32, 1u32), (2, 3), (5, 2), (10, 4), (64, 1), (1, 64)] {
            let coin = CompositeCoin::new(k, ell).unwrap();
            assert_eq!(
                coin.tails_probability(),
                DyadicProb::one_over_pow2(k * ell).unwrap(),
                "coin({k},{ell})"
            );
        }
    }

    #[test]
    fn resolution_is_base_resolution() {
        let coin = CompositeCoin::new(10, 3).unwrap();
        assert_eq!(coin.required_ell(), 3, "composite coin must only need the base ell");
    }

    #[test]
    fn memory_bits_match_lemma_3_6() {
        assert_eq!(CompositeCoin::new(1, 4).unwrap().memory_bits(), 0);
        assert_eq!(CompositeCoin::new(2, 4).unwrap().memory_bits(), 1);
        assert_eq!(CompositeCoin::new(3, 4).unwrap().memory_bits(), 2);
        assert_eq!(CompositeCoin::new(16, 2).unwrap().memory_bits(), 4);
    }

    #[test]
    fn kl_overflow_rejected() {
        assert!(CompositeCoin::new(65, 1).is_err());
        assert!(CompositeCoin::new(9, 8).is_err());
        assert!(CompositeCoin::new(64, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = CompositeCoin::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "ell >= 1")]
    fn zero_ell_panics() {
        let _ = CompositeCoin::new(1, 0);
    }

    #[test]
    fn empirical_frequency_matches() {
        // coin(3, 2) = C_{1/64}: in 640_000 flips expect ~10_000 tails.
        let coin = CompositeCoin::new(3, 2).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
        let n = 640_000u32;
        let tails: u32 = (0..n).map(|_| u32::from(coin.flip(&mut rng).is_tails())).sum();
        let f = tails as f64 / n as f64;
        let expect = 1.0 / 64.0;
        // 5σ ≈ 0.00078; tolerance 0.002 gives failure probability < 1e-9.
        assert!((f - expect).abs() < 0.002, "frequency {f} vs {expect}");
    }

    #[test]
    fn composite_equals_atomic_distribution() {
        // coin(4, 3) must match C_{1/2^12} statistically.
        let comp = CompositeCoin::new(4, 3).unwrap();
        let atom = BiasedCoin::base(12).unwrap();
        let n = 2_000_000u32;
        let mut rng1 = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut rng2 = Xoshiro256PlusPlus::seed_from_u64(8);
        let t1: u32 = (0..n).map(|_| u32::from(comp.flip(&mut rng1).is_tails())).sum();
        let t2: u32 = (0..n).map(|_| u32::from(atom.flip(&mut rng2).is_tails())).sum();
        // Expected ~488 each; allow ±5σ ≈ ±110 on the difference.
        let diff = (t1 as i64 - t2 as i64).abs();
        assert!(diff < 160, "tails counts {t1} vs {t2}");
    }

    #[test]
    fn for_distance_matches_paper_parameters() {
        // D = 1024, ℓ = 2 ⇒ k = ⌈10/2⌉ = 5, probability 1/2^10 = 1/1024 = 1/D.
        let coin = CompositeCoin::for_distance(1024, 2).unwrap();
        assert_eq!(coin.k(), 5);
        assert_eq!(coin.tails_probability().to_f64(), 1.0 / 1024.0);
        // Non-power-of-two D rounds up: D = 1000 ⇒ log₂ D = 10 ⇒ same coin.
        let coin = CompositeCoin::for_distance(1000, 2).unwrap();
        assert_eq!(coin.tails_probability().to_f64(), 1.0 / 1024.0);
    }
}
