//! Property-based tests for the randomness substrate.

use ants_rng::{
    BiasedCoin, Coin, CompositeCoin, DyadicProb, Geometric, Rng64, SeedableRng64, SplitMix64,
    Xoshiro256PlusPlus,
};
use proptest::prelude::*;

/// Strategy producing an arbitrary valid dyadic probability.
fn dyadic() -> impl Strategy<Value = DyadicProb> {
    (0u32..=40).prop_flat_map(|m| {
        let max = 1u64 << m;
        (0..=max).prop_map(move |a| DyadicProb::new(a, m).unwrap())
    })
}

proptest! {
    #[test]
    fn dyadic_roundtrips_to_f64(p in dyadic()) {
        // Canonicalisation never changes the value.
        let f = p.to_f64();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn dyadic_canonical_numerator_odd_or_trivial(p in dyadic()) {
        prop_assert!(
            p.is_zero() || p.is_one() || p.numerator() % 2 == 1,
            "canonical form must have odd numerator: {p:?}"
        );
    }

    #[test]
    fn complement_is_involution(p in dyadic()) {
        prop_assert_eq!(p.complement().complement(), p);
    }

    #[test]
    fn complement_sums_to_one(p in dyadic()) {
        let s = p.to_f64() + p.complement().to_f64();
        prop_assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ell_is_tight(p in dyadic().prop_filter("non-zero", |p| !p.is_zero())) {
        let ell = p.ell();
        // p >= 1/2^ell …
        prop_assert!(p >= DyadicProb::one_over_pow2(ell.min(64)).unwrap());
        // … and ell is minimal (p < 1/2^{ell-1} fails only when ell = 0).
        if ell > 0 {
            prop_assert!(p < DyadicProb::one_over_pow2(ell - 1).unwrap());
        }
    }

    #[test]
    fn mul_matches_f64(p in dyadic(), q in dyadic()) {
        if let Some(prod) = p.checked_mul(&q) {
            let f = p.to_f64() * q.to_f64();
            prop_assert!((prod.to_f64() - f).abs() < 1e-12);
        }
    }

    #[test]
    fn ordering_total_and_consistent(p in dyadic(), q in dyadic()) {
        let by_dyadic = p.cmp(&q);
        let by_f64 = p.to_f64().partial_cmp(&q.to_f64()).unwrap();
        // f64 is exact for exponents <= 52, which covers the strategy.
        prop_assert_eq!(by_dyadic, by_f64);
    }

    #[test]
    fn next_below_always_in_range(seed in any::<u64>(), bound in 1u64..=u64::MAX) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let x = rng.next_below(bound);
        prop_assert!(x < bound);
    }

    #[test]
    fn xoshiro_deterministic(seed in any::<u64>()) {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(seed);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn composite_coin_probability_identity(k in 1u32..=16, ell in 1u32..=4) {
        // coin(k, l) has tails probability exactly 1/2^{kl}.
        let coin = CompositeCoin::new(k, ell).unwrap();
        prop_assert_eq!(
            coin.tails_probability(),
            DyadicProb::one_over_pow2(k * ell).unwrap()
        );
        // Memory bound of Lemma 3.6.
        prop_assert!(coin.memory_bits() <= 32 - k.leading_zeros());
    }

    #[test]
    fn geometric_exact_nonnegative_and_finite(exp in 1u32..=8, seed in any::<u64>()) {
        let g = Geometric::new(DyadicProb::one_over_pow2(exp).unwrap());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let x = g.sample_exact(&mut rng);
        // With p >= 1/256 a sample beyond 2^20 has probability < 1e-1000.
        prop_assert!(x < 1 << 20);
    }

    #[test]
    fn coin_required_ell_bounds_probability(p in dyadic()) {
        let coin = BiasedCoin::new(p);
        let ell = coin.required_ell();
        if !p.is_zero() && !p.is_one() {
            // Both outcome probabilities are at least 1/2^ell.
            prop_assert!(p >= DyadicProb::one_over_pow2(ell).unwrap());
            prop_assert!(p.complement() >= DyadicProb::one_over_pow2(ell).unwrap());
        }
    }
}

/// Deterministic regression: a fixed seed must yield a fixed stream forever.
#[test]
fn xoshiro_pinned_stream() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xDEADBEEF);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    let mut rng2 = Xoshiro256PlusPlus::seed_from_u64(0xDEADBEEF);
    let second: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
    assert_eq!(first, second);
}
