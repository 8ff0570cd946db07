//! Property-based tests for the search strategies.

use ants_automaton::library;
use ants_core::baselines::{
    AutomatonStrategy, Expiring, HarmonicSearch, LevyWalk, Mortal, RandomWalk, SpiralSearch,
};
use ants_core::{
    apply_action, CoinNonUniformSearch, FullyUniformSearch, GridAction, NonUniformSearch,
    SearchStrategy, UniformSearch,
};
use ants_grid::Point;
use ants_rng::derive_rng;
use proptest::prelude::*;

/// Build every strategy in the library for a parameter draw.
fn all_strategies(d: u64, ell: u32, n: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(NonUniformSearch::new(d).expect("valid")),
        Box::new(CoinNonUniformSearch::new(d, ell).expect("valid")),
        Box::new(UniformSearch::new(ell, n, 2).expect("valid")),
        Box::new(FullyUniformSearch::new(ell, 2).expect("valid")),
        Box::new(RandomWalk::new()),
        Box::new(SpiralSearch::new()),
        Box::new(HarmonicSearch::new(n)),
        Box::new(LevyWalk::new(2.0, 128)),
    ]
}

/// [`all_strategies`] plus an automaton and the two finite-lifetime
/// wrappers, whose `is_halted` a stride must poll.
fn stride_strategies(d: u64, ell: u32, n: u64) -> Vec<Box<dyn SearchStrategy>> {
    let mut out = all_strategies(d, ell, n);
    out.push(Box::new(AutomatonStrategy::new(library::algorithm1(3).expect("valid"))));
    out.push(Box::new(Mortal::new(RandomWalk::new(), 5)));
    out.push(Box::new(Expiring::new(Box::new(NonUniformSearch::new(d).expect("valid")), 7)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `advance` is exactly repeated `step`: same end position, moves,
    /// steps, RNG state and strategy state, stopping at the
    /// `max_moves`-th move, right after an `Origin`, or when the strategy
    /// halts.
    #[test]
    fn advance_is_repeated_step(
        d in 2u64..100,
        ell in 1u32..4,
        n in 1u64..32,
        max_moves in 1u64..40,
        seed in any::<u64>(),
    ) {
        for (mut a, mut b) in stride_strategies(d, ell, n)
            .into_iter()
            .zip(stride_strategies(d, ell, n))
        {
            let mut ra = derive_rng(seed, 82);
            let mut rb = derive_rng(seed, 82);
            let start = Point::new(5, -3);
            let (mut pa, mut pb) = (start, start);
            for _ in 0..16 {
                let stride = a.advance(&mut ra, max_moves);
                pa = stride.apply(pa);
                let (mut moves, mut steps, mut on_origin) = (0u64, 0u64, false);
                while !b.is_halted() {
                    let action = b.step(&mut rb);
                    steps += 1;
                    pb = apply_action(pb, action);
                    if action == GridAction::Origin {
                        on_origin = true;
                        break;
                    }
                    if action.is_move() {
                        moves += 1;
                        if moves == max_moves {
                            break;
                        }
                    }
                }
                prop_assert_eq!(
                    (pa, stride.moves, stride.steps, stride.ended_on_origin),
                    (pb, moves, steps, on_origin),
                    "{}: stride diverges from its steps",
                    a.name()
                );
                prop_assert_eq!(&ra, &rb, "{}: RNG state diverges", a.name());
                prop_assert_eq!(a.selection_complexity(), b.selection_complexity());
                prop_assert_eq!(a.is_halted(), b.is_halted());
            }
            for _ in 0..64 {
                prop_assert_eq!(a.step(&mut ra), b.step(&mut rb), "{}: state diverges", a.name());
            }
        }
    }

    /// Every strategy produces a legal action stream: positions change by
    /// at most one per step, and moves are counted iff the action moves.
    #[test]
    fn action_streams_are_legal(
        d in 2u64..200,
        ell in 1u32..5,
        n in 1u64..64,
        seed in any::<u64>(),
    ) {
        for mut s in all_strategies(d, ell, n) {
            let mut rng = derive_rng(seed, 77);
            let mut pos = Point::ORIGIN;
            for _ in 0..300 {
                let a = s.step(&mut rng);
                let next = apply_action(pos, a);
                prop_assert!(
                    next == pos || next.is_adjacent(&pos) || next == Point::ORIGIN,
                    "{}: illegal jump {pos} -> {next}",
                    s.name()
                );
                pos = next;
            }
        }
    }

    /// Selection complexity is well-formed and monotone under stepping
    /// (footprints only ever grow within a run).
    #[test]
    fn chi_footprint_monotone(
        d in 2u64..200,
        ell in 1u32..5,
        n in 1u64..64,
        seed in any::<u64>(),
    ) {
        for mut s in all_strategies(d, ell, n) {
            let mut rng = derive_rng(seed, 78);
            let before = s.selection_complexity();
            prop_assert!(before.chi() >= 0.0);
            let mut max_chi = before.chi();
            for _ in 0..2000 {
                let _ = s.step(&mut rng);
                let now = s.selection_complexity().chi();
                prop_assert!(
                    now + 1e-9 >= max_chi || now >= before.chi(),
                    "{}: footprint shrank mid-run",
                    s.name()
                );
                max_chi = max_chi.max(now);
            }
        }
    }

    /// reset() returns every strategy to its initial behaviour.
    #[test]
    fn reset_is_restart(
        d in 2u64..100,
        ell in 1u32..4,
        n in 1u64..32,
        burn in 1u64..500,
        seed in any::<u64>(),
    ) {
        for (mut a, mut b) in all_strategies(d, ell, n)
            .into_iter()
            .zip(all_strategies(d, ell, n))
        {
            let mut burn_rng = derive_rng(seed, 79);
            for _ in 0..burn {
                let _ = a.step(&mut burn_rng);
            }
            a.reset();
            let mut r1 = derive_rng(seed, 80);
            let mut r2 = derive_rng(seed, 80);
            for i in 0..200 {
                prop_assert_eq!(
                    a.step(&mut r1),
                    b.step(&mut r2),
                    "{} diverges after reset at step {}",
                    a.name(),
                    i
                );
            }
        }
    }

    /// Strategies are deterministic functions of the RNG stream.
    #[test]
    fn strategies_deterministic(
        d in 2u64..100,
        ell in 1u32..4,
        n in 1u64..32,
        seed in any::<u64>(),
    ) {
        for (mut a, mut b) in all_strategies(d, ell, n)
            .into_iter()
            .zip(all_strategies(d, ell, n))
        {
            let mut r1 = derive_rng(seed, 81);
            let mut r2 = derive_rng(seed, 81);
            for _ in 0..300 {
                prop_assert_eq!(a.step(&mut r1), b.step(&mut r2));
            }
        }
    }
}

/// The declared ell of the paper's strategies bounds the finest coin they
/// flip: drive with a recording wrapper via the components directly.
#[test]
fn declared_ell_matches_composite_construction() {
    for (d, ell) in [(64u64, 1u32), (1024, 2), (1 << 20, 4)] {
        let agent = CoinNonUniformSearch::new(d, ell).unwrap();
        assert_eq!(agent.selection_complexity().ell(), ell);
        // k * ell covers log2 D.
        assert!(u64::from(agent.k()) * u64::from(ell) >= 64 - (d - 1).leading_zeros() as u64);
    }
}

/// A halted strategy's stride returns at once instead of spinning on
/// `None` steps forever.
#[test]
fn advance_returns_on_a_halted_strategy() {
    let mut e = Expiring::new(Box::new(RandomWalk::new()), 3);
    let mut rng = derive_rng(4, 0);
    let first = e.advance(&mut rng, u64::MAX);
    assert_eq!(first.moves, 3, "the stride runs to the expiry");
    assert!(e.is_halted());
    let before = rng.clone();
    let again = e.advance(&mut rng, u64::MAX);
    assert_eq!((again.moves, again.steps), (0, 0));
    assert_eq!(rng, before, "a halted stride draws nothing");
}
