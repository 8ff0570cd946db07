//! Failure injection: agents with finite lifetimes.
//!
//! The paper's model assumes immortal agents; its discussion of
//! biological plausibility (and the FKLS'12 line of work it builds on)
//! raises robustness to agent loss. Two wrappers inject it:
//!
//! * [`Mortal`] — a geometrically distributed lifetime (per-step death
//!   probability `1/2^exp`);
//! * [`Expiring`] — a deterministic lifetime: the agent halts after
//!   `expiry` *moves* (the workload zoo's `mortal(inner, expiry)` entry).
//!
//! After death the agent stops moving forever (`GridAction::None`) and
//! reports [`SearchStrategy::is_halted`], so move-bounded simulation
//! loops can stop instead of spinning. The test-suite and the examples
//! use these to check that the collaborative guarantee degrades
//! gracefully — the survivors' `D²/n_alive + D` bound takes over.

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_rng::{BiasedCoin, Coin, DefaultRng, DyadicProb};

/// A strategy wrapper that dies with probability `p_death` per step.
#[derive(Debug)]
pub struct Mortal<S> {
    inner: S,
    death_coin: BiasedCoin,
    alive: bool,
}

impl<S: SearchStrategy> Mortal<S> {
    /// Wrap `inner` with a per-step death probability of `1/2^exp`.
    ///
    /// # Panics
    ///
    /// Panics if `exp` is zero (agents dying with probability ≥ 1/2 per
    /// step cannot search) or above 64.
    pub fn new(inner: S, exp: u32) -> Self {
        assert!((1..=64).contains(&exp), "death exponent must be in 1..=64");
        Self {
            inner,
            death_coin: BiasedCoin::new(DyadicProb::one_over_pow2(exp).expect("exp validated")),
            alive: true,
        }
    }

    /// Is the agent still alive?
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SearchStrategy> SearchStrategy for Mortal<S> {
    fn name(&self) -> &'static str {
        "mortal wrapper"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        if !self.alive {
            return GridAction::None;
        }
        if self.death_coin.flip(rng).is_tails() {
            self.alive = false;
            return GridAction::None;
        }
        self.inner.step(rng)
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // One extra alive-bit, and the death coin's resolution.
        let inner = self.inner.selection_complexity();
        let death_ell = self.death_coin.required_ell();
        SelectionComplexity::new(inner.memory_bits() + 1, inner.ell().max(death_ell))
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.alive = true;
    }

    fn is_halted(&self) -> bool {
        !self.alive
    }
}

/// A strategy wrapper with a deterministic move budget: the agent runs
/// its inner strategy until it has taken `expiry` moves, then halts
/// forever (`GridAction::None`). This is the workload zoo's
/// `mortal(inner, expiry)` entry — the declarative way to model ants
/// with bounded energy.
///
/// Unlike [`Mortal`], expiry consumes no randomness: the wrapper's RNG
/// stream is exactly the inner strategy's, so an `Expiring` agent walks
/// the identical trajectory as its unwrapped twin up to the expiry.
///
/// Accounting: the move counter needs `⌈log₂(expiry + 1)⌉` memory bits,
/// which [`SearchStrategy::selection_complexity`] adds to the inner
/// footprint (the paper's χ charges state wherever it lives).
/// [`SearchStrategy::abort_guess`] forwards to the inner strategy but
/// does *not* refund spent moves; [`SearchStrategy::reset`] is a full
/// rebirth.
pub struct Expiring {
    inner: Box<dyn SearchStrategy>,
    expiry: u64,
    moves: u64,
}

impl Expiring {
    /// Wrap `inner` with a lifetime of `expiry` moves.
    ///
    /// # Panics
    ///
    /// Panics if `expiry` is zero (the agent could never move).
    pub fn new(inner: Box<dyn SearchStrategy>, expiry: u64) -> Self {
        assert!(expiry >= 1, "expiry must be at least one move");
        Self { inner, expiry, moves: 0 }
    }

    /// Moves taken so far.
    pub fn moves_taken(&self) -> u64 {
        self.moves
    }

    /// Moves remaining before the agent halts.
    pub fn moves_left(&self) -> u64 {
        self.expiry - self.moves
    }
}

impl SearchStrategy for Expiring {
    fn name(&self) -> &'static str {
        "expiring wrapper"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        if self.moves >= self.expiry {
            return GridAction::None;
        }
        let action = self.inner.step(rng);
        if action.is_move() {
            self.moves += 1;
        }
        action
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        let inner = self.inner.selection_complexity();
        // The counter holds expiry + 1 states (0..=expiry).
        let counter_bits = u64::BITS - self.expiry.leading_zeros();
        SelectionComplexity::new(inner.memory_bits() + counter_bits, inner.ell())
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.moves = 0;
    }

    fn abort_guess(&mut self) {
        // A failed excursion does not refund lifetime.
        self.inner.abort_guess();
    }

    fn is_halted(&self) -> bool {
        // A halted inner strategy (a nested `mortal(mortal(..), ..)`)
        // never moves again, so this wrapper's move count would never
        // reach the expiry.
        self.moves >= self.expiry || self.inner.is_halted()
    }
}

impl std::fmt::Debug for Expiring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Expiring")
            .field("inner", &self.inner.name())
            .field("expiry", &self.expiry)
            .field("moves", &self.moves)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomWalk;
    use crate::NonUniformSearch;
    use ants_rng::derive_rng;

    #[test]
    fn dies_and_stays_dead() {
        // Death probability 1/4 per step: dead within 100 steps w.h.p.
        let mut m = Mortal::new(RandomWalk::new(), 2);
        let mut rng = derive_rng(1, 0);
        for _ in 0..200 {
            let _ = m.step(&mut rng);
        }
        assert!(!m.is_alive());
        for _ in 0..50 {
            assert_eq!(m.step(&mut rng), GridAction::None);
        }
    }

    #[test]
    fn lifetime_is_geometric() {
        let exp = 6u32; // p = 1/64, mean lifetime 64
        let trials = 4000;
        let mut total = 0u64;
        for s in 0..trials {
            let mut m = Mortal::new(RandomWalk::new(), exp);
            let mut rng = derive_rng(s, 1);
            let mut life = 0u64;
            while m.is_alive() && life < 100_000 {
                let _ = m.step(&mut rng);
                life += 1;
            }
            total += life;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 64.0).abs() < 3.0, "mean lifetime {mean}");
    }

    #[test]
    fn reset_revives() {
        let mut m = Mortal::new(RandomWalk::new(), 1);
        let mut rng = derive_rng(2, 0);
        for _ in 0..100 {
            let _ = m.step(&mut rng);
        }
        assert!(!m.is_alive());
        m.reset();
        assert!(m.is_alive());
    }

    #[test]
    fn footprint_adds_one_bit() {
        let base = NonUniformSearch::new(16).unwrap();
        let base_sc = base.selection_complexity();
        let m = Mortal::new(NonUniformSearch::new(16).unwrap(), 8);
        let sc = m.selection_complexity();
        assert_eq!(sc.memory_bits(), base_sc.memory_bits() + 1);
        assert_eq!(sc.ell(), base_sc.ell().max(8));
    }

    #[test]
    fn expiring_halts_after_exactly_expiry_moves() {
        let mut e = Expiring::new(Box::new(RandomWalk::new()), 25);
        let mut rng = derive_rng(3, 0);
        let mut moves = 0u64;
        for _ in 0..200 {
            if e.step(&mut rng).is_move() {
                moves += 1;
            }
        }
        assert_eq!(moves, 25, "exactly the expiry, never more");
        assert!(e.is_halted());
        assert_eq!(e.moves_taken(), 25);
        assert_eq!(e.moves_left(), 0);
        // Dead agents act as pure no-ops and consume no randomness.
        let mut probe = derive_rng(99, 0);
        let before = probe.clone();
        assert_eq!(e.step(&mut probe), GridAction::None);
        assert_eq!(probe, before, "halted step must not consume randomness");
    }

    #[test]
    fn expiring_matches_inner_trajectory_until_expiry() {
        let mut wrapped = Expiring::new(Box::new(RandomWalk::new()), 10);
        let mut bare = RandomWalk::new();
        let mut ra = derive_rng(7, 0);
        let mut rb = derive_rng(7, 0);
        loop {
            if wrapped.is_halted() {
                break;
            }
            assert_eq!(wrapped.step(&mut ra), bare.step(&mut rb));
        }
        assert_eq!(wrapped.moves_taken(), 10);
    }

    #[test]
    fn expiring_reset_revives_but_abort_does_not() {
        let mut e = Expiring::new(Box::new(RandomWalk::new()), 3);
        let mut rng = derive_rng(5, 0);
        while !e.is_halted() {
            let _ = e.step(&mut rng);
        }
        e.abort_guess();
        assert!(e.is_halted(), "an aborted guess must not refund lifetime");
        e.reset();
        assert!(!e.is_halted());
        assert_eq!(e.moves_left(), 3);
    }

    #[test]
    fn expiring_halts_when_its_inner_strategy_halts() {
        let mut nested =
            Expiring::new(Box::new(Expiring::new(Box::new(RandomWalk::new()), 3)), 100);
        let mut rng = derive_rng(4, 0);
        for _ in 0..50 {
            let _ = nested.step(&mut rng);
        }
        assert_eq!(nested.moves_taken(), 3, "the inner wrapper expired first");
        assert!(nested.is_halted(), "a halted inner strategy halts the wrapper");
        nested.reset();
        assert!(!nested.is_halted(), "reset revives both wrappers");
    }

    #[test]
    fn expiring_footprint_charges_the_counter() {
        let inner_bits = RandomWalk::new().selection_complexity().memory_bits();
        for (expiry, bits) in [(1u64, 1u32), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9)] {
            let e = Expiring::new(Box::new(RandomWalk::new()), expiry);
            assert_eq!(
                e.selection_complexity().memory_bits(),
                inner_bits + bits,
                "expiry {expiry} needs {bits} counter bits"
            );
        }
    }

    #[test]
    #[should_panic(expected = "expiry must be at least one move")]
    fn zero_expiry_panics() {
        let _ = Expiring::new(Box::new(RandomWalk::new()), 0);
    }

    #[test]
    fn colony_survives_attrition() {
        // 16 mortal agents (mean lifetime 4096 moves) vs a target at
        // distance 8: enough survivors find it.
        use crate::strategy::apply_action;
        use ants_grid::Point;
        let target = Point::new(6, -5);
        let mut found = 0;
        let trials = 20;
        for t in 0..trials {
            let mut hit = false;
            for agent_idx in 0..16 {
                let mut m = Mortal::new(NonUniformSearch::new(8).unwrap(), 12);
                let mut rng = derive_rng(1000 + t, agent_idx);
                let mut pos = Point::ORIGIN;
                for _ in 0..20_000 {
                    let a = m.step(&mut rng);
                    pos = apply_action(pos, a);
                    if pos == target {
                        hit = true;
                        break;
                    }
                    if !m.is_alive() {
                        break;
                    }
                }
                if hit {
                    break;
                }
            }
            if hit {
                found += 1;
            }
        }
        assert!(found >= 15, "only {found}/{trials} colonies found the target");
    }
}
