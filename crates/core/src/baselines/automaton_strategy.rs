//! Running an arbitrary PFA as a search strategy.

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::{GridAction, Pfa, StateId};
use ants_rng::DefaultRng;

/// Adapter: any validated [`Pfa`] as a [`SearchStrategy`].
///
/// This is the population over which the lower bound (Theorem 4.1)
/// quantifies: *every* algorithm with `χ(A) ≤ log log D − ω(1)` is such an
/// automaton, and experiment E8 samples this space via
/// [`ants_automaton::library::random_pfa`].
///
/// ```
/// use ants_core::baselines::AutomatonStrategy;
/// use ants_core::SearchStrategy;
/// use ants_automaton::library;
///
/// let mut s = AutomatonStrategy::new(library::random_walk());
/// assert_eq!(s.selection_complexity().chi(), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct AutomatonStrategy {
    pfa: Pfa,
    state: StateId,
}

impl AutomatonStrategy {
    /// Wrap an automaton.
    pub fn new(pfa: Pfa) -> Self {
        let state = pfa.start();
        Self { pfa, state }
    }

    /// The wrapped automaton.
    pub fn pfa(&self) -> &Pfa {
        &self.pfa
    }

    /// The current state.
    pub fn state(&self) -> StateId {
        self.state
    }
}

impl SearchStrategy for AutomatonStrategy {
    fn name(&self) -> &'static str {
        "finite automaton"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        self.state = self.pfa.step(self.state, rng);
        self.pfa.label(self.state)
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        SelectionComplexity::new(self.pfa.memory_bits(), self.pfa.ell())
    }

    fn reset(&mut self) {
        self.state = self.pfa.start();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_automaton::{library, Walker};
    use ants_grid::Point;
    use ants_rng::derive_rng;

    #[test]
    fn matches_walker_semantics() {
        // Driving the strategy and a Walker with the same RNG stream must
        // produce identical trajectories.
        let pfa = library::algorithm1(3).unwrap();
        let mut strat = AutomatonStrategy::new(pfa.clone());
        let mut r1 = derive_rng(5, 0);
        let mut r2 = derive_rng(5, 0);
        let mut w = Walker::new(&pfa);
        let mut pos = Point::ORIGIN;
        for _ in 0..5000 {
            pos = apply_action(pos, strat.step(&mut r1));
            let out = w.step(&mut r2);
            assert_eq!(pos, out.position);
            assert_eq!(strat.state(), out.state);
        }
    }

    #[test]
    fn selection_complexity_defers_to_pfa() {
        let pfa = library::drift_walk(4).unwrap();
        let s = AutomatonStrategy::new(pfa.clone());
        assert_eq!(s.selection_complexity().memory_bits(), pfa.memory_bits());
        assert_eq!(s.selection_complexity().ell(), pfa.ell());
    }

    #[test]
    fn reset_returns_to_start() {
        let pfa = library::random_walk();
        let mut s = AutomatonStrategy::new(pfa);
        let mut rng = derive_rng(6, 0);
        for _ in 0..10 {
            let _ = s.step(&mut rng);
        }
        s.reset();
        assert_eq!(s.state(), s.pfa().start());
    }
}
