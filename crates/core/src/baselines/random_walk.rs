//! The uniform random walk baseline.

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_grid::Direction;
use ants_rng::{DefaultRng, Rng64};

/// A memoryless uniform random walk: each step moves in a uniformly random
/// direction.
///
/// The paper (citing Alon, Avin, Koucký, Kozma, Lotker, Tuttle; ref. 3) uses
/// this as the archetypal low-selection-complexity strategy: `n` parallel
/// walkers speed search up by only `min{log n, D}` — exponentially worse
/// than the `min{n, D}` speed-up available above the `χ ≈ log log D`
/// threshold. Reproduced as experiment E10.
///
/// Footprint: one state beyond position (`b = 0` of *strategy* memory;
/// the state-machine representation has the 5 states of
/// [`ants_automaton::library::random_walk`]) and `ℓ = 2`.
#[derive(Debug, Clone, Default)]
pub struct RandomWalk {
    _private: (),
}

impl RandomWalk {
    /// Create a random walker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SearchStrategy for RandomWalk {
    fn name(&self) -> &'static str {
        "uniform random walk"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        let dir = Direction::ALL[rng.next_below(4) as usize];
        GridAction::Move(dir)
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // State-machine representation: 5 states (origin + 4 moves), 1/4
        // transition probabilities.
        SelectionComplexity::new(3, 2)
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_grid::Point;
    use ants_rng::derive_rng;

    #[test]
    fn always_moves() {
        let mut w = RandomWalk::new();
        let mut rng = derive_rng(1, 0);
        for _ in 0..100 {
            assert!(w.step(&mut rng).is_move());
        }
    }

    #[test]
    fn directions_roughly_uniform() {
        let mut w = RandomWalk::new();
        let mut rng = derive_rng(2, 0);
        let mut counts = [0u32; 4];
        let n = 80_000;
        for _ in 0..n {
            if let GridAction::Move(d) = w.step(&mut rng) {
                counts[d.index()] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.01, "direction {i} frequency {f}");
        }
    }

    #[test]
    fn diffusive_displacement() {
        // After t steps, E[|X|^2] = t.
        let t = 900u64;
        let trials = 1000;
        let mut sq = 0f64;
        for s in 0..trials {
            let mut w = RandomWalk::new();
            let mut rng = derive_rng(s, 1);
            let mut pos = Point::ORIGIN;
            for _ in 0..t {
                pos = apply_action(pos, w.step(&mut rng));
            }
            sq += (pos.x * pos.x + pos.y * pos.y) as f64;
        }
        let mean = sq / trials as f64;
        assert!((mean - t as f64).abs() / (t as f64) < 0.15, "E|X|^2 = {mean}");
    }

    #[test]
    fn chi_is_constant() {
        let w = RandomWalk::new();
        assert_eq!(w.selection_complexity().chi(), 4.0);
    }
}
