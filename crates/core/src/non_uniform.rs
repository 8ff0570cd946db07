//! Algorithm 1 and its composite-coin refinement (Theorems 3.5 and 3.7).

use crate::components::SquareSearch;
use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_rng::{DefaultRng, DyadicError};

/// Algorithm 1: non-uniform search, knowing the target distance `D`.
///
/// Repeatedly: walk a fair-random vertical direction a geometric
/// (`p = 1/D'`, `D' = 2^{⌈log₂ D⌉}`) number of steps, then a fair-random
/// horizontal direction likewise, then return to the origin.
///
/// With `n` agents the expected moves until the first finds a target at
/// distance at most `D` is `O(D²/n + D)` (Theorem 3.5).
///
/// Probability resolution: the stopping coin is `C_{1/D'}` directly, so
/// `ℓ = ⌈log₂ D⌉` — fine-grained, as the paper notes. Use
/// [`CoinNonUniformSearch`] for the `χ = log log D + O(1)` variant.
///
/// ```
/// use ants_core::{NonUniformSearch, SearchStrategy};
/// let agent = NonUniformSearch::new(1000).unwrap();
/// let sc = agent.selection_complexity();
/// assert_eq!(sc.ell(), 10); // coin C_{1/1024}
/// ```
#[derive(Debug, Clone)]
pub struct NonUniformSearch {
    inner: CoinNonUniformSearch,
}

impl NonUniformSearch {
    /// Create an agent that knows the target is within distance `d`.
    ///
    /// # Errors
    ///
    /// [`DyadicError::ExponentTooLarge`] if `⌈log₂ d⌉ > 64`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` (the paper assumes `D > 1`; `D ∈ {0, 1}` is
    /// trivial).
    pub fn new(d: u64) -> Result<Self, DyadicError> {
        assert!(d >= 2, "non-uniform search requires D >= 2");
        let ell = crate::ceil_log2(d).max(1);
        Ok(Self { inner: CoinNonUniformSearch::new(d, ell)? })
    }
}

impl SearchStrategy for NonUniformSearch {
    fn name(&self) -> &'static str {
        "non-uniform (Alg 1)"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        self.inner.step(rng)
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        self.inner.selection_complexity()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Algorithm 1 driven by composite coins — `Non-Uniform-Search` of
/// Theorem 3.7.
///
/// The `C_{1/D}` coin is simulated by `coin(k, ℓ)` (Algorithm 2) with
/// `k = ⌈log₂ D / ℓ⌉`, so the agent's probability resolution is only `ℓ`
/// and its memory grows by the `⌈log₂ k⌉`-bit flip counter:
/// `χ = log log D + O(1)`.
///
/// Expected moves with `n` agents: still `O(D²/n + D)` (the composite
/// coin realises a stopping probability `1/2^{kℓ} ∈ [1/(2^ℓ·D), 1/D]`, so
/// walks lengthen by at most `2^ℓ`; for `ℓ = O(1)` this is absorbed in
/// the constant — the same accounting as the paper's uniform algorithm).
#[derive(Debug, Clone)]
pub struct CoinNonUniformSearch {
    k: u32,
    ell: u32,
    search: SquareSearch,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Searching,
    Returning,
}

impl CoinNonUniformSearch {
    /// Create an agent for distance `d` at probability resolution `ell`.
    ///
    /// # Errors
    ///
    /// [`DyadicError::ExponentTooLarge`] if `ell > 64`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` or `ell == 0`.
    pub fn new(d: u64, ell: u32) -> Result<Self, DyadicError> {
        assert!(d >= 2, "non-uniform search requires D >= 2");
        assert!(ell >= 1, "ell must be at least 1");
        let log_d = crate::ceil_log2(d).max(1);
        let k = log_d.div_ceil(ell).max(1);
        Ok(Self { k, ell, search: SquareSearch::new(k, ell)?, phase: Phase::Searching })
    }

    /// The number of base-coin flips per composite coin, `k = ⌈log₂ D/ℓ⌉`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl SearchStrategy for CoinNonUniformSearch {
    fn name(&self) -> &'static str {
        "non-uniform + coin(k,l) (Thm 3.7)"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        match self.phase {
            Phase::Searching => {
                let s = self.search.step(rng);
                if s.is_finished() {
                    self.phase = Phase::Returning;
                }
                s.action()
            }
            Phase::Returning => {
                // One step invoking the return oracle; then a fresh iteration.
                self.search = SquareSearch::new(self.k, self.ell).expect("validated in new");
                self.phase = Phase::Searching;
                GridAction::Origin
            }
        }
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // Memory: the square-search component (flip counter + 2 phase bits)
        // plus one bit for the search/return phase.
        SelectionComplexity::new(self.search.memory_bits() + 1, self.ell)
    }

    fn reset(&mut self) {
        self.search = SquareSearch::new(self.k, self.ell).expect("validated in new");
        self.phase = Phase::Searching;
    }
}

/// Expose the iteration structure for tests: an iteration ends exactly at
/// each `Origin` action.
#[allow(dead_code)]
fn is_iteration_end(a: GridAction) -> bool {
    a == GridAction::Origin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_grid::Point;
    use ants_rng::derive_rng;

    /// Drive an agent until it visits `target` or `max_moves` moves.
    fn moves_to_find(
        agent: &mut dyn SearchStrategy,
        target: Point,
        max_moves: u64,
        seed: u64,
    ) -> Option<u64> {
        let mut rng = derive_rng(seed, 7);
        let mut pos = Point::ORIGIN;
        let mut moves = 0u64;
        while moves < max_moves {
            let a = agent.step(&mut rng);
            if a.is_move() {
                moves += 1;
            }
            pos = apply_action(pos, a);
            if pos == target {
                return Some(moves);
            }
        }
        None
    }

    #[test]
    fn finds_near_target_quickly() {
        let mut agent = NonUniformSearch::new(8).unwrap();
        let found = moves_to_find(&mut agent, Point::new(2, 1), 1_000_000, 1);
        assert!(found.is_some());
    }

    #[test]
    fn finds_corner_target_at_distance_d() {
        // D = 16, target at (16, 16): Lemma 3.4 says success per iteration
        // is >= 1/(64 D); within ~64*16*10 iterations (each <= ~4D moves in
        // expectation) finding is overwhelming.
        let mut agent = NonUniformSearch::new(16).unwrap();
        let found = moves_to_find(&mut agent, Point::new(16, 16), 3_000_000, 2);
        assert!(found.is_some(), "corner target not found within the move budget");
    }

    #[test]
    fn expected_moves_scale_linearly_in_d_single_agent_per_iteration() {
        // Lemma 3.1: expected moves per iteration R <= 2D' (D' = 2^ceil).
        for d in [8u64, 32, 128] {
            let trials = 400;
            let mut total_moves = 0u64;
            let mut total_iters = 0u64;
            for s in 0..trials {
                let mut agent = NonUniformSearch::new(d).unwrap();
                let mut rng = derive_rng(s, 11);
                let mut moves = 0u64;
                let mut iters = 0u64;
                // Run 20 iterations.
                while iters < 20 {
                    let a = agent.step(&mut rng);
                    if a.is_move() {
                        moves += 1;
                    }
                    if a == GridAction::Origin {
                        iters += 1;
                    }
                }
                total_moves += moves;
                total_iters += iters;
            }
            let mean_per_iter = total_moves as f64 / total_iters as f64;
            let d_prime = 1u64 << crate::ceil_log2(d);
            // R <= 2D' holds in expectation (exact mean 2(D'-1)); allow
            // 6 standard errors of sampling slack (sigma_iter ~ sqrt(2)·D',
            // 8000 samples -> se ~ D'/63).
            let slack = 6.0 * d_prime as f64 / 63.0;
            assert!(
                mean_per_iter <= 2.0 * d_prime as f64 + slack,
                "D = {d}: mean iteration length {mean_per_iter} exceeds 2D' = {}",
                2 * d_prime
            );
            // And not vanishingly small either (sanity): >= D'/2.
            assert!(mean_per_iter >= 0.5 * d_prime as f64, "D = {d}: {mean_per_iter}");
        }
    }

    #[test]
    fn selection_complexity_of_plain_version() {
        // ell = ceil(log2 D); with k = 1 the counter is 0 bits, so b = 3.
        let agent = NonUniformSearch::new(1024).unwrap();
        let sc = agent.selection_complexity();
        assert_eq!(sc.ell(), 10);
        assert_eq!(sc.memory_bits(), 3);
    }

    #[test]
    fn selection_complexity_matches_theorem_3_7() {
        // chi = log log D + O(1) for ell = O(1).
        for d_exp in [8u32, 16, 32] {
            let d = 1u64 << d_exp;
            let agent = CoinNonUniformSearch::new(d, 1).unwrap();
            let sc = agent.selection_complexity();
            assert_eq!(sc.ell(), 1);
            // b = ceil(log2 k) + 3 with k = log2 D.
            let expect_b = crate::ceil_log2(d_exp as u64) + 3;
            assert_eq!(sc.memory_bits(), expect_b, "D = 2^{d_exp}");
            let loglog = (d_exp as f64).log2();
            assert!(
                (sc.chi() - loglog).abs() <= 3.0 + 1e-9,
                "chi {} vs log log D {}",
                sc.chi(),
                loglog
            );
        }
    }

    #[test]
    fn k_parameter_matches_paper() {
        // k = ceil(log2 D / ell).
        assert_eq!(CoinNonUniformSearch::new(1024, 2).unwrap().k(), 5);
        assert_eq!(CoinNonUniformSearch::new(1024, 3).unwrap().k(), 4);
        assert_eq!(CoinNonUniformSearch::new(1024, 10).unwrap().k(), 1);
    }

    #[test]
    fn coin_version_still_finds_targets() {
        let mut agent = CoinNonUniformSearch::new(16, 2).unwrap();
        let found = moves_to_find(&mut agent, Point::new(-5, 9), 3_000_000, 3);
        assert!(found.is_some());
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut a = NonUniformSearch::new(32).unwrap();
        let mut b = NonUniformSearch::new(32).unwrap();
        // Burn a in.
        let mut rng = derive_rng(9, 0);
        for _ in 0..137 {
            let _ = a.step(&mut rng);
        }
        a.reset();
        // Same seed -> identical future for fresh and reset agents.
        let mut r1 = derive_rng(10, 0);
        let mut r2 = derive_rng(10, 0);
        for _ in 0..200 {
            assert_eq!(a.step(&mut r1), b.step(&mut r2));
        }
    }

    #[test]
    fn iterations_return_to_origin() {
        let mut agent = NonUniformSearch::new(4).unwrap();
        let mut rng = derive_rng(12, 0);
        let mut pos = Point::ORIGIN;
        let mut saw_origin_action = false;
        for _ in 0..10_000 {
            let a = agent.step(&mut rng);
            pos = apply_action(pos, a);
            if a == GridAction::Origin {
                assert_eq!(pos, Point::ORIGIN);
                saw_origin_action = true;
            }
        }
        assert!(saw_origin_action);
    }

    #[test]
    #[should_panic(expected = "D >= 2")]
    fn tiny_d_rejected() {
        let _ = NonUniformSearch::new(1);
    }
}
