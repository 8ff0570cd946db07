//! Lévy-walk baseline from the foraging literature.
//!
//! The biology literature the paper engages with (its references
//! [4, 16–18]) frequently models foragers as *Lévy walkers*: straight
//! ballistic legs whose lengths follow a truncated power law
//! `P[L ≥ x] ∝ x^{1−μ}` with exponent `μ ∈ (1, 3]`. We include it as a
//! biologically-motivated comparator: its selection complexity is
//! intermediate (it must count a leg length up to the truncation scale,
//! so `b = Θ(log L_max)`), and with `μ ≈ 2` it diffuses much faster than
//! the uniform random walk while still lacking the paper's collaborative
//! `D²/n` scaling.

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_grid::Direction;
use ants_rng::{DefaultRng, Rng64};

/// A truncated-power-law Lévy walker.
///
/// Each leg: pick a uniform direction, draw a length `L` with
/// `P[L = x] ∝ x^{−μ}` on `{1, …, l_max}`, walk straight for `L` moves.
#[derive(Debug, Clone)]
pub struct LevyWalk {
    mu: f64,
    l_max: u64,
    /// Precomputed CDF over leg lengths 1..=l_max.
    cdf: Vec<f64>,
    dir: Direction,
    remaining: u64,
}

impl LevyWalk {
    /// Create a Lévy walker with exponent `mu` and truncation `l_max`.
    ///
    /// # Panics
    ///
    /// Panics unless `1.0 < mu <= 4.0` and `1 <= l_max <= 2^20` (the
    /// tabulated CDF would otherwise be degenerate or enormous).
    pub fn new(mu: f64, l_max: u64) -> Self {
        assert!(mu > 1.0 && mu <= 4.0, "Levy exponent must be in (1, 4]");
        assert!((1..=1 << 20).contains(&l_max), "l_max must be in 1..=2^20");
        let mut cdf = Vec::with_capacity(l_max as usize);
        let mut acc = 0.0;
        for x in 1..=l_max {
            acc += (x as f64).powf(-mu);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { mu, l_max, cdf, dir: Direction::Up, remaining: 0 }
    }

    /// The classic foraging-optimal exponent `μ = 2` (Viswanathan et al.).
    pub fn foraging_optimal(l_max: u64) -> Self {
        Self::new(2.0, l_max)
    }

    /// The power-law exponent.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The truncation scale.
    pub fn l_max(&self) -> u64 {
        self.l_max
    }

    fn draw_leg<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = rng.next_f64();
        // Binary search the CDF.
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN")) {
            Ok(i) | Err(i) => (i as u64 + 1).min(self.l_max),
        }
    }
}

impl SearchStrategy for LevyWalk {
    fn name(&self) -> &'static str {
        "Levy walk"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        if self.remaining == 0 {
            self.dir = Direction::ALL[rng.next_below(4) as usize];
            self.remaining = self.draw_leg(rng);
        }
        self.remaining -= 1;
        GridAction::Move(self.dir)
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // Leg counter up to l_max: b = ceil(log2 l_max) + 2 (direction).
        // Drawing from the power law at resolution sufficient to separate
        // the l_max outcomes needs probabilities ~ l_max^{-mu}:
        // ell ~ mu * log2(l_max).
        let b = crate::ceil_log2(self.l_max.max(1)) + 2;
        let ell = (self.mu * crate::ceil_log2(self.l_max.max(1)) as f64).ceil() as u32;
        SelectionComplexity::new(b, ell.max(1))
    }

    fn reset(&mut self) {
        self.remaining = 0;
        self.dir = Direction::Up;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_grid::Point;
    use ants_rng::derive_rng;

    #[test]
    fn always_moves() {
        let mut w = LevyWalk::foraging_optimal(64);
        let mut rng = derive_rng(1, 0);
        for _ in 0..500 {
            assert!(w.step(&mut rng).is_move());
        }
    }

    #[test]
    fn leg_lengths_follow_power_law() {
        let w = LevyWalk::new(2.0, 256);
        let mut rng = derive_rng(2, 0);
        let n = 200_000;
        let mut ones = 0u64;
        let mut long = 0u64; // >= 16
        for _ in 0..n {
            let l = w.draw_leg(&mut rng);
            assert!((1..=256).contains(&l));
            if l == 1 {
                ones += 1;
            }
            if l >= 16 {
                long += 1;
            }
        }
        // For mu = 2, Z = sum x^-2 ~ pi^2/6 * (truncated) ~ 1.64.
        // P[L = 1] ~ 1/1.64 ~ 0.61; P[L >= 16] ~ sum_{16..256} x^-2 / Z ~ 0.036.
        let f1 = ones as f64 / n as f64;
        let f16 = long as f64 / n as f64;
        assert!((f1 - 0.61).abs() < 0.02, "P[L=1] = {f1}");
        assert!((f16 - 0.036).abs() < 0.012, "P[L>=16] = {f16}");
    }

    #[test]
    fn superdiffusive_vs_random_walk() {
        // At equal step counts, the Levy walker strays much farther than
        // a uniform random walker (ballistic legs).
        let t = 4000u64;
        let trials = 300;
        let mut levy_sq = 0f64;
        let mut rw_sq = 0f64;
        for s in 0..trials {
            let mut levy = LevyWalk::foraging_optimal(512);
            let mut rw = crate::baselines::RandomWalk::new();
            let mut r1 = derive_rng(s, 1);
            let mut r2 = derive_rng(s, 2);
            let mut p1 = Point::ORIGIN;
            let mut p2 = Point::ORIGIN;
            for _ in 0..t {
                p1 = apply_action(p1, levy.step(&mut r1));
                p2 = apply_action(p2, rw.step(&mut r2));
            }
            levy_sq += (p1.x * p1.x + p1.y * p1.y) as f64;
            rw_sq += (p2.x * p2.x + p2.y * p2.y) as f64;
        }
        assert!(levy_sq > 3.0 * rw_sq, "Levy msd {levy_sq} should far exceed random walk {rw_sq}");
    }

    #[test]
    fn selection_complexity_is_intermediate() {
        let w = LevyWalk::new(2.0, 1024);
        let sc = w.selection_complexity();
        // b ~ log l_max + 2 = 12; ell ~ 2 * 10 = 20.
        assert_eq!(sc.memory_bits(), 12);
        assert!(sc.ell() >= 16);
        // chi >> log log D for any realistic D: it is NOT a low-chi agent.
        assert!(sc.chi() > 10.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn mu_out_of_range_rejected() {
        let _ = LevyWalk::new(1.0, 16);
    }

    #[test]
    fn reset_clears_leg() {
        let mut w = LevyWalk::foraging_optimal(64);
        let mut rng = derive_rng(3, 0);
        let _ = w.step(&mut rng);
        w.reset();
        assert_eq!(w.remaining, 0);
    }
}
