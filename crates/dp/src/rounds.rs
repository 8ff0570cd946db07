//! The step clock: curves for the observation-metric vocabulary.
//!
//! The observed simulator (`observe.rs` in `ants-sim`) runs every agent
//! for a fixed number of *rounds* — one kernel step per round — and
//! records coverage, first visits, and found rounds against that clock.
//! The curves here mirror that clock exactly: this module lowers the raw
//! step-indexed kernel (no per-move collapse) for the forward DP
//! ([`crate::forward`]), which absorbs on *move landings*, matching the
//! recorder's rule that a cell is visited at round `r` when a move
//! performed in round `r` lands on it (the origin is recorded at round 0
//! at spawn; `Origin` teleports do not record). Each `Away` transition
//! becomes one exit: `Move` and `None` shift the position, `Origin`
//! jumps to the origin, and a transition into a truncation state is
//! lost mass.
//!
//! Both public curves are the same first-passage solve:
//!
//! * [`step_absorption_cdf_mode`] — `F(r)` = P(a move has landed on the
//!   target within the first `r` rounds): the found-round curve;
//! * [`visit_survival_curve_mode`] — `q(r)` = P(a bounds cell is still
//!   unvisited after `r` rounds): the coverage/first-visit ingredient
//!   (per-cell curves combine across independent agents as `q̄(r)^n`).
//!
//! [`chi_support`] is the χ analogue: the exact per-round internal-state
//! marginal accumulates per-state occupancy mass, and the footprint is
//! the maximum χ over states whose accumulated mass clears
//! [`crate::CHI_MASS_FLOOR`]. For phase-growing strategies this is a
//! *support statistic* (the largest footprint reached with
//! non-negligible probability), which is the exact-backend analogue of
//! the simulator's running-max footprint column.

use crate::error::DpError;
use crate::forward::{solve, Clock, Exit, Row, To};
use crate::kernel::{MarkovKernel, PositionClass};
use crate::DpMode;
use ants_automaton::GridAction;
use ants_grid::Point;

impl Clock for dyn MarkovKernel + '_ {
    const HORIZON: &'static str = "horizon";
    const STEP: &'static str = "round";

    fn lower(&self) -> (Vec<Row>, usize) {
        let rows = (0..self.num_states())
            .map(|s| {
                let each = self
                    .row(s, PositionClass::Away)
                    .iter()
                    .filter(|t| t.prob != 0.0)
                    .map(|t| {
                        let (to, (x, y)) = match t.action {
                            GridAction::Move(dir) => (To::Shift, dir.delta()),
                            GridAction::None => (To::Shift, (0, 0)),
                            GridAction::Origin => (To::Jump, (0, 0)),
                        };
                        let lost = self.truncation_states().contains(&t.next);
                        let to = if lost { To::Lost } else { to };
                        Exit { next: t.next, to, x, y, prob: t.prob }
                    })
                    .collect();
                Row { each, resets: Vec::new(), trunc: 0.0 }
            })
            .collect();
        (rows, self.start())
    }
}

/// The found-round curve: `out[r]` = P(the agent has found `target`
/// within the first `r` rounds of observed stepping), on the table
/// representation `mode` resolves to ([`crate::DpMode::resolve`]).
///
/// # Errors
///
/// [`DpError::Guard`] / [`DpError::Truncation`] as
/// [`crate::absorption_cdf_mode`]; [`DpError::Unsupported`] for an
/// origin target.
pub fn step_absorption_cdf_mode(
    kernel: &dyn MarkovKernel,
    label: &str,
    target: Point,
    horizon: u64,
    mode: DpMode,
) -> Result<Vec<f64>, DpError> {
    solve(kernel, label, target, horizon, mode).map(|curve| curve.cdf)
}

/// The per-cell survival curve: `out[r]` = P(`cell` is still unvisited
/// after `r` rounds), on the table representation `mode` resolves to.
/// The origin is visited at spawn (round 0), so its curve is
/// identically zero.
///
/// # Errors
///
/// [`DpError::Guard`] / [`DpError::Truncation`] as
/// [`crate::absorption_cdf_mode`].
pub fn visit_survival_curve_mode(
    kernel: &dyn MarkovKernel,
    label: &str,
    cell: Point,
    horizon: u64,
    mode: DpMode,
) -> Result<Vec<f64>, DpError> {
    if cell == Point::ORIGIN {
        return Ok(vec![0.0; horizon as usize + 1]);
    }
    let f = solve(kernel, label, cell, horizon, mode)?.cdf;
    Ok(f.into_iter().map(|p| 1.0 - p).collect())
}

/// The exact-backend χ footprint: the maximum `χ` over internal states
/// whose accumulated occupancy mass across rounds `0..=horizon` exceeds
/// [`crate::CHI_MASS_FLOOR`]. Positionless — the state marginal does not
/// depend on the grid — so this is cheap even for large kernels.
pub fn chi_support(kernel: &dyn MarkovKernel, horizon: u64) -> f64 {
    let states = kernel.num_states();
    let mut sigma = vec![0.0f64; states];
    let mut next = vec![0.0f64; states];
    let mut acc = vec![0.0f64; states];
    sigma[kernel.start()] = 1.0;
    for _ in 0..=horizon {
        for s in 0..states {
            acc[s] += sigma[s];
        }
        next.fill(0.0);
        for (s, &p) in sigma.iter().enumerate() {
            if p < crate::CHI_MASS_FLOOR {
                continue;
            }
            for t in kernel.row(s, PositionClass::Away) {
                next[t.next] += p * t.prob;
            }
        }
        std::mem::swap(&mut sigma, &mut next);
    }
    (0..states)
        .filter(|&s| acc[s] > crate::CHI_MASS_FLOOR && !kernel.truncation_states().contains(&s))
        .map(|s| kernel.chi(s).chi())
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{
        mortal_kernel, nonuniform_kernel, randomwalk_kernel, uniform_kernel, UNIFORM_PHASE_CAP,
    };

    #[test]
    fn randomwalk_steps_equal_moves() {
        // For the random walk every step is a move, so the step-indexed
        // curve equals the move-indexed one.
        let k = randomwalk_kernel();
        let by_round =
            step_absorption_cdf_mode(&k, "rw", Point::new(1, 0), 6, DpMode::Dense).unwrap();
        let collapsed = crate::collapse::collapse(&k).unwrap();
        let by_move =
            crate::absorption_cdf_mode(&collapsed, "rw", Point::new(1, 0), 6, DpMode::Dense)
                .unwrap();
        for (r, (a, b)) in by_round.iter().zip(by_move.cdf.iter()).enumerate() {
            assert!((a - b).abs() < 1e-15, "round {r}: {a} vs {b}");
        }
    }

    #[test]
    fn nonuniform_rounds_lag_moves() {
        // Coin flips consume rounds without moving, so the round-indexed
        // CDF is pointwise at most the move-indexed one.
        let k = nonuniform_kernel(4).unwrap();
        let by_round =
            step_absorption_cdf_mode(&k, "nu", Point::new(1, 1), 24, DpMode::Dense).unwrap();
        let collapsed = crate::collapse::collapse(&k).unwrap();
        let by_move =
            crate::absorption_cdf_mode(&collapsed, "nu", Point::new(1, 1), 24, DpMode::Dense)
                .unwrap();
        for (r, (&br, &bm)) in by_round.iter().zip(by_move.cdf.iter()).enumerate() {
            assert!(br <= bm + 1e-15, "round {r}: {br} > {bm}");
        }
        assert!(by_round[24] > 0.0);
    }

    #[test]
    fn visit_survival_origin_is_zero_and_neighbours_decay() {
        let k = randomwalk_kernel();
        let at_origin =
            visit_survival_curve_mode(&k, "rw", Point::ORIGIN, 8, DpMode::Dense).unwrap();
        assert!(at_origin.iter().all(|&q| q == 0.0));
        let near = visit_survival_curve_mode(&k, "rw", Point::new(0, 1), 8, DpMode::Dense).unwrap();
        assert_eq!(near[0], 1.0);
        assert_eq!(near[1], 0.75);
        for r in 1..near.len() {
            assert!(near[r] <= near[r - 1]);
        }
    }

    #[test]
    fn mortal_survival_freezes() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 2).unwrap();
        let q =
            visit_survival_curve_mode(&k, "mortal", Point::new(0, 1), 6, DpMode::Dense).unwrap();
        for r in 2..q.len() {
            assert_eq!(q[r], q[2], "round {r}");
        }
    }

    #[test]
    fn chi_support_static_kernel_is_its_chi() {
        let k = randomwalk_kernel();
        use crate::kernel::MarkovKernel as _;
        assert_eq!(chi_support(&k, 32), k.chi(0).chi());
    }

    #[test]
    fn chi_support_grows_with_horizon_for_uniform() {
        let k = uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap();
        let short = chi_support(&k, 4);
        let long = chi_support(&k, 4096);
        assert!(long > short, "support chi must grow with reachable phases: {short} vs {long}");
    }
}
