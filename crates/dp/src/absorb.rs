//! The move clock: exact per-trial absorption CDFs indexed by *moves*.
//!
//! Given a collapsed kernel ([`crate::collapse`]) and a target cell, the
//! forward DP ([`crate::forward`]) propagates the exact joint occupancy
//! of `(internal state, position)` one *move* at a time, absorbing mass
//! that lands on the target. The result is the exact single-agent
//! absorption CDF `F(m) = P(find the target within m moves)` — the
//! distribution the simulator estimates with trials.
//!
//! This module lowers each collapsed row for that loop: clean exits
//! shift every occupied position, reset exits (an `Origin` teleport
//! happened during the segment, erasing the position) apply once to the
//! state's positional marginal and land at `dir.delta()`, and the row's
//! truncation probability becomes the marginal's truncation fraction.

use crate::collapse::CollapsedKernel;
use crate::error::DpError;
use crate::forward::{solve, AbsorptionCurve, Clock, Exit, Row, To};
use crate::DpMode;
use ants_grid::Point;

impl Clock for CollapsedKernel {
    const HORIZON: &'static str = "move budget";
    const STEP: &'static str = "move";

    fn lower(&self) -> (Vec<Row>, usize) {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut lowered = Row { each: Vec::new(), resets: Vec::new(), trunc: row.trunc };
                for &(e, prob) in &row.exits {
                    let exit = self.exits[e as usize];
                    let (x, y) = exit.dir.delta();
                    if exit.reset {
                        lowered.resets.push(Exit { next: exit.next, to: To::Jump, x, y, prob });
                    } else {
                        lowered.each.push(Exit { next: exit.next, to: To::Shift, x, y, prob });
                    }
                }
                lowered
            })
            .collect();
        (rows, self.start)
    }
}

/// Compute the exact absorption CDF of a single agent driven by
/// `collapsed` against `target`, for move budgets up to `budget`, on
/// the table representation `mode` resolves to
/// ([`crate::DpMode::resolve`]): dense at or below the measured
/// break-even, sparse beyond it.
///
/// # Errors
///
/// * [`DpError::Guard`] when the resolved storage refuses the shape
///   (the dense table past [`crate::MAX_TABLE_ENTRIES`], the sparse
///   frontier past [`crate::MAX_FRONTIER_ENTRIES`] or
///   [`crate::MAX_SPARSE_SPAN`]).
/// * [`DpError::Truncation`] when truncated + pruned mass exceeds
///   [`crate::TRUNCATION_TOL`].
/// * [`DpError::Unsupported`] when `target` is the origin (targets are
///   never placed there).
pub fn absorption_cdf_mode(
    collapsed: &CollapsedKernel,
    label: &str,
    target: Point,
    budget: u64,
    mode: DpMode,
) -> Result<AbsorptionCurve, DpError> {
    solve(collapsed, label, target, budget, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse;
    use crate::kernel::{mortal_kernel, nonuniform_kernel, randomwalk_kernel};

    #[test]
    fn randomwalk_first_moves_exact() {
        // Target (1,0): F(1) = 1/4. None of the three 1-move misses
        // ((0,1), (0,-1), (-1,0)) is adjacent to the target, so
        // F(2) = F(1). First hits at move 3 are miss->b->target with b a
        // free neighbour of the target: from (0,1) via (0,0) or (1,1),
        // from (0,-1) via (0,0) or (1,-1), from (-1,0) via (0,0) —
        // five paths of probability (1/4)^3 each.
        let c = collapse(&randomwalk_kernel()).unwrap();
        let curve =
            absorption_cdf_mode(&c, "randomwalk", Point::new(1, 0), 6, DpMode::Dense).unwrap();
        assert_eq!(curve.cdf[0], 0.0);
        assert_eq!(curve.cdf[1], 0.25);
        assert_eq!(curve.cdf[2], 0.25);
        let f3 = 0.25 + 5.0 / 64.0;
        assert!((curve.cdf[3] - f3).abs() < 1e-15, "F(3) = {}", curve.cdf[3]);
        for m in 1..curve.cdf.len() {
            assert!(curve.cdf[m] >= curve.cdf[m - 1]);
        }
        assert_eq!(curve.lost, 0.0);
    }

    #[test]
    fn mortal_curve_flatlines_at_expiry() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 3).unwrap();
        let c = collapse(&k).unwrap();
        let curve = absorption_cdf_mode(&c, "mortal", Point::new(1, 0), 8, DpMode::Dense).unwrap();
        let base = collapse(&inner).unwrap();
        let free =
            absorption_cdf_mode(&base, "randomwalk", Point::new(1, 0), 8, DpMode::Dense).unwrap();
        // Identical while alive, frozen after the third move.
        for m in 0..=3 {
            assert_eq!(curve.cdf[m], free.cdf[m], "move {m}");
        }
        for m in 4..=8 {
            assert_eq!(curve.cdf[m], curve.cdf[3], "move {m}");
        }
        assert!(free.cdf[8] > curve.cdf[8]);
    }

    #[test]
    fn nonuniform_far_target_unreachable_mass_is_conserved() {
        let k = nonuniform_kernel(4).unwrap();
        let c = collapse(&k).unwrap();
        let curve =
            absorption_cdf_mode(&c, "nonuniform(4)", Point::new(2, 2), 32, DpMode::Dense).unwrap();
        assert!(curve.cdf[32] > 0.0 && curve.cdf[32] < 1.0);
        assert!(curve.lost < crate::TRUNCATION_TOL);
    }

    #[test]
    fn table_guard_trips_on_huge_budget() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        // The larger budgets overflow a 64-bit table size.
        for budget in [1 << 12, 1 << 32, u64::MAX / 2] {
            let err =
                absorption_cdf_mode(&c, "randomwalk", Point::new(1, 0), budget, DpMode::Dense)
                    .unwrap_err();
            assert!(matches!(err, DpError::Guard { .. }), "{err}");
        }
    }

    #[test]
    fn origin_target_rejected() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let err =
            absorption_cdf_mode(&c, "randomwalk", Point::ORIGIN, 4, DpMode::Dense).unwrap_err();
        assert!(matches!(err, DpError::Unsupported { .. }));
    }
}
