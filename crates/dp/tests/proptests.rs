//! Property battery for the exact backend's kernels and DPs.
//!
//! Three invariants hold for *every* kernel the zoo can construct:
//!
//! * **Stochastic rows** — each state's transition probabilities sum to
//!   1 within a 1-ulp-scale tolerance (the probabilities are dyadic, so
//!   the only slack is f64 summation round-off);
//! * **Closed state spaces** — no transition leaves the declared state
//!   space, and the start state is inside it;
//! * **Monotone CDFs** — the absorption CDF the forward DP produces is
//!   monotone non-decreasing in the move budget, starts at zero, and
//!   never exceeds 1 (up to round-off).

use ants_automaton::library;
use ants_dp::{
    absorption_cdf_mode, coin_kernel, collapse, mortal_kernel, nonuniform_kernel, pfa_kernel,
    randomwalk_kernel, step_absorption_cdf_mode, uniform_kernel, DpMode, MarkovKernel,
    PositionClass, TableKernel, UNIFORM_PHASE_CAP,
};
use ants_grid::Point;
use proptest::prelude::*;

/// Summation slack for a stochastic row: dyadic entries are exact, so a
/// handful of additions can miss 1.0 by at most a few ulps.
const ROW_TOL: f64 = 1e-12;

/// A selection of zoo kernels spanning every constructor. Index-driven
/// so proptest can draw one uniformly.
fn zoo_kernel(which: usize) -> TableKernel {
    match which {
        0 => randomwalk_kernel(),
        1 => nonuniform_kernel(4).unwrap(),
        2 => nonuniform_kernel(100).unwrap(),
        3 => coin_kernel(16, 1).unwrap(),
        4 => coin_kernel(64, 3).unwrap(),
        5 => uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap(),
        6 => uniform_kernel(2, 8, 3, UNIFORM_PHASE_CAP).unwrap(),
        7 => pfa_kernel("automaton(rw)", &library::random_walk()),
        8 => pfa_kernel("automaton(lazy)", &library::lazy_random_walk()),
        9 => pfa_kernel("automaton(drift4)", &library::drift_walk(4).unwrap()),
        10 => pfa_kernel("automaton(alg1)", &library::algorithm1(3).unwrap()),
        11 => mortal_kernel(&randomwalk_kernel(), 7).unwrap(),
        12 => mortal_kernel(&nonuniform_kernel(8).unwrap(), 25).unwrap(),
        _ => mortal_kernel(&coin_kernel(8, 2).unwrap(), 12).unwrap(),
    }
}

const ZOO_SIZE: usize = 14;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_are_stochastic(which in 0usize..ZOO_SIZE) {
        let k = zoo_kernel(which);
        for s in 0..k.num_states() {
            for pos in [PositionClass::Origin, PositionClass::Away] {
                let sum: f64 = k.row(s, pos).iter().map(|t| t.prob).sum();
                prop_assert!(
                    (sum - 1.0).abs() <= ROW_TOL,
                    "kernel {} state {s}: row sums to {sum}",
                    k.label()
                );
                prop_assert!(
                    k.row(s, pos).iter().all(|t| t.prob > 0.0 && t.prob <= 1.0),
                    "kernel {} state {s}: probabilities outside (0, 1]",
                    k.label()
                );
            }
        }
    }

    #[test]
    fn state_spaces_are_closed(which in 0usize..ZOO_SIZE) {
        let k = zoo_kernel(which);
        let n = k.num_states();
        prop_assert!(k.start() < n, "start state outside the space");
        for s in 0..n {
            for t in k.row(s, PositionClass::Away) {
                prop_assert!(
                    t.next < n,
                    "kernel {} state {s}: transition to {} leaves the {n}-state space",
                    k.label(),
                    t.next
                );
            }
        }
        for &t in k.truncation_states() {
            prop_assert!(t < n, "truncation state {t} outside the space");
        }
    }

    #[test]
    fn collapse_conserves_probability(which in 0usize..ZOO_SIZE) {
        let k = zoo_kernel(which);
        let c = collapse(&k).unwrap();
        for (s, row) in c.rows.iter().enumerate() {
            let mass: f64 = row.exits.iter().map(|&(_, p)| p).sum::<f64>() + row.trunc;
            // Deficit (halted mass) is legal; excess is not.
            prop_assert!(
                mass <= 1.0 + 1e-9,
                "kernel {} state {s}: collapsed mass {mass} exceeds 1",
                k.label()
            );
            prop_assert!(row.trunc >= 0.0);
            for &(e, p) in &row.exits {
                prop_assert!((e as usize) < c.exits.len());
                prop_assert!(p > 0.0 && p <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn absorption_cdf_is_monotone(
        which in 0usize..ZOO_SIZE,
        tx in -3i64..=3,
        ty in -3i64..=3,
        budget in 1u64..40,
    ) {
        let target = if tx == 0 && ty == 0 { Point::new(1, 0) } else { Point::new(tx, ty) };
        let k = zoo_kernel(which);
        let c = collapse(&k).unwrap();
        let curve = absorption_cdf_mode(&c, k.label(), target, budget, DpMode::Dense).unwrap();
        prop_assert_eq!(curve.cdf.len(), budget as usize + 1);
        prop_assert_eq!(curve.cdf[0], 0.0);
        for m in 1..curve.cdf.len() {
            prop_assert!(
                curve.cdf[m] >= curve.cdf[m - 1],
                "kernel {} target {target}: CDF decreases at move {m}",
                k.label()
            );
        }
        prop_assert!(*curve.cdf.last().unwrap() <= 1.0 + 1e-9);
    }

    #[test]
    fn step_cdf_is_monotone_and_lags_moves(
        which in 0usize..ZOO_SIZE,
        horizon in 1u64..32,
    ) {
        let target = Point::new(1, 1);
        let k = zoo_kernel(which);
        let by_round =
            step_absorption_cdf_mode(&k, k.label(), target, horizon, DpMode::Dense).unwrap();
        for r in 1..by_round.len() {
            prop_assert!(by_round[r] >= by_round[r - 1]);
        }
        // Found within r rounds implies found within r moves.
        let c = collapse(&k).unwrap();
        let by_move = absorption_cdf_mode(&c, k.label(), target, horizon, DpMode::Dense).unwrap();
        for (r, (&br, &bm)) in by_round.iter().zip(by_move.cdf.iter()).enumerate() {
            prop_assert!(
                br <= bm + 1e-12,
                "kernel {}: round CDF overtakes move CDF at {r}",
                k.label()
            );
        }
    }
}
