//! Property battery for the sparse-frontier solvers: for *every* kernel
//! the zoo can construct, the pruned sparse representation must agree
//! with the dense tables wherever both run.
//!
//! Three invariants:
//!
//! * **Absorption parity** — the move-budget absorption CDF computed on
//!   the sparse frontier matches the dense table pointwise within the
//!   truncation budget (1e-9; folding may shift a value by strictly less
//!   than the pruned mass), and bit for bit when no mirror fixes the
//!   target, since the sparse solve then replays the dense summation
//!   order;
//! * **Round-curve parity** — the per-round first-landing CDF and the
//!   per-cell visit survival curve agree under the same bounds;
//! * **Memo byte-identity** — a cell evaluated through a warm
//!   cross-cell curve cache renders the exact same [`DpCellReport`] as
//!   a fresh solve, for both representations.

use ants_automaton::library;
use ants_dp::{
    absorption_cdf_mode, coin_kernel, collapse, evaluate_with, mortal_kernel, nonuniform_kernel,
    pfa_kernel, randomwalk_kernel, step_absorption_cdf_mode, uniform_kernel,
    visit_survival_curve_mode, DpMode, DpRequest, DpStrategy, MarkovKernel, SolveCache,
    TableKernel, UNIFORM_PHASE_CAP,
};
use ants_grid::Point;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The exactness invariant: sparse and dense may differ only by the
/// pruned-mass budget, never more.
const PARITY_TOL: f64 = 1e-9;

/// Does a grid reflection through the origin fix `target` (an axis or a
/// diagonal)? Only then may a sparse solve fold and leave the dense
/// summation order.
fn may_fold(target: Point) -> bool {
    target.x == 0 || target.y == 0 || target.x == target.y || target.x == -target.y
}

/// Pointwise parity of two curves: bit-identical when `exact`, within
/// [`PARITY_TOL`] otherwise.
fn assert_parity(what: &str, dense: &[f64], sparse: &[f64], exact: bool) {
    prop_assert_eq!(dense.len(), sparse.len(), "{}: curve lengths differ", what);
    for (t, (&d, &s)) in dense.iter().zip(sparse).enumerate() {
        let ok = if exact { d.to_bits() == s.to_bits() } else { (d - s).abs() <= PARITY_TOL };
        prop_assert!(ok, "{what} at {t}: dense {d} vs sparse {s} (exact: {exact})");
    }
}

/// An off-origin target drawn from `-3..=3`².
fn target_of(tx: i64, ty: i64) -> Point {
    if tx == 0 && ty == 0 {
        Point::new(1, 0)
    } else {
        Point::new(tx, ty)
    }
}

/// A selection of zoo kernels spanning every constructor. Index-driven
/// so proptest can draw one uniformly (mirrors `proptests.rs`).
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

/// A plain map cache so the memo property exercises the same
/// [`SolveCache`] seam production uses, without depending on the
/// workload crate.
#[derive(Default)]
struct MapCache(Mutex<HashMap<String, Arc<Vec<f64>>>>);

impl SolveCache for MapCache {
    fn get(&self, key: &str) -> Option<Arc<Vec<f64>>> {
        self.0.lock().unwrap().get(key).cloned()
    }
    fn put(&self, key: &str, value: Arc<Vec<f64>>) {
        self.0.lock().unwrap().insert(key.to_string(), value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_absorption_matches_dense(
        which in 0usize..ZOO_SIZE,
        tx in -3i64..=3,
        ty in -3i64..=3,
        budget in 1u64..40,
    ) {
        let target = target_of(tx, ty);
        let k = zoo_kernel(which);
        let c = collapse(&k).unwrap();
        let dense = absorption_cdf_mode(&c, k.label(), target, budget, DpMode::Dense).unwrap();
        let sparse = absorption_cdf_mode(&c, k.label(), target, budget, DpMode::Sparse).unwrap();
        let what = format!("kernel {} target {target} moves", k.label());
        let exact = !may_fold(target);
        assert_parity(&what, &dense.cdf, &sparse.cdf, exact);
    }

    #[test]
    fn sparse_round_curves_match_dense(
        which in 0usize..ZOO_SIZE,
        tx in -3i64..=3,
        ty in -3i64..=3,
        horizon in 1u64..32,
    ) {
        let target = target_of(tx, ty);
        let k = zoo_kernel(which);
        let exact = !may_fold(target);
        let dense =
            step_absorption_cdf_mode(&k, k.label(), target, horizon, DpMode::Dense).unwrap();
        let sparse =
            step_absorption_cdf_mode(&k, k.label(), target, horizon, DpMode::Sparse).unwrap();
        let what = format!("kernel {} target {target} rounds", k.label());
        assert_parity(&what, &dense, &sparse, exact);
        let dense_q =
            visit_survival_curve_mode(&k, k.label(), target, horizon, DpMode::Dense).unwrap();
        let sparse_q =
            visit_survival_curve_mode(&k, k.label(), target, horizon, DpMode::Sparse).unwrap();
        let what = format!("kernel {} target {target} survival", k.label());
        assert_parity(&what, &dense_q, &sparse_q, exact);
    }

    #[test]
    fn memoized_reports_render_byte_identical(
        which in 0usize..ZOO_SIZE,
        budget in 1u64..24,
        sparse in any::<bool>(),
    ) {
        let mode = if sparse { DpMode::Sparse } else { DpMode::Dense };
        let req = DpRequest {
            agents: 2,
            move_budget: budget,
            trials: 500,
            population: vec![DpStrategy { weight: 1, kernel: zoo_kernel(which) }],
            targets: vec![(Point::new(1, 1), 1.0), (Point::new(2, 0), 1.0 / 2.0)],
            metrics: None,
            mode,
        };
        let fresh = evaluate_with(&req, None).unwrap();
        let cache = MapCache::default();
        let cold = evaluate_with(&req, Some(&cache)).unwrap();
        let warm = evaluate_with(&req, Some(&cache)).unwrap();
        // Debug rendering of f64 is bijective with its bits (modulo NaN,
        // which both sides produce identically), so string equality here
        // is byte-identity of everything a report can print.
        let fresh = format!("{fresh:?}");
        prop_assert_eq!(&fresh, &format!("{cold:?}"), "cold cache changed the report");
        prop_assert_eq!(&fresh, &format!("{warm:?}"), "warm cache changed the report");
    }
}
