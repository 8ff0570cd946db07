//! The sparse storage of the forward DP ([`crate::forward`]): only the
//! occupied `(state, position)` entries instead of the full dense budget
//! square.
//!
//! ## Representation
//!
//! The frontier is a `Vec<(u64, f64)>` sorted by a packed key
//! `(state, x + B, y + B)` (state in the high 22 bits, each offset
//! coordinate in 21 bits). One step scatters every entry through its
//! state's exits into the write half, then a *stable* sort + run merge
//! rebuilds the sorted frontier. Stability matters: contributions to one
//! cell are summed in exactly the order the dense table would have added
//! them, so an unfolded sparse solve is bit-identical to the dense solve
//! — same CDF bytes, same pruned mass, same summation order. The cost
//! per step is `O(E log E)` in the number of scattered entries `E`,
//! against the dense table's `O(states × (2B+1)²)` regardless of
//! occupancy; kernels whose mass stays concentrated (mortal expiries,
//! long budgets with far targets, drift automata) keep `E` orders of
//! magnitude below the box.
//!
//! ## Symmetry folding
//!
//! Every bundled kernel is axis-symmetric, and target placements put
//! the target on an axis or diagonal often enough to exploit it: when a
//! grid reflection `σ` fixes the target, fixes the origin, and leaves
//! every lowered row invariant (as a multiset of exits with σ-mapped
//! geometry), the DP runs on the quotient chain — each stored entry
//! carries the *total* mass of its `{p, σp}` orbit and scatters to
//! canonical representatives only. That halves the frontier (minus the
//! fixed axis) at the cost of last-ulp differences from the dense solve;
//! agreement stays far inside the crate's 1e-9 exactness tolerance
//! (proptest-pinned in `tests/sparse_parity.rs`).
//!
//! ## Guards
//!
//! A per-step cap on the merged frontier length
//! ([`crate::MAX_FRONTIER_ENTRIES`]) and the packed-key coordinate span
//! ([`crate::MAX_SPARSE_SPAN`]) — there is no up-front refusal based on
//! the budget square, which is the point: cells the dense guard rejects
//! outright often have tiny frontiers.

use crate::error::DpError;
use crate::forward::{Exit, Row, Storage};
use ants_grid::Point;

/// A grid reflection through the origin that the folded DP can quotient
/// by. Each fixes the origin; legality against a given target/kernel is
/// decided by [`mirror_for`] and [`invariant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mirror {
    /// `(x, y) → (x, −y)` — legal when the target sits on the x-axis.
    NegY,
    /// `(x, y) → (−x, y)` — legal when the target sits on the y-axis.
    NegX,
    /// `(x, y) → (y, x)` — legal when the target sits on the diagonal.
    Swap,
    /// `(x, y) → (−y, −x)` — legal when the target sits on the
    /// anti-diagonal.
    AntiSwap,
}

impl Mirror {
    /// Apply the reflection to a point (or a move's displacement).
    pub(crate) fn map(self, x: i64, y: i64) -> (i64, i64) {
        match self {
            Mirror::NegY => (x, -y),
            Mirror::NegX => (-x, y),
            Mirror::Swap => (y, x),
            Mirror::AntiSwap => (-y, -x),
        }
    }

    /// The canonical representative of `(x, y)`'s orbit.
    #[inline]
    fn canon(self, x: i64, y: i64) -> (i64, i64) {
        let canonical = match self {
            Mirror::NegY => y >= 0,
            Mirror::NegX => x >= 0,
            Mirror::Swap => x >= y,
            Mirror::AntiSwap => x + y >= 0,
        };
        if canonical {
            (x, y)
        } else {
            self.map(x, y)
        }
    }
}

/// The first reflection that fixes `target` (the origin is fixed by
/// all four). `None` for off-axis, off-diagonal targets.
pub(crate) fn mirror_for(target: Point) -> Option<Mirror> {
    if target.y == 0 {
        Some(Mirror::NegY)
    } else if target.x == 0 {
        Some(Mirror::NegX)
    } else if target.x == target.y {
        Some(Mirror::Swap)
    } else if target.x == -target.y {
        Some(Mirror::AntiSwap)
    } else {
        None
    }
}

/// Is every lowered row invariant under `m`: are its exits, and its
/// resets, the same multisets with σ-mapped geometry? Truncation
/// fractions are position-free, so they never break invariance.
pub(crate) fn invariant(rows: &[Row], m: Mirror) -> bool {
    let fixed = |exits: &[Exit]| {
        let keys = |m| {
            let mut k: Vec<_> = exits.iter().map(|e| e.key(m)).collect();
            k.sort_unstable();
            k
        };
        keys(None) == keys(Some(m))
    };
    rows.iter().all(|row| fixed(&row.each) && fixed(&row.resets))
}

/// Packed `(state, x + span, y + span)` key; sorts state-major then
/// row-major — the dense table's exact iteration order.
#[inline]
fn pack(span: i64, s: usize, x: i64, y: i64) -> u64 {
    debug_assert!(x.abs() <= span && y.abs() <= span);
    ((s as u64) << 42) | (((x + span) as u64) << 21) | ((y + span) as u64)
}

#[inline]
fn state_of(key: u64) -> usize {
    (key >> 42) as usize
}

/// The sorted sparse frontier, folded by an optional mirror.
pub(crate) struct Frontier {
    span: i64,
    fold: Option<Mirror>,
    entries: Vec<(u64, f64)>,
}

impl Storage for Frontier {
    type Group = (usize, usize);

    fn open(
        states: usize,
        span: u64,
        fold: Option<Mirror>,
        label: &str,
        horizon: &str,
    ) -> Result<Frontier, DpError> {
        let hint = "shrink the cell or use backend = \"mc\"";
        if span > crate::MAX_SPARSE_SPAN {
            return Err(DpError::Guard {
                what: format!("sparse frontier coordinate span for {label} ({horizon} {span})"),
                limit: crate::MAX_SPARSE_SPAN as usize,
                hint: hint.into(),
            });
        }
        if states >= 1 << 22 {
            return Err(DpError::Guard {
                what: format!("sparse frontier state space for {label} ({states} states)"),
                limit: (1 << 22) - 1,
                hint: hint.into(),
            });
        }
        Ok(Frontier { span: span as i64, fold, entries: Vec::new() })
    }

    fn clear(&mut self, _radius: i64) {
        self.entries.clear();
    }

    #[inline]
    fn add(&mut self, state: usize, x: i64, y: i64, mass: f64) {
        let (x, y) = self.fold.map_or((x, y), |m| m.canon(x, y));
        self.entries.push((pack(self.span, state, x, y), mass));
    }

    fn next_group(&self, cursor: &mut usize) -> Option<(usize, (usize, usize))> {
        let start = *cursor;
        let s = state_of(self.entries.get(start)?.0);
        *cursor = start + self.entries[start..].partition_point(|&(k, _)| state_of(k) == s);
        Some((s, (start, *cursor)))
    }

    #[inline]
    fn visit(&self, (start, end): (usize, usize), _radius: i64, mut f: impl FnMut(i64, i64, f64)) {
        for &(key, p) in &self.entries[start..end] {
            let x = ((key >> 21) & 0x1f_ffff) as i64 - self.span;
            let y = (key & 0x1f_ffff) as i64 - self.span;
            f(x, y, p);
        }
    }

    /// Stable-sort `nxt`'s scatter list and merge equal keys by
    /// left-to-right summation (the dense table's accumulation order)
    /// into `cur`.
    fn settle(
        cur: &mut Frontier,
        nxt: &mut Frontier,
        label: &str,
        at: std::fmt::Arguments<'_>,
    ) -> Result<usize, DpError> {
        nxt.entries.sort_by_key(|&(k, _)| k);
        cur.entries.clear();
        for &(k, p) in &nxt.entries {
            match cur.entries.last_mut() {
                Some(last) if last.0 == k => last.1 += p,
                _ => cur.entries.push((k, p)),
            }
        }
        let live = cur.entries.len();
        if live > crate::MAX_FRONTIER_ENTRIES {
            return Err(DpError::Guard {
                what: format!("sparse frontier for {label} ({live} live entries at {at})"),
                limit: crate::MAX_FRONTIER_ENTRIES,
                hint: "shrink the cell or use backend = \"mc\"".into(),
            });
        }
        Ok(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse;
    use crate::forward::{solve, AbsorptionCurve};
    use crate::kernel::MarkovKernel;
    use crate::kernel::{mortal_kernel, nonuniform_kernel, randomwalk_kernel};
    use crate::{absorption_cdf_mode, DpMode};

    /// A step-clock solve over 24 rounds, with its storage statistics.
    fn rounds(k: &dyn MarkovKernel, target: Point, mode: DpMode) -> AbsorptionCurve {
        solve(k, k.label(), target, 24, mode).unwrap()
    }

    #[test]
    fn off_axis_target_folds_nothing() {
        assert_eq!(mirror_for(Point::new(2, 1)), None);
        assert_eq!(mirror_for(Point::new(3, 0)), Some(Mirror::NegY));
        assert_eq!(mirror_for(Point::new(0, -3)), Some(Mirror::NegX));
        assert_eq!(mirror_for(Point::new(2, 2)), Some(Mirror::Swap));
        assert_eq!(mirror_for(Point::new(2, -2)), Some(Mirror::AntiSwap));
    }

    #[test]
    fn unfolded_sparse_is_bit_identical_to_dense() {
        // Target (2,1) admits no mirror, so the sparse solve replays the
        // dense summation order exactly — byte-identical CDF.
        let c = collapse(&nonuniform_kernel(4).unwrap()).unwrap();
        let target = Point::new(2, 1);
        let dense = absorption_cdf_mode(&c, "nu", target, 24, DpMode::Dense).unwrap();
        let sparse = absorption_cdf_mode(&c, "nu", target, 24, DpMode::Sparse).unwrap();
        assert!(!sparse.stats.folded);
        assert_eq!(dense.lost.to_bits(), sparse.lost.to_bits());
        for (m, (a, b)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "move {m}: {a} vs {b}");
        }
    }

    #[test]
    fn folded_sparse_agrees_with_dense_on_axis_target() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let target = Point::new(3, 0);
        let dense = absorption_cdf_mode(&c, "rw", target, 32, DpMode::Dense).unwrap();
        let sparse = absorption_cdf_mode(&c, "rw", target, 32, DpMode::Sparse).unwrap();
        assert!(sparse.stats.folded, "axis target must fold");
        for (m, (a, b)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "move {m}: {a} vs {b}");
        }
        // Folding roughly halves the frontier.
        let unfolded = absorption_cdf_mode(&c, "rw", Point::new(3, 1), 32, DpMode::Sparse).unwrap();
        assert!(sparse.stats.peak_entries < unfolded.stats.peak_entries);
    }

    #[test]
    fn sparse_solves_past_the_dense_guard() {
        // mortal(randomwalk, 1000) at budget 64: the dense table wants
        // 1001 × 129² ≈ 16.7M entries (> MAX_TABLE_ENTRIES), but only
        // one lifetime layer is ever occupied, so the frontier stays
        // tiny.
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 1000).unwrap();
        let c = collapse(&k).unwrap();
        let target = Point::new(4, 0);
        assert!(matches!(
            absorption_cdf_mode(&c, "mortal", target, 64, DpMode::Dense),
            Err(DpError::Guard { .. })
        ));
        let curve = absorption_cdf_mode(&c, "mortal", target, 64, DpMode::Sparse).unwrap();
        assert_eq!(curve.cdf.len(), 65);
        assert!(curve.stats.peak_entries <= 129 * 129);
        // The free walk never expires within 64 moves, so the curves
        // agree with the plain random walk's.
        let free = collapse(&inner).unwrap();
        let base = absorption_cdf_mode(&free, "rw", target, 64, DpMode::Dense).unwrap();
        for (m, (a, b)) in base.cdf.iter().zip(curve.cdf.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "move {m}: {a} vs {b}");
        }
    }

    #[test]
    fn sparse_step_cdf_matches_dense_rounds() {
        // The random walk's single state is row-invariant under every
        // mirror, so a diagonal target folds.
        let rw = randomwalk_kernel();
        let dense = rounds(&rw, Point::new(2, 2), DpMode::Dense);
        let sparse = rounds(&rw, Point::new(2, 2), DpMode::Sparse);
        assert!(sparse.stats.folded, "diagonal target must fold for the random walk");
        for (r, (a, b)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "round {r}: {a} vs {b}");
        }
        // The nonuniform kernel encodes its walk direction in the state
        // (vertical vs horizontal blocks), so no identity-on-state
        // mirror leaves its rows invariant: every target runs unfolded —
        // and therefore bit-identical to the dense rounds DP.
        let k = nonuniform_kernel(4).unwrap();
        for target in [Point::new(1, 1), Point::new(2, 1)] {
            let unfolded = rounds(&k, target, DpMode::Sparse);
            assert!(!unfolded.stats.folded);
            let dense2 = rounds(&k, target, DpMode::Dense);
            for (r, (a, b)) in dense2.cdf.iter().zip(unfolded.cdf.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "round {r}");
            }
        }
    }

    #[test]
    fn span_guard_trips_on_absurd_budget() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let budget = crate::MAX_SPARSE_SPAN + 1;
        let err = absorption_cdf_mode(&c, "rw", Point::new(1, 0), budget, DpMode::Sparse);
        assert!(matches!(err, Err(DpError::Guard { .. })), "{err:?}");
    }
}
