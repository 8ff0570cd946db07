//! The sparse storage of the forward DP ([`crate::forward`]): only the
//! occupied `(state, position)` entries instead of the full dense budget
//! square.
//!
//! ## Representation
//!
//! The frontier is a `Vec<(u64, f64)>` sorted by a packed key
//! `(state, x + B, y + B)` (state in the high 22 bits, each offset
//! coordinate in 21 bits). One step scatters every entry through its
//! state's exits into the write half, then a *stable* LSD radix sort
//! and a run merge rebuild the sorted frontier. Stability matters:
//! contributions to one cell are summed in exactly the order the dense
//! table would have added them, so an unfolded sparse solve is
//! bit-identical to the dense solve — same CDF bytes, same pruned mass,
//! same summation order. The sort cuts each key field to its varying
//! bits and makes one counting pass per 11 of them (at most 6),
//! ping-ponging with the dead read half, so a step costs `O(E)` in the
//! number of scattered entries `E` and no extra buffer.
//! The dense table also pays only for what is occupied (its reserved
//! row spans, plus one span check per `(state, x)` row), so on most
//! cells the dense guard admits it is the faster of the two. The
//! frontier's edge is that it allocates no `states × (2B+1)²` box, so
//! kernels whose mass stays concentrated (mortal expiries, long budgets
//! with far targets, drift automata) solve far past the dense guard.
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

/// Widest radix digit: each counting pass has at most `2^DIGIT_BITS`
/// buckets.
const DIGIT_BITS: u32 = 11;

/// Stably sort `entries` by packed key with an LSD counting sort,
/// ping-ponging through `spare` (whose contents are overwritten).
///
/// One read pass takes the OR and AND of every key; each field (state,
/// x, y) is cut below its top varying bit — the bits above it are equal
/// in every key, so the cut keys order as the full keys do. The
/// `bits`-wide cut key then takes `⌈bits / DIGIT_BITS⌉` counting passes.
/// Each pass is stable, so equal keys keep their scatter order, exactly
/// as `sort_by_key` would leave them.
fn radix_sort(entries: &mut Vec<(u64, f64)>, spare: &mut Vec<(u64, f64)>) {
    let (or, and) = entries.iter().fold((0, u64::MAX), |(or, and), &(k, _)| (or | k, and & k));
    let varying = or ^ and;
    let width =
        |shift: u32, bits: u32| 64 - ((varying >> shift) & ((1 << bits) - 1)).leading_zeros();
    let (ws, wx, wy) = (width(42, 22), width(21, 21), width(0, 21));
    let bits = ws + wx + wy;
    if bits == 0 {
        return;
    }
    let mask = |w: u32| (1u64 << w) - 1;
    let (ms, mx, my) = (mask(ws), mask(wx), mask(wy));
    let cut = |k: u64| ((k >> 42) & ms) << (wx + wy) | ((k >> 21) & mx) << wy | (k & my);
    let passes = bits.div_ceil(DIGIT_BITS);
    let digit = bits.div_ceil(passes);
    let buckets = 1usize << digit;
    let bucket = |k: u64, pass: u32| (cut(k) >> (pass * digit)) as usize & (buckets - 1);

    let mut counts = vec![0usize; passes as usize * buckets];
    for &(k, _) in entries.iter() {
        for (pass, count) in (0..).zip(counts.chunks_exact_mut(buckets)) {
            count[bucket(k, pass)] += 1;
        }
    }
    spare.clear();
    spare.resize(entries.len(), (0, 0.0));
    for (pass, count) in (0..).zip(counts.chunks_exact_mut(buckets)) {
        let mut start = 0;
        for c in count.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &e in entries.iter() {
            let b = bucket(e.0, pass);
            spare[count[b]] = e;
            count[b] += 1;
        }
        std::mem::swap(entries, spare);
    }
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

    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Every deposit becomes its own entry: nothing to reserve.
    #[inline]
    fn reserve(&mut self, _state: usize, _x: i64, _lo: i64, _hi: i64) {}

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
    fn visit(&self, (start, end): (usize, usize), mut f: impl FnMut(i64, i64, &[f64])) {
        for (key, p) in &self.entries[start..end] {
            let x = ((key >> 21) & 0x1f_ffff) as i64 - self.span;
            let y = (key & 0x1f_ffff) as i64 - self.span;
            f(x, y, std::slice::from_ref(p));
        }
    }

    /// Sort `nxt`'s scatter list by key ([`radix_sort`], stable, with
    /// `cur`'s dead frontier as the spare buffer), merge equal keys by
    /// left-to-right summation (the dense table's accumulation order),
    /// and make the result the new `cur`.
    fn settle(
        cur: &mut Frontier,
        nxt: &mut Frontier,
        label: &str,
        at: std::fmt::Arguments<'_>,
    ) -> Result<usize, DpError> {
        radix_sort(&mut nxt.entries, &mut cur.entries);
        nxt.entries.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        std::mem::swap(&mut cur.entries, &mut nxt.entries);
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
    use proptest::prelude::*;

    /// A step-clock solve over 24 rounds, with its storage statistics.
    fn rounds(k: &dyn MarkovKernel, target: Point, mode: DpMode) -> AbsorptionCurve {
        solve(k, k.label(), target, 24, mode).unwrap()
    }

    /// The order `settle` must reproduce: a stable comparison sort, then
    /// equal keys summed left to right.
    fn sort_and_merge(mut scatter: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
        scatter.sort_by_key(|&(k, _)| k);
        let mut merged: Vec<(u64, f64)> = Vec::new();
        for (k, p) in scatter {
            match merged.last_mut() {
                Some(last) if last.0 == k => last.1 += p,
                _ => merged.push((k, p)),
            }
        }
        merged
    }

    /// Settle `scatter` over a stale frontier and check it against
    /// [`sort_and_merge`], key for key and bit for bit.
    fn assert_settles_like_sort(scatter: Vec<(u64, f64)>) {
        let frontier =
            |entries| Frontier { span: crate::MAX_SPARSE_SPAN as i64, fold: None, entries };
        let mut cur = frontier(vec![(3, 0.25); 5]);
        let mut nxt = frontier(scatter.clone());
        let live = Frontier::settle(&mut cur, &mut nxt, "test", format_args!("step 1")).unwrap();
        let want = sort_and_merge(scatter);
        assert_eq!(live, want.len());
        let bits = |v: &[(u64, f64)]| v.iter().map(|&(k, p)| (k, p.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&cur.entries), bits(&want));
    }

    /// A splitmix64 step, for drawing keys from a proptest seed.
    fn draw(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn settle_edge_cases_match_sort() {
        let span = crate::MAX_SPARSE_SPAN as i64;
        // The largest state, both offsets at 2·MAX_SPARSE_SPAN.
        let top = pack(span, (1 << 22) - 1, span, span);
        assert_settles_like_sort(vec![]);
        assert_settles_like_sort(vec![(top, 1.0)]);
        assert_settles_like_sort(vec![(top, 0.1), (0, 0.2), (top, 0.3), (0, 1e-17), (top, 1e17)]);
        // All keys equal: the whole list is one sum, in scatter order.
        let equal = (0..100).map(|i| (top, 1.0 / (i as f64 + 3.0))).collect();
        assert_settles_like_sort(equal);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keys are drawn from a pool (duplicates; one key when `pool` is
        /// 1) whose fields are each constant, vary in their low bits,
        /// vary only in their top bits, or span their full range; masses
        /// spread over 80 binades so any reordering of a sum shows.
        #[test]
        fn settle_matches_stable_sort_and_merge(
            seed in any::<u64>(),
            len in 0usize..600,
            pool in 1usize..300,
            shapes in (0u32..4, 0u32..4, 0u32..4),
        ) {
            let mut rng = seed;
            let mut field = |shape: u32, bits: u32, max: u64| {
                let low = draw(&mut rng) as u32 % bits + 1;
                let high = draw(&mut rng) as u32 % 3 + 1;
                let vary = match shape {
                    0 => 0,
                    1 => (1 << low) - 1,
                    2 => ((1 << high) - 1) << (bits - high),
                    _ => (1 << bits) - 1,
                };
                let base = draw(&mut rng);
                move |rng: &mut u64| {
                    (((base & !vary) | (draw(rng) & vary)) & ((1 << bits) - 1)).min(max)
                }
            };
            let offsets = 2 * crate::MAX_SPARSE_SPAN;
            let s = field(shapes.0, 22, (1 << 22) - 1);
            let x = field(shapes.1, 21, offsets);
            let y = field(shapes.2, 21, offsets);
            let keys: Vec<u64> = (0..pool)
                .map(|_| (s(&mut rng) << 42) | (x(&mut rng) << 21) | y(&mut rng))
                .collect();
            let scatter = (0..len)
                .map(|_| {
                    let k = keys[draw(&mut rng) as usize % pool];
                    let binade = (draw(&mut rng) % 80) as i32 - 40;
                    (k, (1.0 + (draw(&mut rng) >> 11) as f64 / (1u64 << 53) as f64) * 2f64.powi(binade))
                })
                .collect();
            assert_settles_like_sort(scatter);
        }
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
    fn dense_peak_counts_the_reserved_footprint() {
        // Only a few lifetime layers of the 13 states hold mass at any
        // step, so the dense footprint stays far inside the 13 × 57² box,
        // and it covers every entry the unfolded frontier holds.
        let c = collapse(&mortal_kernel(&randomwalk_kernel(), 12).unwrap()).unwrap();
        let target = Point::new(2, 1);
        let peak = |mode| absorption_cdf_mode(&c, "mortal", target, 28, mode).unwrap().stats;
        let (dense, sparse) = (peak(DpMode::Dense), peak(DpMode::Sparse));
        assert!(!sparse.folded);
        assert!(sparse.peak_entries <= dense.peak_entries, "{sparse:?} vs {dense:?}");
        assert!(dense.peak_entries < 13 * 57 * 57, "{dense:?}");
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
