//! The forward occupancy DP: one propagation loop for both clocks and
//! both storages.
//!
//! Every exact curve in this crate is a first-passage problem: propagate
//! the joint occupancy of `(internal state, position)` one step at a
//! time from the start state at the origin, absorbing mass that lands on
//! a target point. [`propagate`] is that loop, monomorphized over
//!
//! * the **clock** ([`Clock`]), which lowers a kernel to per-state rows
//!   of [`Exit`]s before the loop — per move for a collapsed kernel
//!   (`absorb.rs`), per round for a raw kernel (`rounds.rs`);
//! * the **storage** ([`Storage`]): the dense `(2B+1)²` box per state
//!   ([`Dense`], `B` = horizon — no agent leaves it), which visits and
//!   clears only the reserved y-span of each `(state, x)` row, or the
//!   sorted packed frontier of live entries with its optional mirror
//!   fold ([`crate::frontier::Frontier`]).
//!
//! Three exact accounting channels keep the answer honest:
//!
//! * *deficit* — mass in a dead state (a row with no exits: halted
//!   mortal agents) is dropped; it never finds the target;
//! * *truncation* — mass entering a truncation state accumulates and
//!   trips [`DpError::Truncation`] past [`crate::TRUNCATION_TOL`];
//! * *pruning* — entries below [`crate::PRUNE`] are dropped with their
//!   exact mass added to the truncation account, so pruning can speed
//!   things up but never silently bias a curve.
//!
//! Summation order is fixed — states, then row-major positions, then
//! exits in row order, then the state's resets — and both storages
//! replay it, so an unfolded sparse solve is bit-identical to the dense
//! one and every result is bit-identical across runs and thread counts.
//! Entries a storage skips or visits as zeros change nothing: the loop
//! returns on a zero before any floating-point operation.

use crate::error::DpError;
use crate::frontier::{invariant, mirror_for, Frontier, Mirror};
use crate::DpMode;
use ants_grid::Point;

/// The exact first-passage CDF of one agent against one point.
#[derive(Debug, Clone)]
pub struct AbsorptionCurve {
    /// `cdf[t]` = probability the agent has landed on the point within
    /// `t` steps of its clock; `cdf[0] = 0`, monotone non-decreasing by
    /// construction.
    pub cdf: Vec<f64>,
    /// Exact probability mass lost to truncation states and pruning
    /// (already checked against [`crate::TRUNCATION_TOL`]).
    pub lost: f64,
    /// Size and folding of the storage the solve ran on.
    pub stats: FrontierStats,
}

/// Storage statistics of one solve, for profiling narration.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontierStats {
    /// Most `(state, position)` entries held at once: the sparse
    /// frontier's peak merged length, or the dense table's peak reserved
    /// footprint (the summed widths of its row spans, zeros included).
    pub peak_entries: usize,
    /// Was a symmetry fold applied?
    pub folded: bool,
}

/// A kernel form the forward DP runs, and the clock it runs on: a
/// [`crate::CollapsedKernel`] steps once per move, a raw
/// [`crate::MarkovKernel`] once per round.
pub(crate) trait Clock {
    /// The horizon's name in guard errors.
    const HORIZON: &'static str;
    /// One step's name in guard errors.
    const STEP: &'static str;
    /// Lower the kernel to per-state rows, with its start state.
    fn lower(&self) -> (Vec<Row>, usize);
}

/// Where an [`Exit`] sends mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum To {
    /// Shift the position by `(x, y)`.
    Shift,
    /// Land on the point `(x, y)`.
    Jump,
    /// Enter a truncation state: the mass is lost. `(x, y)` keeps the
    /// step's geometry so fold invariance still sees it.
    Lost,
}

/// One exit of a lowered row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exit {
    pub next: usize,
    pub to: To,
    pub x: i64,
    pub y: i64,
    pub prob: f64,
}

impl Exit {
    /// Where mass at `(x, y)` lands; `None` when it is lost.
    #[inline]
    fn land(self, x: i64, y: i64) -> Option<(i64, i64)> {
        match self.to {
            To::Shift => Some((x + self.x, y + self.y)),
            To::Jump => Some((self.x, self.y)),
            To::Lost => None,
        }
    }

    /// An orderable image of the exit with its geometry reflected by
    /// `m`: exits are fold-invariant when their keys agree as a multiset
    /// with and without the reflection.
    pub(crate) fn key(self, m: Option<Mirror>) -> (usize, To, i64, i64, u64) {
        let (x, y) = m.map_or((self.x, self.y), |m| m.map(self.x, self.y));
        (self.next, self.to, x, y, self.prob.to_bits())
    }
}

/// One state's lowered row.
pub(crate) struct Row {
    /// Exits applied to every occupied entry.
    pub each: Vec<Exit>,
    /// Exits applied once to the state's positional marginal.
    pub resets: Vec<Exit>,
    /// Fraction of the marginal lost to truncation.
    pub trunc: f64,
}

impl Row {
    /// A state with no exits at all: its mass is deficit.
    fn dead(&self) -> bool {
        self.each.is_empty() && self.resets.is_empty() && self.trunc == 0.0
    }
}

/// Occupancy storage for [`propagate`], used as two halves: the solve
/// reads one step's entries from `cur` and deposits into `nxt`. Each
/// step costs the storage's occupied footprint, not the position box:
/// the frontier's live entries, or the dense table's reserved spans.
pub(crate) trait Storage: Sized {
    /// A handle on one state's entries.
    type Group: Copy;
    /// An empty table for `states` states within `|x|, |y| <= span`,
    /// folding orbits of `fold`; [`DpError::Guard`] past the storage's
    /// shape limits.
    fn open(
        states: usize,
        span: u64,
        fold: Option<Mirror>,
        label: &str,
        horizon: &str,
    ) -> Result<Self, DpError>;
    /// Forget every entry.
    fn clear(&mut self);
    /// Announce that [`Storage::add`] may deposit at `(state, x, y)` for
    /// any `y` in `lo..=hi`.
    fn reserve(&mut self, state: usize, x: i64, lo: i64, hi: i64);
    /// Add `mass` at `(state, x, y)`, a position already reserved.
    fn add(&mut self, state: usize, x: i64, y: i64, mass: f64);
    /// The next state group at or after `*cursor`, advancing past it.
    fn next_group(&self, cursor: &mut usize) -> Option<(usize, Self::Group)>;
    /// Visit a group's entries in row-major order, as runs
    /// `(x, y0, masses)` holding the masses at `(x, y0)`, `(x, y0 + 1)`,
    /// and so on. A run may hold zeros.
    fn visit(&self, group: Self::Group, f: impl FnMut(i64, i64, &[f64]));
    /// Make `nxt`'s deposits the new `cur`, returning its footprint in
    /// entries; [`DpError::Guard`] past the storage's live-entry cap.
    fn settle(
        cur: &mut Self,
        nxt: &mut Self,
        label: &str,
        at: std::fmt::Arguments<'_>,
    ) -> Result<usize, DpError>;
}

/// Solve `kernel`'s first-passage CDF on `target` over `span` steps of
/// its clock, on the storage `mode` resolves to ([`DpMode::resolve`]);
/// sparse solves fold by the target's mirror when every row is
/// invariant under it.
///
/// # Errors
///
/// [`DpError::Unsupported`] for an origin target, else as
/// [`propagate`].
pub(crate) fn solve<K: Clock + ?Sized>(
    kernel: &K,
    label: &str,
    target: Point,
    span: u64,
    mode: DpMode,
) -> Result<AbsorptionCurve, DpError> {
    if target == Point::ORIGIN {
        return Err(DpError::Unsupported {
            what: "absorption at the origin".into(),
            reason: "targets are never placed on the origin".into(),
        });
    }
    let (rows, start) = kernel.lower();
    match mode.resolve(rows.len(), span) {
        DpMode::Sparse => {
            let fold = mirror_for(target).filter(|&m| invariant(&rows, m));
            propagate::<K, Frontier>(&rows, start, target, span, label, fold)
        }
        _ => propagate::<K, Dense>(&rows, start, target, span, label, None),
    }
}

/// The forward DP: propagate `rows` from `start` at the origin for
/// `span` steps on storage `S`, absorbing mass that lands on `target`.
///
/// # Errors
///
/// * [`DpError::Guard`] from the storage's shape or live-entry caps.
/// * [`DpError::Truncation`] when truncated + pruned mass exceeds
///   [`crate::TRUNCATION_TOL`].
fn propagate<K: Clock + ?Sized, S: Storage>(
    rows: &[Row],
    start: usize,
    target: Point,
    span: u64,
    label: &str,
    fold: Option<Mirror>,
) -> Result<AbsorptionCurve, DpError> {
    let mut cur = S::open(rows.len(), span, fold, label, K::HORIZON)?;
    let mut nxt = S::open(rows.len(), span, fold, label, K::HORIZON)?;
    cur.reserve(start, 0, 0, 0);
    cur.add(start, 0, 0, 1.0);

    let mut cdf = Vec::with_capacity(span as usize + 1);
    cdf.push(0.0);
    let mut tally = Tally::default();
    let mut peak = 1;
    for step in 1..=span as i64 {
        nxt.clear();
        let mut cursor = 0;
        while let Some((s, group)) = cur.next_group(&mut cursor) {
            let row = &rows[s];
            if row.dead() {
                continue;
            }
            let mut marginal = 0.0f64;
            cur.visit(group, |x, y0, run| {
                reserve_exits(&mut nxt, &row.each, x, y0, y0 + run.len() as i64 - 1);
                for (y, &p) in (y0..).zip(run) {
                    if p == 0.0 {
                        continue;
                    }
                    if p < crate::PRUNE {
                        tally.lost += p;
                        continue;
                    }
                    marginal += p;
                    tally.scatter(&row.each, x, y, p, target, &mut nxt);
                }
            });
            if marginal > 0.0 {
                reserve_exits(&mut nxt, &row.resets, 0, 0, 0);
                tally.scatter(&row.resets, 0, 0, marginal, target, &mut nxt);
                tally.lost += marginal * row.trunc;
            }
        }
        let live = S::settle(&mut cur, &mut nxt, label, format_args!("{} {step}", K::STEP))?;
        peak = peak.max(live);
        cdf.push(tally.absorbed);
    }

    let lost = tally.lost;
    if lost > crate::TRUNCATION_TOL {
        return Err(DpError::Truncation { kernel: label.to_string(), lost });
    }
    Ok(AbsorptionCurve {
        cdf,
        lost,
        stats: FrontierStats { peak_entries: peak, folded: fold.is_some() },
    })
}

/// The running absorbed and lost mass of one solve.
#[derive(Default)]
struct Tally {
    absorbed: f64,
    lost: f64,
}

impl Tally {
    /// Send `p` from `(x, y)` through `exits`: absorbed on the target,
    /// lost into truncation, deposited into `nxt` otherwise.
    #[inline(always)]
    fn scatter<S: Storage>(
        &mut self,
        exits: &[Exit],
        x: i64,
        y: i64,
        p: f64,
        target: Point,
        nxt: &mut S,
    ) {
        for &e in exits {
            let mass = p * e.prob;
            match e.land(x, y) {
                Some((nx, ny)) if nx == target.x && ny == target.y => self.absorbed += mass,
                Some((nx, ny)) => nxt.add(e.next, nx, ny, mass),
                None => self.lost += mass,
            }
        }
    }
}

/// Reserve in `nxt` every position `exits` send mass to from the
/// positions `(x, lo..=hi)`: each exit moves the whole run as one, so
/// one reservation per exit covers every deposit the run makes.
#[inline(always)]
fn reserve_exits<S: Storage>(nxt: &mut S, exits: &[Exit], x: i64, lo: i64, hi: i64) {
    for &e in exits {
        if let (Some((nx, nlo)), Some((_, nhi))) = (e.land(x, lo), e.land(x, hi)) {
            nxt.reserve(e.next, nx, nlo, nhi);
        }
    }
}

/// Dense `(state, position)` table over `|x|, |y| <= radius`, with the
/// reserved y-span of every `(state, x)` row. `visit` and `clear` touch
/// only the spans, so a step costs the reserved footprint plus one span
/// check per row, however large the box.
struct Dense {
    states: usize,
    radius: i64,
    width: usize,
    mass: Vec<f64>,
    /// The half-open column range `[lo, hi)` of each `(state, x)` row
    /// that `reserve` covered since the last `clear`; [`EMPTY`] when none.
    spans: Vec<(u32, u32)>,
}

/// The span of a row nothing was reserved in: widening it by `min`/`max`
/// yields exactly the reserved range.
const EMPTY: (u32, u32) = (u32::MAX, 0);

impl Dense {
    /// The index of `(state, x)`'s row.
    #[inline]
    fn row(&self, state: usize, x: i64) -> usize {
        debug_assert!(x.abs() <= self.radius);
        state * self.width + (x + self.radius) as usize
    }

    /// The column of `y` within a row.
    #[inline]
    fn col(&self, y: i64) -> u32 {
        debug_assert!(y.abs() <= self.radius);
        (y + self.radius) as u32
    }
}

impl Storage for Dense {
    type Group = usize;

    fn open(
        states: usize,
        span: u64,
        fold: Option<Mirror>,
        label: &str,
        horizon: &str,
    ) -> Result<Dense, DpError> {
        debug_assert!(fold.is_none(), "the dense table never folds");
        // Checked throughout: `span` is a spec's move budget or horizon.
        let width = 2 * u128::from(span) + 1;
        let Some(entries) = width
            .checked_mul(width)
            .and_then(|area| area.checked_mul(states as u128))
            .filter(|&e| e <= crate::MAX_TABLE_ENTRIES as u128)
        else {
            return Err(DpError::Guard {
                what: format!(
                    "dense occupancy table for {label} ({states} states x ({width})^2 positions \
                     at {horizon} {span})"
                ),
                limit: crate::MAX_TABLE_ENTRIES,
                hint: "set dp_mode = \"sparse\" (or --dp-mode sparse) to solve it on the sparse \
                       frontier, shrink the cell, or use backend = \"mc\""
                    .into(),
            });
        };
        // `entries` fits MAX_TABLE_ENTRIES, so columns fit a u32.
        let width = width as usize;
        Ok(Dense {
            states,
            radius: span as i64,
            width,
            mass: vec![0.0; entries as usize],
            spans: vec![EMPTY; states * width],
        })
    }

    fn clear(&mut self) {
        for (row, span) in self.spans.iter_mut().enumerate() {
            if span.0 < span.1 {
                let base = row * self.width;
                self.mass[base + span.0 as usize..base + span.1 as usize].fill(0.0);
                *span = EMPTY;
            }
        }
    }

    #[inline]
    fn reserve(&mut self, state: usize, x: i64, lo: i64, hi: i64) {
        let (lo, hi) = (self.col(lo), self.col(hi));
        let row = self.row(state, x);
        let span = &mut self.spans[row];
        span.0 = span.0.min(lo);
        span.1 = span.1.max(hi + 1);
    }

    #[inline]
    fn add(&mut self, state: usize, x: i64, y: i64, mass: f64) {
        let (row, col) = (self.row(state, x), self.col(y));
        debug_assert!((self.spans[row].0..self.spans[row].1).contains(&col), "unreserved deposit");
        self.mass[row * self.width + col as usize] += mass;
    }

    fn next_group(&self, cursor: &mut usize) -> Option<(usize, usize)> {
        let s = *cursor;
        *cursor += 1;
        (s < self.states).then_some((s, s))
    }

    #[inline]
    fn visit(&self, s: usize, mut f: impl FnMut(i64, i64, &[f64])) {
        let rows = s * self.width..(s + 1) * self.width;
        for ((row, &(lo, hi)), x) in rows.clone().zip(&self.spans[rows]).zip(-self.radius..) {
            if lo < hi {
                let base = row * self.width;
                f(
                    x,
                    i64::from(lo) - self.radius,
                    &self.mass[base + lo as usize..base + hi as usize],
                );
            }
        }
    }

    fn settle(
        cur: &mut Dense,
        nxt: &mut Dense,
        _label: &str,
        _at: std::fmt::Arguments<'_>,
    ) -> Result<usize, DpError> {
        std::mem::swap(cur, nxt);
        Ok(cur.spans.iter().map(|&(lo, hi)| hi.saturating_sub(lo) as usize).sum())
    }
}
