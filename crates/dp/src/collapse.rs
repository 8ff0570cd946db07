//! Per-move collapse: turn a step-indexed kernel into a move-indexed one.
//!
//! The paper's quantities are indexed by *moves*, but a kernel steps
//! once per RNG event — a `uniform` searcher may flip hundreds of coins
//! between two moves. Running the occupancy DP per step would make its
//! horizon the step count; this module collapses each maximal run of
//! non-move steps into an exact per-move transition table, so the
//! absorption DP's horizon is the move budget.
//!
//! A segment starts right after a move (or at trial start) and ends at
//! the next move. Within a segment only `None` and `Origin` actions
//! occur; the position at the segment's end is `p + δ(dir)` if no
//! `Origin` occurred, or `origin + δ(dir)` if one did (later `Origin`s
//! overwrite earlier positions, but both land on the origin, so a single
//! "was reset" flag suffices). The collapse therefore computes, per
//! starting state, the exact joint distribution of
//! `(exit state, move direction, reset flag)` — a standard absorption
//! problem on the kernel's non-move transition graph, solved by sparse
//! Gauss–Jordan elimination in a fixed order (bit-deterministic). The
//! sparse solve performs exactly the floating-point operations of a
//! dense elimination of the same system and skips only the exact no-ops
//! on zero entries, so its result is bit-identical to the dense one (a
//! test-only dense reference pins this), while its time and memory
//! follow the system's nonzeros and fill-in instead of `k²`.
//!
//! The solve runs in two blocks. The *reset* block (an `Origin` has
//! already occurred) treats both `None` and `Origin` edges as transient.
//! The *clean* block treats only `None` edges as transient; its `Origin`
//! edges couple into the reset block's solved rows. Mass that can never
//! move again — a mortal kernel past its expiry — leaves both systems as
//! an implicit deficit (`1 − Σ exits − trunc`), and mass entering a
//! designated truncation state is tracked in a dedicated column so the
//! DP can enforce [`crate::TRUNCATION_TOL`].

use crate::error::DpError;
use crate::kernel::{MarkovKernel, PositionClass};
use ants_automaton::GridAction;
use ants_grid::Direction;

/// One collapsed per-move exit: the next internal state, the direction
/// moved, and whether an `Origin` reset happened during the segment
/// (if so, the move is taken from the origin, not the current position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoveExit {
    /// Internal state after the move.
    pub next: usize,
    /// Direction of the move that ends the segment.
    pub dir: Direction,
    /// Did an `Origin` action occur since the segment started?
    pub reset: bool,
}

/// One state's collapsed distribution over [`MoveExit`]s.
#[derive(Debug, Clone, Default)]
pub struct CollapsedRow {
    /// Sparse distribution over exit indices into
    /// [`CollapsedKernel::exits`].
    pub exits: Vec<(u32, f64)>,
    /// Probability of entering a truncation state before the next move.
    pub trunc: f64,
}

impl CollapsedRow {
    /// Mass that never moves again (halted agents): the complement of
    /// exits and truncation.
    pub fn deficit(&self) -> f64 {
        (1.0 - self.trunc - self.exits.iter().map(|&(_, p)| p).sum::<f64>()).max(0.0)
    }
}

/// A kernel collapsed to per-move transitions.
#[derive(Debug, Clone)]
pub struct CollapsedKernel {
    /// Start state of the underlying kernel.
    pub start: usize,
    /// The deduplicated exit alphabet.
    pub exits: Vec<MoveExit>,
    /// Per starting state, the exact distribution over exits.
    pub rows: Vec<CollapsedRow>,
}

/// Edge classification of one kernel state.
struct Edges {
    /// `None`-action edges to non-truncation states, then `Origin`-action
    /// ones (from `origin_at`), each in kernel row order.
    steps: Vec<(usize, f64)>,
    /// Where the `Origin` edges start in `steps`.
    origin_at: usize,
    /// Move edges `(next, dir, prob)` — these end the segment whatever
    /// their target state is.
    moves: Vec<(usize, Direction, f64)>,
    /// Total probability of `None`/`Origin` edges into truncation states.
    trunc: f64,
}

impl Edges {
    /// The block's transient edges: `None` and `Origin` edges in the
    /// reset block, `None` edges alone in the clean block.
    fn transient(&self, reset: bool) -> &[(usize, f64)] {
        if reset {
            &self.steps
        } else {
            &self.steps[..self.origin_at]
        }
    }

    fn origin(&self) -> &[(usize, f64)] {
        &self.steps[self.origin_at..]
    }
}

/// The exit alphabet, deduplicated in first-appearance order (states in
/// index order, the reset block's moves before the clean block's) —
/// deterministic.
struct Alphabet {
    exits: Vec<MoveExit>,
    /// Each `(next, dir, reset)`'s index into `exits`, or `u32::MAX`.
    index: Vec<u32>,
}

impl Alphabet {
    fn new(states: usize) -> Alphabet {
        Alphabet { exits: Vec::new(), index: vec![u32::MAX; states * 8] }
    }

    fn intern(&mut self, e: MoveExit) -> u32 {
        let slot = &mut self.index[(e.next * 4 + e.dir as usize) * 2 + usize::from(e.reset)];
        if *slot == u32::MAX {
            *slot = self.exits.len() as u32;
            self.exits.push(e);
        }
        *slot
    }
}

/// A sparse row of a block's augmented system `[A | rhs]`, sorted by
/// column: column `j < k` is `A`'s column `j` (unknown `j`), column
/// `k + e` is rhs column `e`, and the last rhs column is the trunc mass.
type SparseRow = Vec<(u32, f64)>;

/// A block solver: solves `A · X = rhs` given the `k` sparse rows of
/// `[A | rhs]` and the rhs width `m`, returning each unknown's row.
type Solver = fn(usize, Vec<SparseRow>) -> Result<Vec<CollapsedRow>, DpError>;

/// Unknown `i`'s augmented row, built with a dense build's operations in
/// its order: the diagonal starts at 1.0 and each transient edge
/// `(unknown j, p)` subtracts `p`; each exit `(e, p)` adds `p` to 0.0;
/// the trunc column is `0.0 + trunc`. Repeats accumulate in edge order.
fn augmented_row(
    (i, k, m): (usize, usize, usize),
    transient: impl Iterator<Item = (usize, f64)>,
    exits: Vec<(u32, f64)>,
    trunc: f64,
) -> SparseRow {
    let kc = k as u32;
    let mut row = exits;
    for entry in &mut row {
        *entry = (kc + entry.0, 0.0 + entry.1);
    }
    let rhs_len = row.len();
    row.push((i as u32, 1.0));
    for (j, p) in transient {
        match row[rhs_len..].iter_mut().find(|&&mut (c, _)| c == j as u32) {
            Some(e) => e.1 -= p,
            None => row.push((j as u32, 0.0 - p)),
        }
    }
    // Stable: an exit's repeats stay in row order for the sum.
    row.sort_by_key(|&(c, _)| c);
    row.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    row.push((kc + m as u32 - 1, 0.0 + trunc));
    row
}

/// A solved row to its [`CollapsedRow`], reusing its buffer: scale the rhs
/// entries by the pivot's inverse `inv`, keep the positive exits, and
/// clamp the trunc column.
fn collapsed_row(k: usize, m: usize, inv: f64, mut row: SparseRow) -> CollapsedRow {
    let kc = k as u32;
    let mut trunc = 0.0;
    let mut kept = 0;
    for at in row.partition_point(|&(c, _)| c < kc)..row.len() {
        let (e, p) = (row[at].0 - kc, row[at].1 * inv);
        if e as usize == m - 1 {
            trunc = p.max(0.0);
        } else if p > 0.0 {
            row[kept] = (e, p);
            kept += 1;
        }
    }
    row.truncate(kept);
    CollapsedRow { exits: row, trunc }
}

fn singular() -> DpError {
    DpError::Unsupported {
        what: "per-move collapse".into(),
        reason: "singular transient system (a state set loops forever without moving yet was \
                 not eliminated as dead)"
            .into(),
    }
}

/// Gauss–Jordan elimination with partial pivoting on the sparse
/// augmented system. Every floating-point operation is the one a dense
/// row-major elimination of `[A | rhs]` performs, in the same order;
/// only the exact no-ops on zero entries are skipped, so the result is
/// bit-identical to the dense solve:
///
/// * the pivot is the logical row at or below `col` with the largest
///   `|a|`, the last such row on ties, tracked through a logical ↔
///   physical permutation and per-column occupancy lists;
/// * a row whose factor is zero is skipped, and an absent entry is
///   filled as `0.0 − factor·v`;
/// * entries left of the current column are dead (never read again), so
///   each pivot is stored apart for the final `1/diag` scaling.
fn solve_sparse(m: usize, mut rows: Vec<SparseRow>) -> Result<Vec<CollapsedRow>, DpError> {
    let k = rows.len();
    let kc = k as u32;
    // The physical rows holding an entry in each `A` column: one list per
    // column, linked through a shared arena of `(row, next)` cells.
    let mut head = vec![u32::MAX; k];
    let mut cells: Vec<(u32, u32)> = Vec::with_capacity(4 * k);
    let occupy = |head: &mut [u32], cells: &mut Vec<(u32, u32)>, c: u32, r: u32| {
        cells.push((r, head[c as usize]));
        head[c as usize] = (cells.len() - 1) as u32;
    };
    for (r, row) in rows.iter().enumerate() {
        for &(c, _) in row.iter().take_while(|&&(c, _)| c < kc) {
            occupy(&mut head, &mut cells, c, r as u32);
        }
    }
    let mut row_at: Vec<u32> = (0..kc).collect();
    let mut pos_of: Vec<u32> = (0..kc).collect();
    let mut diag = vec![0.0f64; k];
    // This column's rows and the index of their entry in it.
    let mut hits: Vec<(u32, usize)> = Vec::with_capacity(k);
    for col in 0..kc {
        hits.clear();
        let mut cell = head[col as usize];
        while cell != u32::MAX {
            let (r, next) = cells[cell as usize];
            hits.push((r, rows[r as usize].partition_point(|&(c, _)| c < col)));
            cell = next;
        }
        // Pivot: largest |a| at or below `col`, the last maximal row on
        // ties (`max_by` order). `best` is `(position, |a|, hit)`.
        let mut best: Option<(u32, f64, usize)> = None;
        for (hit, &(r, at)) in hits.iter().enumerate() {
            let pos = pos_of[r as usize];
            if pos < col {
                continue;
            }
            let v = rows[r as usize][at].1.abs();
            let better = best.is_none_or(|(best_pos, best_v, _)| {
                match v.partial_cmp(&best_v).expect("finite") {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => pos > best_pos,
                    std::cmp::Ordering::Less => false,
                }
            });
            if better {
                best = Some((pos, v, hit));
            }
        }
        let (pivot_pos, (pr, pivot_at)) = match best {
            Some((pos, v, hit)) if v >= 1e-300 => (pos, hits[hit]),
            _ => return Err(singular()),
        };
        let displaced = row_at[col as usize];
        row_at.swap(col as usize, pivot_pos as usize);
        pos_of[pr as usize] = col;
        pos_of[displaced as usize] = pivot_pos;

        let pivot = std::mem::take(&mut rows[pr as usize]);
        diag[col as usize] = pivot[pivot_at].1;
        let inv = 1.0 / diag[col as usize];
        let live = &pivot[pivot_at + 1..];
        for &(r, at) in &hits {
            if r == pr {
                continue;
            }
            let target = &mut rows[r as usize];
            let factor = target[at].1 * inv;
            if factor == 0.0 {
                continue;
            }
            eliminate(target, at + 1, live, factor, |c| {
                if c < kc {
                    occupy(&mut head, &mut cells, c, r);
                }
            });
        }
        rows[pr as usize] = pivot;
    }
    Ok((0..k)
        .map(|i| {
            let row = std::mem::take(&mut rows[row_at[i] as usize]);
            collapsed_row(k, m, 1.0 / diag[i], row)
        })
        .collect())
}

/// `target −= factor · pivot` over the pivot row's live entries,
/// where `target[..dead]` holds the dead entries (at or left of the
/// eliminated column). An existing entry is updated in place. A fill-in
/// slides the live entries before it left over a dead entry when there
/// is one, so the tail never moves; each filled column is reported to
/// `filled`.
fn eliminate(
    target: &mut SparseRow,
    mut dead: usize,
    pivot: &[(u32, f64)],
    factor: f64,
    mut filled: impl FnMut(u32),
) {
    let mut t = dead;
    for &(c, v) in pivot {
        while target.get(t).is_some_and(|&(tc, _)| tc < c) {
            t += 1;
        }
        if target.get(t).is_some_and(|&(tc, _)| tc == c) {
            target[t].1 -= factor * v;
            t += 1;
            continue;
        }
        let fill = (c, 0.0 - factor * v);
        if dead > 0 {
            target.copy_within(dead..t, dead - 1);
            dead -= 1;
            target[t - 1] = fill;
        } else {
            target.insert(t, fill);
            t += 1;
        }
        filled(c);
    }
}

/// The dense reference for [`solve_sparse`]: Gauss–Jordan with partial
/// pivoting on row-major `[A | rhs]`, in a fixed scan order.
#[cfg(test)]
fn solve_dense(m: usize, rows: Vec<SparseRow>) -> Result<Vec<CollapsedRow>, DpError> {
    let n = rows.len();
    let mut a = vec![0.0f64; n * n];
    let mut rhs = vec![0.0f64; n * m];
    for (i, row) in rows.iter().enumerate() {
        for &(c, v) in row {
            match (c as usize).checked_sub(n) {
                None => a[i * n + c as usize] = v,
                Some(e) => rhs[i * m + e] = v,
            }
        }
    }
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i * n + col].abs().partial_cmp(&a[j * n + col].abs()).expect("finite")
            })
            .expect("non-empty range");
        if a[pivot_row * n + col].abs() < 1e-300 {
            return Err(singular());
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            for k in 0..m {
                rhs.swap(col * m + k, pivot_row * m + k);
            }
        }
        let inv = 1.0 / a[col * n + col];
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            for k in 0..m {
                rhs[row * m + k] -= factor * rhs[col * m + k];
            }
        }
    }
    Ok((0..n)
        .map(|row| {
            let values = rhs[row * m..(row + 1) * m].iter().enumerate();
            let dense = values.map(|(e, &v)| ((n + e) as u32, v)).collect();
            collapsed_row(n, m, 1.0 / a[row * n + row], dense)
        })
        .collect())
}

/// States from which the block's transient graph can reach a leak
/// (a state with any non-transient edge). Mass in a non-live state can
/// never exit — it is dead (halted) and leaves the system as deficit.
fn live_states<'e>(
    n: usize,
    transient: impl Fn(usize) -> &'e [(usize, f64)],
    leaky: impl Fn(usize) -> bool,
) -> Vec<bool> {
    // Reverse adjacency of the transient graph (compressed rows: the
    // predecessors of `t` are `pred[start[t]..start[t + 1]]`), then BFS
    // from the leaks.
    let edge = |s: usize| transient(s).iter().filter(move |&&(t, p)| p > 0.0 && t != s);
    let mut start = vec![0usize; n + 1];
    for s in 0..n {
        for &(t, _) in edge(s) {
            start[t + 1] += 1;
        }
    }
    for t in 0..n {
        start[t + 1] += start[t];
    }
    let mut fill = start.clone();
    let mut pred = vec![0usize; start[n]];
    for s in 0..n {
        for &(t, _) in edge(s) {
            pred[fill[t]] = s;
            fill[t] += 1;
        }
    }
    let mut live = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&s| leaky(s)).collect();
    for &s in &queue {
        live[s] = true;
    }
    while let Some(s) = queue.pop() {
        for &p in &pred[start[s]..start[s + 1]] {
            if !live[p] {
                live[p] = true;
                queue.push(p);
            }
        }
    }
    live
}

/// Solve one block's transient system. `reset` selects the block (see
/// the module docs); in the clean block a state's `Origin` edges leak.
/// `rhs_of` maps a state to its exit mass and its coupled truncation
/// mass, interning new exits.
fn solve_block(
    edges: &[Edges],
    is_trunc: &[bool],
    reset: bool,
    alphabet: &mut Alphabet,
    rhs_of: impl Fn(usize, &mut Alphabet) -> (Vec<(u32, f64)>, f64),
    solve: Solver,
) -> Result<Vec<CollapsedRow>, DpError> {
    let n = edges.len();
    let live = live_states(
        n,
        |s| if is_trunc[s] { &[] } else { edges[s].transient(reset) },
        |s| {
            let e = &edges[s];
            !is_trunc[s]
                && (!e.moves.is_empty() || e.trunc > 0.0 || (!reset && !e.origin().is_empty()))
        },
    );
    // Map live, non-trunc states to the system's unknowns.
    let sys: Vec<usize> = (0..n).filter(|&s| live[s] && !is_trunc[s]).collect();
    let mut unknown = vec![usize::MAX; n];
    for (i, &s) in sys.iter().enumerate() {
        unknown[s] = i;
    }
    // Build per-state RHS rows first to learn the column count.
    let raw_rows: Vec<(Vec<(u32, f64)>, f64)> = sys.iter().map(|&s| rhs_of(s, alphabet)).collect();
    let m = alphabet.exits.len() + 1; // all exits so far + trunc column
    let k = sys.len();
    let rows: Vec<SparseRow> = sys
        .iter()
        .zip(raw_rows)
        .enumerate()
        .map(|(i, (&s, (exits, coupled_trunc)))| {
            // Edges to dead states: deficit (dropped).
            let transient = edges[s]
                .transient(reset)
                .iter()
                .filter(|&&(t, _)| unknown[t] != usize::MAX)
                .map(|&(t, p)| (unknown[t], p));
            // Direct edges into truncation states plus any trunc mass
            // inherited through an Origin coupling.
            augmented_row((i, k, m), transient, exits, coupled_trunc + edges[s].trunc)
        })
        .collect();
    let mut out = vec![CollapsedRow::default(); n];
    for (&s, row) in sys.iter().zip(solve(m, rows)?) {
        out[s] = row;
    }
    for s in 0..n {
        if is_trunc[s] {
            out[s] = CollapsedRow { exits: Vec::new(), trunc: 1.0 };
        }
    }
    Ok(out)
}

/// Collapse `kernel` into per-move transitions.
///
/// # Errors
///
/// * [`DpError::Guard`] if the state space exceeds
///   [`crate::MAX_SOLVE_STATES`].
/// * [`DpError::Unsupported`] for position-sensitive kernels.
pub fn collapse(kernel: &dyn MarkovKernel) -> Result<CollapsedKernel, DpError> {
    collapse_with(kernel, solve_sparse)
}

/// [`collapse`] with each block's transient system solved by `solve`.
fn collapse_with(kernel: &dyn MarkovKernel, solve: Solver) -> Result<CollapsedKernel, DpError> {
    let n = kernel.num_states();
    if n > crate::MAX_SOLVE_STATES {
        return Err(DpError::Guard {
            what: format!("{} internal-state space ({n} states)", kernel.label()),
            limit: crate::MAX_SOLVE_STATES,
            hint: "shrink the cell or use backend = \"mc\"".into(),
        });
    }
    if kernel.position_sensitive() {
        return Err(DpError::Unsupported {
            what: format!("kernel {}", kernel.label()),
            reason: "the per-move collapse only supports position-oblivious kernels".into(),
        });
    }
    let mut is_trunc = vec![false; n];
    for &t in kernel.truncation_states() {
        is_trunc[t] = true;
    }
    let edges: Vec<Edges> = (0..n)
        .map(|s| {
            let row = kernel.row(s, PositionClass::Away);
            let mut e = Edges { steps: Vec::new(), origin_at: 0, moves: Vec::new(), trunc: 0.0 };
            for t in row.iter().filter(|t| t.prob != 0.0) {
                match t.action {
                    GridAction::Move(dir) => e.moves.push((t.next, dir, t.prob)),
                    _ if is_trunc[t.next] => e.trunc += t.prob,
                    GridAction::None => e.steps.push((t.next, t.prob)),
                    GridAction::Origin => {}
                }
            }
            e.origin_at = e.steps.len();
            for t in row {
                if t.prob != 0.0 && t.action == GridAction::Origin && !is_trunc[t.next] {
                    e.steps.push((t.next, t.prob));
                }
            }
            e
        })
        .collect();
    let mut alphabet = Alphabet::new(n);

    // --- Reset block: an Origin already occurred. Transient edges are
    // None + Origin; moves exit with reset = true.
    let reset_rows = solve_block(
        &edges,
        &is_trunc,
        true,
        &mut alphabet,
        |s, alphabet| {
            let row = edges[s]
                .moves
                .iter()
                .map(|&(next, dir, p)| (alphabet.intern(MoveExit { next, dir, reset: true }), p))
                .collect();
            (row, 0.0)
        },
        solve,
    )?;

    // --- Clean block: no Origin yet. Transient edges are None only;
    // Origin edges couple into the reset block's solved rows; moves exit
    // with reset = false.
    let clean_rows = solve_block(
        &edges,
        &is_trunc,
        false,
        &mut alphabet,
        |s, alphabet| {
            let mut row: Vec<(u32, f64)> = edges[s]
                .moves
                .iter()
                .map(|&(next, dir, p)| (alphabet.intern(MoveExit { next, dir, reset: false }), p))
                .collect();
            let mut trunc = 0.0;
            for &(t, p) in edges[s].origin() {
                // Mass teleports to the origin, then evolves in the reset
                // block from state t.
                let coupled = &reset_rows[t];
                for &(e, q) in &coupled.exits {
                    row.push((e, p * q));
                }
                trunc += p * coupled.trunc;
            }
            (row, trunc)
        },
        solve,
    )?;

    // Drop exit columns no final row references (the reset block interns
    // its move exits eagerly; kernels without Origin edges never use
    // them) and remap indices — deterministic, order-preserving.
    let exits = alphabet.exits;
    let mut used = vec![false; exits.len()];
    for r in &clean_rows {
        for &(e, p) in &r.exits {
            if p > 0.0 {
                used[e as usize] = true;
            }
        }
    }
    let mut remap = vec![u32::MAX; exits.len()];
    let mut compact = Vec::new();
    for (i, e) in exits.into_iter().enumerate() {
        if used[i] {
            remap[i] = compact.len() as u32;
            compact.push(e);
        }
    }
    let rows = clean_rows
        .into_iter()
        .map(|r| CollapsedRow {
            exits: r
                .exits
                .into_iter()
                .filter(|&(_, p)| p > 0.0)
                .map(|(e, p)| (remap[e as usize], p))
                .collect(),
            trunc: r.trunc,
        })
        .collect();

    Ok(CollapsedKernel { start: kernel.start(), exits: compact, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{
        coin_kernel, mortal_kernel, nonuniform_kernel, pfa_kernel, randomwalk_kernel,
        uniform_kernel, UNIFORM_PHASE_CAP,
    };
    use ants_automaton::library;
    use ants_rng::{Rng64, SeedableRng64, Xoshiro256PlusPlus};

    fn row_mass(c: &CollapsedKernel, s: usize) -> f64 {
        c.rows[s].exits.iter().map(|&(_, p)| p).sum::<f64>() + c.rows[s].trunc
    }

    /// Collapse `k` with the sparse and the dense solver and require the
    /// same bits: exit alphabet, every exit probability and trunc value,
    /// or the same error.
    fn assert_bit_parity(k: &dyn MarkovKernel) {
        let sparse = collapse_with(k, solve_sparse);
        let dense = collapse_with(k, solve_dense);
        let (s, d) = match (sparse, dense) {
            (Ok(s), Ok(d)) => (s, d),
            (Err(s), Err(d)) => return assert_eq!(s.to_string(), d.to_string(), "{}", k.label()),
            (s, d) => panic!("{}: sparse {:?} vs dense {:?}", k.label(), s.err(), d.err()),
        };
        assert_eq!(s.start, d.start);
        assert_eq!(s.exits, d.exits, "{}: exit alphabets differ", k.label());
        assert_eq!(s.rows.len(), d.rows.len());
        for (i, (sr, dr)) in s.rows.iter().zip(&d.rows).enumerate() {
            assert_eq!(row_bits(sr), row_bits(dr), "{}: state {i} differs", k.label());
        }
    }

    fn row_bits(r: &CollapsedRow) -> (Vec<(u32, u64)>, u64) {
        (r.exits.iter().map(|&(e, p)| (e, p.to_bits())).collect(), r.trunc.to_bits())
    }

    /// The sparse and dense solvers on one hand-built system, compared
    /// bit for bit (or by error).
    fn assert_solver_parity(m: usize, rows: Vec<SparseRow>) {
        let bits = |rows: Vec<CollapsedRow>| rows.iter().map(row_bits).collect::<Vec<_>>();
        match (solve_sparse(m, rows.clone()), solve_dense(m, rows)) {
            (Ok(s), Ok(d)) => assert_eq!(bits(s), bits(d)),
            (Err(s), Err(d)) => assert_eq!(s.to_string(), d.to_string()),
            (s, d) => panic!("sparse {:?} vs dense {:?}", s.err(), d.err()),
        }
    }

    /// A random system of `k` unknowns and rhs width `m`: dyadic edge and
    /// exit masses (so ties and exact cancellations are common), with
    /// repeated edges and exits.
    fn random_system(rng: &mut Xoshiro256PlusPlus, k: usize, m: usize) -> Vec<SparseRow> {
        let dyadic = |rng: &mut Xoshiro256PlusPlus| (1 + rng.next_below(8)) as f64 / 8.0;
        (0..k)
            .map(|i| {
                let transient: Vec<(usize, f64)> = (0..rng.next_below(4))
                    .map(|_| (rng.next_below(k as u64) as usize, dyadic(rng)))
                    .collect();
                let exits: Vec<(u32, f64)> = (0..rng.next_below(4))
                    .map(|_| (rng.next_below(m as u64 - 1) as u32, dyadic(rng)))
                    .collect();
                let trunc = if rng.next_below(2) == 0 { 0.0 } else { dyadic(rng) };
                augmented_row((i, k, m), transient.into_iter(), exits, trunc)
            })
            .collect()
    }

    /// The sparse build performs the dense build's operations: set the
    /// diagonal to 1.0, subtract each transient edge, add each exit and
    /// then the trunc mass into a zeroed matrix. Absent entries are the
    /// dense +0.0.
    #[test]
    fn augmented_rows_match_a_dense_build() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..200 {
            let (k, m) = (1 + rng.next_below(6) as usize, 2 + rng.next_below(5) as usize);
            let i = rng.next_below(k as u64) as usize;
            let transient: Vec<(usize, f64)> = (0..rng.next_below(8))
                .map(|_| (rng.next_below(k as u64) as usize, rng.next_f64()))
                .collect();
            let exits: Vec<(u32, f64)> = (0..rng.next_below(8))
                .map(|_| (rng.next_below(m as u64 - 1) as u32, rng.next_f64()))
                .collect();
            let trunc = rng.next_f64();
            let mut dense = vec![0.0f64; k + m];
            dense[i] = 1.0;
            for &(j, p) in &transient {
                dense[j] -= p;
            }
            for &(e, p) in &exits {
                dense[k + e as usize] += p;
            }
            dense[k + m - 1] += trunc;
            let row = augmented_row((i, k, m), transient.into_iter(), exits, trunc);
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "unsorted or repeated: {row:?}");
            let mut scattered = vec![0.0f64; k + m];
            for &(c, v) in &row {
                scattered[c as usize] = v;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scattered), bits(&dense));
        }
    }

    #[test]
    fn sparse_solve_matches_dense_bits_across_the_zoo() {
        let zoo = [
            randomwalk_kernel(),
            nonuniform_kernel(4).unwrap(),
            nonuniform_kernel(100).unwrap(),
            coin_kernel(16, 1).unwrap(),
            coin_kernel(64, 3).unwrap(),
            uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap(),
            uniform_kernel(2, 8, 3, UNIFORM_PHASE_CAP).unwrap(),
            pfa_kernel("automaton(rw)", &library::random_walk()),
            pfa_kernel("automaton(lazy)", &library::lazy_random_walk()),
            pfa_kernel("automaton(drift4)", &library::drift_walk(4).unwrap()),
            pfa_kernel("automaton(alg1)", &library::algorithm1(3).unwrap()),
            mortal_kernel(&randomwalk_kernel(), 7).unwrap(),
            mortal_kernel(&nonuniform_kernel(8).unwrap(), 25).unwrap(),
            mortal_kernel(&coin_kernel(8, 2).unwrap(), 12).unwrap(),
        ];
        for k in &zoo {
            assert_bit_parity(k);
        }
    }

    /// The small-ℓ kernels with long non-move chains (the fill-heavy
    /// `uniform` family), wide mortal layers, and mortal/coin
    /// compositions.
    #[test]
    fn sparse_solve_matches_dense_bits_on_long_chains() {
        for n in [4, 16, 64] {
            assert_bit_parity(&uniform_kernel(1, n, 2, UNIFORM_PHASE_CAP).unwrap());
        }
        for expiry in [240, 1000] {
            assert_bit_parity(&mortal_kernel(&randomwalk_kernel(), expiry).unwrap());
        }
        assert_bit_parity(&mortal_kernel(&coin_kernel(16, 1).unwrap(), 40).unwrap());
        assert_bit_parity(&mortal_kernel(&coin_kernel(64, 3).unwrap(), 9).unwrap());
        assert_bit_parity(&mortal_kernel(&uniform_kernel(1, 4, 1, 4).unwrap(), 6).unwrap());
    }

    #[test]
    fn sparse_solve_matches_dense_bits_on_random_pfas() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5eed);
        for case in 0..120 {
            let states = 1 + rng.next_below(24) as usize;
            let ell = 1 + rng.next_below(4) as u32;
            let pfa = library::random_pfa(states, ell, &mut rng);
            assert_bit_parity(&pfa_kernel(&format!("pfa#{case}"), &pfa));
        }
    }

    /// Random dyadic systems stress what kernels rarely reach: pivots off
    /// the diagonal, exact ties in a pivot column, cancellation to zero,
    /// and singular systems.
    #[test]
    fn sparse_solve_matches_dense_bits_on_random_systems() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        for _ in 0..400 {
            let (k, m) = (1 + rng.next_below(12) as usize, 2 + rng.next_below(5) as usize);
            assert_solver_parity(m, random_system(&mut rng, k, m));
        }
    }

    #[test]
    fn singular_systems_fail_alike() {
        // x0 = x1 and x1 = x0: the second pivot cancels to exactly zero.
        let row = |i, j| augmented_row((i, 2, 2), [(j, 1.0)].into_iter(), vec![(0, 0.5)], 0.0);
        let rows = vec![row(0, 1), row(1, 0)];
        assert!(solve_sparse(2, rows.clone()).is_err());
        assert_solver_parity(2, rows);
        // A self-loop of mass 1: the only pivot is exactly zero.
        let rows = vec![augmented_row((0, 1, 1), [(0, 1.0)].into_iter(), Vec::new(), 0.0)];
        assert!(solve_sparse(1, rows.clone()).is_err());
        assert_solver_parity(1, rows);
    }

    #[test]
    fn randomwalk_collapse_is_identity() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        assert_eq!(c.exits.len(), 4);
        assert!((row_mass(&c, 0) - 1.0).abs() < 1e-15);
        for &(_, p) in &c.rows[0].exits {
            assert!((p - 0.25).abs() < 1e-15);
        }
        assert!(c.exits.iter().all(|e| !e.reset));
    }

    #[test]
    fn coin_collapse_conserves_mass_and_resets() {
        let k = coin_kernel(8, 1).unwrap();
        let c = collapse(&k).unwrap();
        for s in 0..k.num_states() {
            assert!((row_mass(&c, s) - 1.0).abs() < 1e-12, "state {s}: {}", row_mass(&c, s));
        }
        // The Returning state's exits all pass through Origin first.
        let returning = k.num_states() - 1;
        assert!(c.rows[returning].exits.iter().all(|&(e, _)| c.exits[e as usize].reset));
        // The start state has both clean exits (first walk move) and no
        // trunc mass.
        assert_eq!(c.rows[c.start].trunc, 0.0);
        assert!(c.rows[c.start].exits.iter().any(|&(e, _)| !c.exits[e as usize].reset));
    }

    #[test]
    fn nonuniform_first_move_direction_split() {
        // From the start, the first move is Up/Down/Left/Right; vertical
        // and horizontal splits are fair, so by symmetry each vertical
        // direction carries equal mass, as does each horizontal one.
        let c = collapse(&nonuniform_kernel(16).unwrap()).unwrap();
        let mut by_dir = std::collections::HashMap::new();
        for &(e, p) in &c.rows[c.start].exits {
            *by_dir.entry(c.exits[e as usize].dir).or_insert(0.0) += p;
        }
        let up = by_dir[&ants_grid::Direction::Up];
        let down = by_dir[&ants_grid::Direction::Down];
        let left = by_dir[&ants_grid::Direction::Left];
        let right = by_dir[&ants_grid::Direction::Right];
        assert!((up - down).abs() < 1e-12);
        assert!((left - right).abs() < 1e-12);
        assert!((up + down + left + right - 1.0).abs() < 1e-12);
        // Vertical comes first, so it carries more of the first-move mass.
        assert!(up > left);
    }

    #[test]
    fn uniform_collapse_tracks_truncation_mass() {
        // A tiny cap makes the truncation mass visible.
        let k = uniform_kernel(1, 2, 1, 2).unwrap();
        let c = collapse(&k).unwrap();
        let t = c.rows[c.start].trunc;
        assert!(t > 0.0, "cap 2 must leak measurable mass");
        assert!((row_mass(&c, c.start) - 1.0).abs() < 1e-12);
        // At the default cap the leak is far below the tolerance.
        let k = uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap();
        let c = collapse(&k).unwrap();
        assert!(c.rows[c.start].trunc < crate::TRUNCATION_TOL);
    }

    #[test]
    fn mortal_collapse_has_deficit_at_expiry() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 2).unwrap();
        let c = collapse(&k).unwrap();
        // Fresh agent: full mass exits (first move always happens).
        assert!((row_mass(&c, c.start) - 1.0).abs() < 1e-15);
        // Expired layer: no exits, no trunc — pure deficit.
        let expired = 2 * inner.num_states(); // layer u = 2, state 0
        assert!(c.rows[expired].exits.is_empty());
        assert_eq!(c.rows[expired].trunc, 0.0);
        assert!((c.rows[expired].deficit() - 1.0).abs() < 1e-15);
    }
}
