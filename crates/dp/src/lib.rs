//! # ants-dp — the exact dynamic-programming backend
//!
//! Every number the simulator produces is a Monte Carlo estimate. For
//! the *Markovian* zoo strategies — finite internal state, exact dyadic
//! transition probabilities, no dependence on history beyond the state —
//! the same quantities are exactly computable by dynamic programming
//! over `(internal state × position)` occupancy tables, in the style of
//! time-indexed propagation DPs for random walks. This crate is that
//! second engine:
//!
//! * [`MarkovKernel`] / [`TableKernel`] — a strategy as data: per
//!   internal state, an exact transition distribution over
//!   `(next state, grid action)`. Constructors cover `randomwalk`,
//!   `coin(d, ℓ)`, `nonuniform(d)`, `uniform(ℓ, n, K)` (phase-capped
//!   with exact truncation accounting), every PFA `automaton(...)`
//!   entry, and `mortal(inner, expiry)` as a state-space product.
//!   Lévy, harmonic, spiral and fully-uniform strategies are *not*
//!   Markovian in this sense and fail loudly ([`DpError::Unsupported`])
//!   — never a silent fallback.
//! * [`collapse`] — step sequences between moves (coin flips, oracle
//!   returns) are collapsed by an exact linear solve into per-*move*
//!   transition entries, so the absorption DP's horizon is the move
//!   budget, not the (much larger) step count.
//! * `forward` — the one forward occupancy DP, generic over the clock
//!   (collapsed per-move rows or raw per-step rows) and the storage (the
//!   dense budget box, or the sorted sparse frontier of `frontier` with
//!   its mirror fold, picked per solve by [`DpMode`]). It alone owns
//!   dead-state skipping, [`PRUNE`]/[`TRUNCATION_TOL`] accounting,
//!   target absorption and the storage guards.
//! * [`absorption_cdf_mode`] — the move clock: exact per-trial
//!   absorption CDFs over the target (success probability within any
//!   move budget, conditional expected/median moves).
//! * [`step_absorption_cdf_mode`] — the step clock, for the
//!   `observe.rs` metric vocabulary: found-round curves, and as `1 − F`
//!   the coverage-by-round and first-visit curves; [`chi_support`]
//!   adds the χ support statistic.
//! * `eval` — the cell evaluator: combines per-strategy CDFs for
//!   independent mixed populations in closed form
//!   (`1 − Π(1 − Fᵢ(t))^kᵢ`), averages over the target placement's
//!   enumerated support, and emits the same row vocabulary as the
//!   Monte Carlo `WorkloadExperiment`.
//!
//! Exactness contract: all kernel probabilities are dyadic rationals
//! representable in `f64`; the DP's only approximations are (a) f64
//! summation round-off and (b) explicitly tracked truncation/pruning
//! mass, which is checked against [`TRUNCATION_TOL`] and turns into a
//! [`DpError::Truncation`] instead of a wrong answer. Evaluation is
//! single-threaded with a fixed summation order, so reports are
//! byte-identical across thread counts and reruns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absorb;
mod collapse;
mod error;
mod eval;
mod forward;
mod frontier;
mod kernel;
mod rounds;

pub use absorb::absorption_cdf_mode;
pub use collapse::{collapse, CollapsedKernel, CollapsedRow, MoveExit};
pub use error::DpError;
pub use eval::{
    evaluate, evaluate_with, target_support, DpCellReport, DpMetrics, DpRequest, DpStrategy,
    SolveCache,
};
pub use forward::{AbsorptionCurve, FrontierStats};
pub use kernel::{
    coin_kernel, kernel_fingerprint, mortal_kernel, nonuniform_kernel, pfa_kernel,
    randomwalk_kernel, uniform_kernel, KernelTransition, MarkovKernel, PositionClass, TableKernel,
    UNIFORM_PHASE_CAP,
};
pub use rounds::{chi_support, step_absorption_cdf_mode};

/// Backend selector surfaced through workload specs and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Monte Carlo: the simulator's trial pool (the default).
    #[default]
    Mc,
    /// Exact dynamic programming over Markov kernels.
    Dp,
}

impl Backend {
    /// Parse a spec/CLI backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "mc" => Some(Backend::Mc),
            "dp" => Some(Backend::Dp),
            _ => None,
        }
    }

    /// The spec/CLI name of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Mc => "mc",
            Backend::Dp => "dp",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Occupancy-table representation selector for the exact backend,
/// surfaced as `dp_mode = "dense" | "sparse" | "auto"` on workload
/// specs and `--dp-mode` on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DpMode {
    /// Dense `(state, position)` tables over the full budget square,
    /// each step visiting and clearing only the occupied row spans —
    /// fastest on small cells, refused past [`MAX_TABLE_ENTRIES`].
    Dense,
    /// Sparse frontier of occupied entries with symmetry folding — the
    /// only representation past the dense guard.
    Sparse,
    /// Per-solve choice (the default): dense while the predicted table
    /// stays at or below [`DENSE_BREAKEVEN_ENTRIES`], sparse beyond.
    #[default]
    Auto,
}

impl DpMode {
    /// Parse a spec/CLI mode name.
    pub fn parse(s: &str) -> Option<DpMode> {
        match s {
            "dense" => Some(DpMode::Dense),
            "sparse" => Some(DpMode::Sparse),
            "auto" => Some(DpMode::Auto),
            _ => None,
        }
    }

    /// The spec/CLI name of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            DpMode::Dense => "dense",
            DpMode::Sparse => "sparse",
            DpMode::Auto => "auto",
        }
    }

    /// Resolve `Auto` against a predicted dense table shape
    /// (`states × (2·span + 1)²` entries): dense at or below the
    /// measured break-even, sparse beyond — but only while sparse is
    /// *plausible*, i.e. a single state's full position square still
    /// fits [`MAX_FRONTIER_ENTRIES`]. Past that, a worst-case (fully
    /// diffusive) kernel would grind through billions of frontier
    /// updates before the reactive cap could trip, so `Auto` stays
    /// dense and fails fast on the dense guard instead; forcing
    /// `dp_mode = "sparse"` explicitly remains an opt-in for kernels
    /// whose live frontier is known to stay thin at huge budgets.
    /// `Dense` and `Sparse` resolve to themselves.
    pub fn resolve(self, states: usize, span: u64) -> DpMode {
        match self {
            DpMode::Auto => {
                let width = (2 * span as u128 + 1).pow(2);
                let dense_fits = (states as u128)
                    .checked_mul(width)
                    .is_some_and(|e| e <= DENSE_BREAKEVEN_ENTRIES as u128);
                if dense_fits {
                    DpMode::Dense
                } else if width <= MAX_FRONTIER_ENTRIES as u128 {
                    DpMode::Sparse
                } else {
                    DpMode::Dense
                }
            }
            mode => mode,
        }
    }
}

impl std::fmt::Display for DpMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Largest internal-state space the per-move collapse will solve
/// exactly. The collapse's sparse elimination costs time and memory in
/// the transient system's nonzeros and fill-in, which reach the cubic
/// dense cost only when a block's states all couple to each other.
pub const MAX_SOLVE_STATES: usize = 1024;

/// Largest dense occupancy table, in entries
/// (`states × (2·budget + 1)²`), the forward DP will allocate.
pub const MAX_TABLE_ENTRIES: usize = 1 << 23;

/// Maximum probability mass allowed to fall past truncation states or
/// pruning before the evaluation refuses to report
/// ([`DpError::Truncation`]).
pub const TRUNCATION_TOL: f64 = 1e-9;

/// States whose accumulated occupancy mass stays below this floor are
/// ignored by the χ support statistic (they are never meaningfully
/// selected).
pub const CHI_MASS_FLOOR: f64 = 1e-12;

/// Occupancy entries below this mass are dropped by the forward DP; the
/// dropped total is accounted exactly and checked against
/// [`TRUNCATION_TOL`].
pub const PRUNE: f64 = 1e-20;

/// Largest merged sparse frontier, in live `(state, position)` entries,
/// before the sparse DP refuses ([`DpError::Guard`]). Matches the dense
/// entry cap: sparse extends the reachable *budget*, not the reachable
/// *occupancy*.
pub const MAX_FRONTIER_ENTRIES: usize = 1 << 23;

/// Largest move budget / round horizon the packed sparse frontier key
/// can address (each offset coordinate gets 21 bits).
pub const MAX_SPARSE_SPAN: u64 = (1 << 20) - 1;

/// Auto-mode break-even, in predicted dense table entries: dense at or
/// below, sparse above. It was measured when a dense step cost the
/// whole box, between the 10⁵-entry single-state cells and the
/// 10⁶-entry multi-state cells of the bundled crosscheck grid. A dense
/// step now costs its occupied row spans and a sparse step settles with
/// a radix sort instead of a comparison sort; forced-sparse cells still
/// run several times slower than `Auto` on most of that grid, so the
/// true crossing likely lies higher. The line stays because moving it
/// would move cells across the fold line and change report bytes. perfbench's
/// `dp-exact` workload runs cells on both sides: `decide.dp_dense` and
/// `decide.dp_sparse` count the choices made here, and
/// `dp.solve_ms.dense` / `dp.solve_ms.sparse` time them.
pub const DENSE_BREAKEVEN_ENTRIES: usize = 1 << 18;

#[cfg(test)]
mod tests {
    use super::{Backend, DpMode, DENSE_BREAKEVEN_ENTRIES};

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Mc, Backend::Dp] {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!(Backend::parse("exact"), None);
        assert_eq!(Backend::default(), Backend::Mc);
    }

    #[test]
    fn dp_mode_names_round_trip() {
        for m in [DpMode::Dense, DpMode::Sparse, DpMode::Auto] {
            assert_eq!(DpMode::parse(m.as_str()), Some(m));
            assert_eq!(m.to_string(), m.as_str());
        }
        assert_eq!(DpMode::parse("hashed"), None);
        assert_eq!(DpMode::default(), DpMode::Auto);
    }

    #[test]
    fn auto_resolves_at_the_break_even() {
        // 1 state at span 32: 65² = 4225 entries — dense.
        assert_eq!(DpMode::Auto.resolve(1, 32), DpMode::Dense);
        // Past the break-even with a plausible frontier: sparse.
        assert_eq!(DpMode::Auto.resolve(DENSE_BREAKEVEN_ENTRIES, 32), DpMode::Sparse);
        // A span whose single-state square cannot fit the frontier cap
        // stays dense (and so fails fast on the dense guard) rather
        // than grinding toward the reactive frontier cap: 2·1447+1
        // squared is the last width at or under 2²³.
        assert_eq!(DpMode::Auto.resolve(1, 1447), DpMode::Sparse);
        assert_eq!(DpMode::Auto.resolve(1, 1448), DpMode::Dense);
        assert_eq!(DpMode::Auto.resolve(1024, u64::MAX / 4), DpMode::Dense);
        // Explicit modes resolve to themselves regardless of shape.
        assert_eq!(DpMode::Dense.resolve(1024, 1 << 30), DpMode::Dense);
        assert_eq!(DpMode::Sparse.resolve(1, 1), DpMode::Sparse);
    }
}
