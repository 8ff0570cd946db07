//! # ants-core — plane search with bounded selection complexity
//!
//! The primary contribution of *"Trade-offs between Selection Complexity
//! and Performance when Searching the Plane without Communication"*
//! (Lenzen, Lynch, Newport, Radeva; PODC 2014), as a library:
//!
//! * [`SelectionComplexity`] — the paper's metric `χ(A) = b + log ℓ`,
//!   where `b` is the agent's memory in bits and `1/2^ℓ` bounds its finest
//!   coin;
//! * [`SearchStrategy`] — the step-wise agent interface every algorithm
//!   implements (one call = one Markov-chain transition);
//! * [`NonUniformSearch`] — Algorithm 1: the simple search that knows `D`,
//!   expected `O(D²/n + D)` moves (Theorem 3.5);
//! * [`CoinNonUniformSearch`] — Algorithm 1 driven by composite coins
//!   (Algorithm 2), achieving `χ = log log D + O(1)` (Theorem 3.7);
//! * [`UniformSearch`] — Algorithm 5: uniform in `D`, expected
//!   `(D²/n + D) · 2^{O(ℓ)}` moves with `χ ≤ 3 log log D + O(1)`
//!   (Theorem 3.14);
//! * [`components`] — Algorithms 3 and 4 (`walk` and `search`) as reusable
//!   state machines;
//! * [`FullyUniformSearch`] — the Section 2 lifting: uniform in both
//!   `D` and `n` via guess-and-double (the paper's citation of ref.&nbsp;12);
//! * [`baselines`] — comparators: uniform random walk (the paper's ref.&nbsp;3),
//!   spiral search (deterministic, memory-hungry), Feinerman-Korman-style
//!   harmonic search (`χ = Θ(log D)`, the paper's ref.&nbsp;12), and arbitrary
//!   low-χ automata.
//!
//! ## Example
//!
//! ```
//! use ants_core::{NonUniformSearch, SearchStrategy};
//! use ants_grid::Point;
//! use ants_rng::{derive_rng, DefaultRng};
//!
//! let mut agent = NonUniformSearch::new(8).unwrap(); // knows D = 8
//! let mut rng: DefaultRng = derive_rng(42, 0);
//! let mut pos = Point::ORIGIN;
//! for _ in 0..10_000 {
//!     pos = ants_core::apply_action(pos, agent.step(&mut rng));
//!     if pos == Point::new(3, -2) { break; }
//! }
//! // The agent's selection complexity is χ = b + log ℓ:
//! let chi = agent.selection_complexity().chi();
//! assert!(chi > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod components;
mod non_uniform;
mod selection;
mod strategy;
mod uniform;
mod uniform_n;

pub use ants_automaton::GridAction;
pub use non_uniform::{CoinNonUniformSearch, NonUniformSearch};
pub use selection::SelectionComplexity;
pub use strategy::{apply_action, SearchStrategy, Stride};
pub use uniform::UniformSearch;
pub use uniform_n::FullyUniformSearch;

/// Ceiling of `log₂ x` for `x ≥ 1`.
pub(crate) fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
    }
}
