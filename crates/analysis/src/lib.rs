//! # ants-analysis — lower-bound machinery
//!
//! Section 4 of the paper proves: any algorithm with
//! `χ(A) ≤ log log D − ω(1)` fails w.h.p. to find an adversarial target in
//! `D^{2−o(1)}` moves. The proof pipeline is
//!
//! 1. agents enter a recurrent class within `R₀ = D^{o(1)}` rounds
//!    (Lemma 4.2);
//! 2. within each class, states decorrelate at the Rosenthal rate
//!    (Lemma A.2 / Corollary 4.6);
//! 3. Chernoff bounds (Theorems A.3/A.4) concentrate the move counts,
//!    so positions hug a per-class straight *drift line* (Corollary 4.10);
//! 4. the union of `≤ |S|` thin tubes covers only `o(D²)` cells, leaving
//!    room for an adversarial target (Theorem 4.1).
//!
//! This crate makes steps 2 and 3 executable (step 1 is
//! `ants_automaton::markov`'s class decomposition; step 4's joint
//! coverage is measured by `ants_sim::coverage` in experiment E8):
//!
//! * [`drift`] — measure how far real trajectories deviate from the
//!   predicted drift line (Corollary 4.10 as an experiment);
//! * [`mixing`] — measured mixing curves against the Rosenthal envelope
//!   (Corollary 4.6);
//! * [`speedup`] — the speed-up ceilings the paper contrasts:
//!   `min{n, D}` above the threshold, `min{log n, D}` for random walks,
//!   `min{n, D^{o(1)}}` below the threshold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod mixing;
pub mod speedup;
