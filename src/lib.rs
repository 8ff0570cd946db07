//! # ants — searching the plane without communication
//!
//! Facade crate re-exporting the whole workspace: a production-quality
//! reproduction of *"Trade-offs between Selection Complexity and Performance
//! when Searching the Plane without Communication"* (Lenzen, Lynch, Newport,
//! Radeva; PODC 2014).
//!
//! See the individual crates for details:
//!
//! * [`grid`] — the two-dimensional lattice substrate;
//! * [`rng`] — deterministic randomness with auditable probability resolution;
//! * [`automaton`] — probabilistic finite automata and Markov-chain analysis;
//! * [`core`] — the paper's search algorithms and the `χ = b + log ℓ` metric;
//! * [`obs`] — zero-cost telemetry: per-worker sharded counters, span
//!   timers, and schema-versioned NDJSON snapshots, strictly off the
//!   determinism path;
//! * [`dp`] — the exact dynamic-programming backend: Markov kernels and
//!   absorption DPs cross-validated against the simulator;
//! * [`sim`] — the Monte-Carlo simulation engine and statistics;
//! * [`analysis`] — lower-bound machinery (coverage prediction, drift);
//! * [`workload`] — declarative workload specs: TOML-subset scenario
//!   grids with heterogeneous strategy zoos;
//! * [`bench`](mod@bench) — the E1–E15 experiment battery behind the
//!   [`Experiment`](ants_bench::Experiment) trait and its shared runner,
//!   plus the workload-backed [`WorkloadExperiment`](ants_bench::WorkloadExperiment);
//! * [`serve`] — the content-addressed workload service: a local NDJSON
//!   daemon ([`Server`](ants_serve::Server)) that serves cache hits
//!   without touching the pool and streams misses per cell.

#![forbid(unsafe_code)]

pub use ants_analysis as analysis;
pub use ants_automaton as automaton;
pub use ants_bench as bench;
pub use ants_core as core;
pub use ants_dp as dp;
pub use ants_grid as grid;
pub use ants_obs as obs;
pub use ants_rng as rng;
pub use ants_serve as serve;
pub use ants_sim as sim;
pub use ants_workload as workload;
