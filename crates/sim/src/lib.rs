//! # ants-sim — Monte-Carlo engine for multi-agent plane search
//!
//! The paper proves expectations and w.h.p. statements; this crate
//! estimates the same quantities by simulation:
//!
//! * [`Scenario`] — a complete experiment description: `n` agents, a
//!   strategy factory, a target model, a move budget;
//! * [`run_trial`] / [`run_trials`] — execute independent trials
//!   (deterministically seeded, across the sweep pool) and report the
//!   paper's metrics `M_moves` and `M_steps` (the minimum over agents of
//!   moves/steps until the target is found); [`TrialPlan`] splits one
//!   trial into deterministic agent chunks; [`run_trials_serial`] is the
//!   serial reference every pooled run must match;
//! * [`run_sweep_with`] — batch a whole parameter grid of scenarios
//!   ([`SweepJob`]s) across one shared work-stealing pool at trial or
//!   agent granularity ([`Scheduler`], [`Granularity`], [`SweepOptions`]),
//!   byte-identical to running each cell serially; [`run_trials`] is the
//!   one-job case;
//! * [`Summary`] — aggregate statistics with confidence intervals;
//! * [`AgentStepper`] — the one stepping core every execution mode
//!   drives (trial engine, round model, observation layer): one call,
//!   one Markov transition, full engine semantics;
//! * [`observe`] / [`run_observed_sweep`] — pluggable deterministic
//!   observers (coverage, first-visit times, round traces, first finder,
//!   chi footprint) over fixed round horizons, scheduled across the same
//!   pool with canonical per-chunk merges;
//! * [`RoundExecutor`] — the Section 4 synchronous round model, for
//!   experiments that need joint per-round positions (a lockstep wrapper
//!   over the stepping core);
//! * [`coverage`] — joint visited-cell measurement for the lower-bound
//!   experiments (Theorem 4.1 is a statement about coverage; a wrapper
//!   over the observation layer);
//! * [`salts`] — the registry of every RNG stream index and seed salt
//!   (collision-checked, so new streams cannot alias existing ones);
//! * [`report`] — typed records, fixed-width tables, and CSV output for
//!   the experiment harnesses;
//! * [`json`] — the workspace's one JSON value model, re-exported from
//!   `ants_obs::json` (the workspace builds offline; no serde).
//!
//! The engine exploits the model's defining feature: agents do not
//! communicate, so their trajectories are independent and each can be
//! simulated to completion on its own. `M_moves` is still computed
//! exactly: later agents are capped at the best result so far, which
//! cannot change the minimum.
//!
//! ## Example
//!
//! ```
//! use ants_core::NonUniformSearch;
//! use ants_grid::TargetPlacement;
//! use ants_sim::{Scenario, run_trials};
//!
//! let scenario = Scenario::builder()
//!     .agents(4)
//!     .target(TargetPlacement::Corner { distance: 8 })
//!     .move_budget(200_000)
//!     .strategy(|_agent| Box::new(NonUniformSearch::new(8).unwrap()))
//!     .build();
//! let outcome = run_trials(&scenario, 20, 42);
//! let summary = outcome.summary();
//! assert!(summary.success_rate() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod engine;
mod metrics;
pub mod observe;
pub mod report;
mod rounds;
pub mod salts;
mod scenario;
mod sched;
mod stepping;

pub use ants_obs::json;
pub use engine::{run_trial, run_trials_serial, CapHint, ChunkRun, TrialPlan};
pub use metrics::{Outcome, Summary, TrialResult};
pub use observe::{
    observe_factory, observe_trial, FirstFind, FirstVisitGrid, Metric, MetricSet, Observation,
    ObserverSpec, TrialObservations,
};
pub use rounds::RoundExecutor;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError, StrategyFactory};
pub use sched::{
    map_indexed, run_observed_sweep, run_sweep_with, run_trials, Granularity, ObservedJob,
    Scheduler, SweepJob, SweepOptions, DEFAULT_AGENT_CHUNK,
};
pub use stepping::{AgentStepper, StepOutcome};
