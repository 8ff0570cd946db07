//! # ants-bench — experiment harnesses
//!
//! One module per experiment (E1–E15), each implementing the
//! [`Experiment`] trait: identity ([`experiments::ExperimentMeta`]),
//! sweep shape ([`experiments::SweepConfig`]), and a `run` that returns a
//! typed [`Report`] (numbers stay `f64`/`u64` until render time; text,
//! CSV, and JSON all derive from the same records). The shared
//! [`Runner`] stamps wall-clock times and writes
//! `target/reports/<id>.json`; scenario grids fan across one thread pool
//! via `ants_sim::run_sweep_with`. Tests run every experiment at
//! [`Effort::Smoke`] so the whole battery stays exercised in CI.
//!
//! The paper is a theory paper — its "tables and figures" are the
//! quantitative claims of Theorems 3.5–3.14 and 4.1/4.11 plus the
//! supporting lemmas; each harness regenerates one of them and prints the
//! paper's claim next to the measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosscheck;
pub mod experiments;
pub mod gate;
pub mod runner;
pub mod workload;

pub use crosscheck::{crosscheck, CrosscheckReport};
pub use experiments::{Effort, Experiment, Report, ReportDoc, RowKey, RunConfig};
pub use gate::{gate_report, GateThresholds, GateViolation};
pub use runner::Runner;
pub use workload::WorkloadExperiment;
