//! [`WorkloadExperiment`] — any parsed workload spec as an
//! [`Experiment`], so declarative workloads inherit the whole runner
//! stack for free: wall-clock stamping, typed [`Report`]s (text/CSV/JSON
//! from one record set), `target/reports/<key>.json`, and the shared
//! `--seed/--threads/--granularity/--chunk` flag surface.
//!
//! The adapter is thin by design: the workload crate owns parsing,
//! expansion, and validation; this module only maps a validated
//! [`WorkloadPlan`] onto the [`Experiment`] trait and renders one report
//! row per expanded cell.
//!
//! When the spec declares `metrics = [...]` (or the run config adds
//! `--metrics`), every cell additionally runs through the observation
//! layer (`ants_sim::run_observed_sweep`, same pool and scheduling
//! options as the trial sweep) and the report gains the metric columns —
//! aggregated over trials, in canonical metric order, byte-identical at
//! every thread count, granularity, and chunk size like every other
//! report cell.

use crate::experiments::{Effort, Experiment, ExperimentMeta, Report, RunConfig, SweepConfig};
use ants_dp::{Backend, DpMode};
use ants_obs::{Counter, Phase, SpanGuard};
use ants_sim::report::Value;
use ants_sim::{run_observed_sweep, run_sweep_with, Metric, MetricSet, TrialObservations};
use ants_workload::dp::DpMemo;
use ants_workload::{PlannedCell, WorkloadError, WorkloadPlan};
use std::path::Path;

/// A workload-backed experiment.
///
/// Plans arrive pre-validated from `WorkloadPlan::expand` (every cell's
/// scenario proven constructible), so [`Experiment::run`] cannot fail
/// on a spec that loaded successfully.
pub struct WorkloadExperiment {
    plan: WorkloadPlan,
    meta: ExperimentMeta,
}

impl WorkloadExperiment {
    /// Wrap a validated plan.
    ///
    /// `WorkloadPlan::expand` already proved every cell's scenario
    /// constructible, so this does not re-validate. A hand-assembled
    /// plan that bypassed `expand` surfaces its errors when
    /// [`Experiment::run`] builds the jobs.
    pub fn new(plan: WorkloadPlan) -> WorkloadExperiment {
        // `ExperimentMeta` carries `&'static str` (the 15 built-in
        // experiments are consts); workload identities are data, so leak
        // them — bounded by the number of specs loaded per process.
        let claim: &'static str = if plan.description.is_empty() {
            "declarative workload spec (see the spec file for intent)"
        } else {
            leak(plan.description.clone())
        };
        let meta = ExperimentMeta {
            key: leak(plan.key.clone()),
            id: leak(format!("workload '{}'", plan.name)),
            claim,
        };
        WorkloadExperiment { plan, meta }
    }

    /// Load a spec file into a runnable experiment.
    ///
    /// # Errors
    ///
    /// I/O, parse, and validation failures, with the file named in the
    /// error context.
    pub fn from_file(path: &Path) -> Result<WorkloadExperiment, WorkloadError> {
        Ok(WorkloadExperiment::new(ants_workload::load(path)?))
    }

    /// The underlying plan.
    pub fn plan(&self) -> &WorkloadPlan {
        &self.plan
    }

    /// The backend a cell runs under this config: the `--backend`
    /// override if set, else the cell's own (spec-validated) choice.
    pub fn cell_backend(cfg: &RunConfig, cell: &PlannedCell) -> Backend {
        cfg.backend.unwrap_or(cell.backend)
    }

    /// The DP representation a cell solves under this config: the
    /// `--dp-mode` override if set, else the cell's own (spec-resolved)
    /// `dp_mode`.
    pub fn cell_dp_mode(cfg: &RunConfig, cell: &PlannedCell) -> DpMode {
        cfg.dp_mode.unwrap_or(cell.dp_mode)
    }

    /// Check that every cell this config routes to the exact backend can
    /// actually be evaluated exactly — the CLI calls this before running
    /// so a forced `--backend dp` fails up front with the offending
    /// strategy named, not mid-report.
    ///
    /// # Errors
    ///
    /// The first DP-incapable cell, with its label and strategy.
    pub fn validate_backends(&self, cfg: &RunConfig) -> Result<(), WorkloadError> {
        for cell in &self.plan.cells {
            if Self::cell_backend(cfg, cell) != Backend::Dp {
                continue;
            }
            if cell.guess_move_ceiling.is_some() {
                return Err(WorkloadError {
                    context: format!("cell '{}'", cell.label),
                    message: "backend = \"dp\" cannot model 'guess_move_ceiling' — drop the \
                              ceiling or use backend = \"mc\""
                        .to_string(),
                });
            }
            for (_, s) in &cell.population {
                s.kernel().map_err(|message| WorkloadError {
                    context: format!("cell '{}'", cell.label),
                    message,
                })?;
            }
        }
        Ok(())
    }

    /// [`Experiment::run`], but fallible: exact-backend failures (a
    /// non-Markovian strategy forced onto DP via `--backend`, or a cell
    /// exceeding the DP's cost guards) come back as errors instead of
    /// panics. Monte Carlo cells cannot fail.
    pub fn try_run(&self, cfg: &RunConfig) -> Result<Report, WorkloadError> {
        let smoke = cfg.effort == Effort::Smoke;
        let metrics = self.plan.metrics.union(cfg.metrics);
        let mut report = self.start_report(cfg, metrics, smoke);
        // Route each cell: DP cells leave the trial pool entirely; MC
        // cells keep their per-cell seed tags, so the presence of DP
        // neighbours never shifts their randomness.
        let backends: Vec<Backend> =
            self.plan.cells.iter().map(|c| Self::cell_backend(cfg, c)).collect();
        let mc_cells: Vec<&PlannedCell> = self
            .plan
            .cells
            .iter()
            .zip(&backends)
            .filter(|(_, b)| **b == Backend::Mc)
            .map(|(c, _)| c)
            .collect();
        let jobs =
            mc_cells.iter().map(|c| c.job(smoke, cfg.base_seed)).collect::<Result<Vec<_>, _>>()?;
        let outcomes = run_sweep_with(&jobs, &cfg.sweep_options());
        // The observed sweep rides the same pool and scheduling options;
        // an empty metric set skips it entirely, so metric-less specs
        // keep their exact pre-observation reports.
        let observed: Vec<Vec<TrialObservations>> = if metrics.is_empty() {
            Vec::new()
        } else {
            let ojobs = mc_cells
                .iter()
                .map(|c| c.observed_job(smoke, cfg.base_seed, metrics))
                .collect::<Result<Vec<_>, _>>()?;
            run_observed_sweep(&ojobs, &cfg.sweep_options())
        };
        // One memo for the whole run: cells that share curves (same
        // kernel, target, budget, mode) solve once. Memoized reports are
        // byte-identical to fresh ones, so this is pure wall-clock.
        let memo = DpMemo::new();
        let mut mc_idx = 0usize;
        for (cell, backend) in self.plan.cells.iter().zip(&backends) {
            let row = match backend {
                Backend::Mc => {
                    let i = mc_idx;
                    mc_idx += 1;
                    mc_row(cell, smoke, metrics, &outcomes[i], observed.get(i))
                }
                Backend::Dp => dp_row(cell, smoke, metrics, cfg, &memo)?,
            };
            report.row(row);
        }
        Ok(report)
    }

    /// The report skeleton every run variant shares: the full column
    /// vocabulary for `metrics` and the spec-identity params.
    fn start_report(&self, cfg: &RunConfig, metrics: MetricSet, smoke: bool) -> Report {
        let mut columns = vec![
            "cell",
            "population",
            "target",
            "n",
            "trials",
            "found",
            "success",
            "median moves",
            "mean moves",
            "max chi",
            "exact",
        ];
        for m in metrics.iter() {
            columns.extend_from_slice(metric_columns(m));
        }
        let mut report = Report::new(&self.meta, cfg, columns);
        report.param("spec", self.plan.name.as_str());
        report.param("cells", self.plan.cells.len());
        report.param("total trials", self.plan.total_trials(smoke));
        if !metrics.is_empty() {
            let names: Vec<&str> = metrics.iter().map(Metric::as_str).collect();
            report.param("metrics", names.join(","));
        }
        report
    }

    /// [`WorkloadExperiment::try_run`], but one cell at a time:
    /// `on_row(index, cell, row)` fires as soon as each cell's row is
    /// computed, so a caller can stream partial results (the serve
    /// daemon pushes each row to its client the moment it exists).
    ///
    /// Scheduling options come from the caller rather than
    /// `cfg.sweep_options()` so a caller-owned telemetry handle can ride
    /// along. Per-cell sweeps schedule differently from the batched
    /// sweep `try_run` issues, but the engine's determinism contract
    /// makes results byte-identical across schedules — a streamed report
    /// equals its batched twin cell for cell (pinned by
    /// `streamed_rows_match_batched_rows`).
    ///
    /// # Errors
    ///
    /// Exactly as [`WorkloadExperiment::try_run`]: DP-backend failures;
    /// rows already streamed stay streamed (the caller decides how to
    /// surface a mid-stream error).
    pub fn try_run_streamed(
        &self,
        cfg: &RunConfig,
        opts: &ants_sim::SweepOptions,
        on_row: impl FnMut(usize, &PlannedCell, &[Value]),
    ) -> Result<Report, WorkloadError> {
        self.try_run_streamed_with(cfg, opts, &DpMemo::new(), on_row)
    }

    /// [`WorkloadExperiment::try_run_streamed`] with a caller-owned
    /// [`DpMemo`], so a long-lived host (the serve daemon) can share DP
    /// curves *across* submissions, not just across one run's cells.
    ///
    /// # Errors
    ///
    /// Exactly as [`WorkloadExperiment::try_run_streamed`].
    pub fn try_run_streamed_with(
        &self,
        cfg: &RunConfig,
        opts: &ants_sim::SweepOptions,
        memo: &DpMemo,
        mut on_row: impl FnMut(usize, &PlannedCell, &[Value]),
    ) -> Result<Report, WorkloadError> {
        let smoke = cfg.effort == Effort::Smoke;
        let metrics = self.plan.metrics.union(cfg.metrics);
        let mut report = self.start_report(cfg, metrics, smoke);
        for (i, cell) in self.plan.cells.iter().enumerate() {
            let row = match Self::cell_backend(cfg, cell) {
                Backend::Mc => {
                    let job = cell.job(smoke, cfg.base_seed)?;
                    let outcomes = run_sweep_with(&[job], opts);
                    let observed: Vec<Vec<TrialObservations>> = if metrics.is_empty() {
                        Vec::new()
                    } else {
                        let ojob = cell.observed_job(smoke, cfg.base_seed, metrics)?;
                        run_observed_sweep(&[ojob], opts)
                    };
                    mc_row(cell, smoke, metrics, &outcomes[0], observed.first())
                }
                Backend::Dp => dp_row(cell, smoke, metrics, cfg, memo)?,
            };
            on_row(i, cell, &row);
            report.row(row);
        }
        Ok(report)
    }
}

/// Intern a string as `&'static str`. Repeated calls with the same
/// content return the same leaked allocation, so a long-running process
/// (the serve daemon constructs a `WorkloadExperiment` per request)
/// leaks memory proportional to the number of *distinct* workload
/// identities, not the number of requests.
fn leak(s: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED.get_or_init(Mutex::default).lock().expect("intern table poisoned");
    match set.get(s.as_str()) {
        Some(existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(s.into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

impl Experiment for WorkloadExperiment {
    fn meta(&self) -> &ExperimentMeta {
        &self.meta
    }

    fn config(&self, effort: Effort) -> SweepConfig {
        let smoke = effort == Effort::Smoke;
        let trials_per_cell = self.plan.cells.iter().map(|c| c.trials_at(smoke)).max().unwrap_or(0);
        SweepConfig { cells: self.plan.cells.len(), trials_per_cell }
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        // Spec-level `backend = "dp"` cells were validated at expansion;
        // only a forced `--backend dp` override or a cost-guard trip can
        // fail here, and the CLI pre-validates via `validate_backends`.
        self.try_run(cfg).unwrap_or_else(|e| panic!("workload run failed: {e}"))
    }
}

/// One Monte Carlo report row: trial-pool summary plus observation
/// aggregates, `exact = false`.
fn mc_row(
    cell: &PlannedCell,
    smoke: bool,
    metrics: MetricSet,
    outcome: &ants_sim::Outcome,
    observed: Option<&Vec<TrialObservations>>,
) -> Vec<Value> {
    let s = outcome.summary();
    let median = if s.found() == 0 { f64::NAN } else { s.median_moves() };
    let mean = if s.found() == 0 { f64::NAN } else { s.mean_moves() };
    let mut row: Vec<Value> = vec![
        cell.label.as_str().into(),
        cell.population_label().into(),
        cell.target_label().into(),
        cell.agents.into(),
        cell.trials_at(smoke).into(),
        s.found().into(),
        s.success_rate().into(),
        median.into(),
        mean.into(),
        s.chi_footprint().chi().into(),
        false.into(),
    ];
    for (spec_idx, m) in metrics.iter().enumerate() {
        metric_cells(m, cell, observed.expect("observed sweep ran"), spec_idx, &mut row);
    }
    row
}

/// One exact report row: the DP cell evaluation mapped onto the same
/// column vocabulary, `exact = true`. Solves under the config's
/// `--dp-mode` override (if any), shares curves through `memo`, and
/// attributes the solve to telemetry (`dp_solve` span, `dp_solves` /
/// `dp_memo_hits` / `dp_memo_misses` counters) when a sink is attached.
fn dp_row(
    cell: &PlannedCell,
    smoke: bool,
    metrics: MetricSet,
    cfg: &RunConfig,
    memo: &DpMemo,
) -> Result<Vec<Value>, WorkloadError> {
    let (hits_before, misses_before) = memo.stats();
    let r = {
        let _span = SpanGuard::new(cfg.telemetry, Phase::DpSolve);
        ants_workload::dp::evaluate_cell_with(cell, smoke, metrics, cfg.dp_mode, Some(memo))?
    };
    if let Some(t) = cfg.telemetry {
        let (hits, misses) = memo.stats();
        t.incr(0, Counter::DpSolves);
        t.add(0, Counter::DpMemoHits, hits.saturating_sub(hits_before));
        t.add(0, Counter::DpMemoMisses, misses.saturating_sub(misses_before));
    }
    let mut row: Vec<Value> = vec![
        cell.label.as_str().into(),
        cell.population_label().into(),
        cell.target_label().into(),
        cell.agents.into(),
        cell.trials_at(smoke).into(),
        r.found.into(),
        r.success.into(),
        r.median_moves.into(),
        r.mean_moves.into(),
        r.max_chi.into(),
        true.into(),
    ];
    let missing = || -> Value {
        // Unreachable by construction: `dp_request` sets every flag the
        // metric set contains, and `evaluate` fills every flagged field.
        f64::NAN.into()
    };
    for m in metrics.iter() {
        match m {
            Metric::Coverage => {
                row.push(r.coverage.map_or_else(missing, Value::from));
                row.push(r.adversarial_left.map_or_else(missing, Value::from));
            }
            Metric::FirstVisit => {
                row.push(r.mean_first_visit.map_or_else(missing, Value::from));
            }
            Metric::RoundTrace => match r.round_trace {
                Some((q, h)) => {
                    row.push(q.into());
                    row.push(h.into());
                }
                None => {
                    row.push(missing());
                    row.push(missing());
                }
            },
            Metric::Chi => row.push(r.chi_obs.map_or_else(missing, Value::from)),
            Metric::FoundRound => match r.found_round {
                Some((frac, mean)) => {
                    row.push(frac.into());
                    row.push(mean.into());
                }
                None => {
                    row.push(missing());
                    row.push(missing());
                }
            },
        }
    }
    Ok(row)
}

/// The report columns each metric contributes, in order.
fn metric_columns(m: Metric) -> &'static [&'static str] {
    match m {
        Metric::Coverage => &["coverage", "adversarial left"],
        Metric::FirstVisit => &["mean first visit"],
        Metric::RoundTrace => &["cover@R/4", "cover@R/2"],
        Metric::Chi => &["chi obs"],
        Metric::FoundRound => &["found@R", "mean found round"],
    }
}

/// Aggregate one metric's observations over a cell's trials into report
/// cells (appended to `row` in [`metric_columns`] order).
///
/// All aggregations iterate trials in seed order, so the cells inherit
/// the observation layer's determinism contract.
fn metric_cells(
    m: Metric,
    cell: &PlannedCell,
    trials: &[TrialObservations],
    spec_idx: usize,
    row: &mut Vec<Value>,
) {
    let n = trials.len().max(1) as f64;
    match m {
        Metric::Coverage => {
            let mut sum = 0.0;
            let mut adversarial_every_trial = true;
            for t in trials {
                let grid = t[spec_idx].as_coverage();
                sum += grid.coverage();
                adversarial_every_trial &= grid.farthest_unvisited().is_some();
            }
            row.push((sum / n).into());
            row.push(adversarial_every_trial.into());
        }
        Metric::FirstVisit => {
            let mut sum = 0.0;
            let mut seen = 0u64;
            for t in trials {
                if let Some(mean) = t[spec_idx].as_first_visit().mean_first_visit() {
                    sum += mean;
                    seen += 1;
                }
            }
            row.push(if seen == 0 { f64::NAN.into() } else { (sum / seen as f64).into() });
        }
        Metric::RoundTrace => {
            let rounds = cell.observe_rounds();
            for at in [rounds.div_ceil(4), rounds.div_ceil(2)] {
                let mut sum = 0.0;
                for t in trials {
                    // The denominator is the observation's own measured
                    // region, so a future bounds change in
                    // `observer_specs` cannot desynchronise the fraction.
                    let grid = t[spec_idx].as_first_visit();
                    sum += grid.visited_by(at) as f64 / grid.bounds().area() as f64;
                }
                row.push((sum / n).into());
            }
        }
        Metric::Chi => {
            let mut max = ants_core::SelectionComplexity::new(0, 0);
            for t in trials {
                max = max.max(t[spec_idx].as_chi());
            }
            row.push(max.chi().into());
        }
        Metric::FoundRound => {
            let mut found = 0u64;
            let mut sum = 0.0;
            for t in trials {
                if let Some(f) = t[spec_idx].as_first_find() {
                    found += 1;
                    sum += f.round as f64;
                }
            }
            row.push((found as f64 / n).into());
            row.push(if found == 0 { f64::NAN.into() } else { (sum / found as f64).into() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_workload::WorkloadSpec;

    const SPEC: &str = r#"
name = "unit demo"
description = "three-strategy mixed cell"

[defaults]
trials = 6
smoke_trials = 3

[[cells]]
name = "mixed"
agents = 4
target = { model = "ball", dist = 6 }
population = [
  { strategy = "nonuniform(dist)", weight = 2 },
  { strategy = "randomwalk", weight = 1 },
  { strategy = "spiral", weight = 1 },
]
"#;

    fn experiment() -> WorkloadExperiment {
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(SPEC).unwrap()).unwrap();
        WorkloadExperiment::new(plan)
    }

    #[test]
    fn adapts_a_plan_onto_the_experiment_trait() {
        let exp = experiment();
        assert_eq!(exp.meta().key, "unit-demo");
        assert!(exp.meta().id.contains("unit demo"));
        assert_eq!(exp.meta().claim, "three-strategy mixed cell");
        let cfg = exp.config(Effort::Smoke);
        assert_eq!(cfg.cells, 1);
        assert_eq!(cfg.trials_per_cell, 3);
        assert_eq!(exp.config(Effort::Standard).trials_per_cell, 6);
    }

    #[test]
    fn runs_end_to_end_with_typed_rows() {
        let exp = experiment();
        let report = exp.run(&RunConfig::smoke());
        assert_eq!(report.len(), 1);
        assert_eq!(report.cell(0, "cell"), &ants_sim::report::Value::Text("mixed".into()));
        assert_eq!(report.num(0, "trials"), 3.0);
        assert!(report.num(0, "success") >= 0.0);
        // The report serializes with the standard schema.
        let parsed = ants_sim::json::Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("unit-demo"));
    }

    #[test]
    fn seed_shifts_change_outcomes_deterministically() {
        let exp = experiment();
        let a = exp.run(&RunConfig::standard());
        let b = exp.run(&RunConfig::standard());
        assert_eq!(a.to_csv(), b.to_csv(), "same config must reproduce");
        let shifted = exp.run(&RunConfig::standard().with_seed(1));
        assert_ne!(a.to_csv(), shifted.to_csv(), "--seed must shift the sweep");
    }

    /// A spec with `metrics = [...]`: every declared metric's columns
    /// appear after the base columns, in canonical order.
    const METRIC_SPEC: &str = r#"
name = "metric demo"
metrics = ["coverage", "first_visit", "round_trace", "chi", "found_round"]

[defaults]
trials = 4
smoke_trials = 2

[[cells]]
name = "walk"
agents = 2
target = { model = "corner", dist = 8 }
move_budget = 64
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "spiral"
agents = 1
target = { model = "corner", dist = 4 }
move_budget = 120
population = [ { strategy = "spiral" } ]
"#;

    fn metric_experiment() -> WorkloadExperiment {
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(METRIC_SPEC).unwrap()).unwrap();
        WorkloadExperiment::new(plan)
    }

    #[test]
    fn metrics_append_observation_columns() {
        let exp = metric_experiment();
        let report = exp.run(&RunConfig::smoke());
        let cols: Vec<&str> = report.records().columns().iter().map(String::as_str).collect();
        assert_eq!(cols[10], "exact");
        assert_eq!(
            &cols[11..],
            &[
                "coverage",
                "adversarial left",
                "mean first visit",
                "cover@R/4",
                "cover@R/2",
                "chi obs",
                "found@R",
                "mean found round"
            ],
            "metric columns in canonical order after the base columns"
        );
        // The spiral covers its whole horizon deterministically: a
        // 120-round spiral walks 120 distinct cells of the 81-cell ball
        // boundary region... more to the point, its coverage is exact
        // and equal across trials, and it finds the corner target.
        assert_eq!(report.num(1, "found@R"), 1.0, "spiral finds corner(4) within 120 rounds");
        assert!(report.num(1, "coverage") > 0.9, "spiral coverage near-complete");
        // Random walkers at 64 rounds leave most of ball(8) unvisited
        // and the adversarial cell survives in every trial.
        assert!(report.num(0, "coverage") < 0.5);
        assert_eq!(report.cell(0, "adversarial left"), &Value::Bool(true));
        // Trace fractions are monotone in the round horizon.
        assert!(report.num(0, "cover@R/4") <= report.num(0, "cover@R/2"));
    }

    #[test]
    fn metric_columns_are_schedule_invariant() {
        use ants_sim::Granularity;
        let reference = metric_experiment().run(&RunConfig::smoke().with_threads(Some(1)));
        for (threads, granularity, chunk) in [
            (2usize, Granularity::Trial, None),
            (2, Granularity::Agent, Some(1)),
            (4, Granularity::Agent, Some(3)),
        ] {
            let cfg = RunConfig::smoke()
                .with_threads(Some(threads))
                .with_granularity(granularity)
                .with_chunk(chunk);
            let got = metric_experiment().run(&cfg);
            assert_eq!(
                got.to_csv(),
                reference.to_csv(),
                "metric columns drifted at threads {threads}, {granularity:?}, chunk {chunk:?}"
            );
        }
    }

    /// One MC cell and one DP cell sharing a tiny scenario.
    const MIXED_BACKEND_SPEC: &str = r#"
name = "backend demo"

[defaults]
trials = 40

[[cells]]
name = "mc"
agents = 2
move_budget = 16
target = { model = "fixed", x = 1, y = 1 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "dp"
agents = 2
move_budget = 16
backend = "dp"
target = { model = "fixed", x = 1, y = 1 }
population = [ { strategy = "randomwalk" } ]
"#;

    fn mixed_experiment() -> WorkloadExperiment {
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(MIXED_BACKEND_SPEC).unwrap()).unwrap();
        WorkloadExperiment::new(plan)
    }

    #[test]
    fn dp_cells_route_off_the_trial_pool_with_exact_rows() {
        let exp = mixed_experiment();
        let report = exp.run(&RunConfig::standard());
        assert_eq!(report.cell(0, "exact"), &Value::Bool(false));
        assert_eq!(report.cell(1, "exact"), &Value::Bool(true));
        // Same scenario, so the MC estimate sits near the DP truth.
        let dp = report.num(1, "success");
        assert!(dp > 0.0 && dp < 1.0, "{dp}");
        assert!((report.num(0, "success") - dp).abs() < 0.35);
        // The DP row's found column is the expectation trials × success.
        assert!((report.num(1, "found") - 40.0 * dp).abs() < 1e-12);
    }

    #[test]
    fn dp_rows_are_byte_identical_across_schedules_and_reruns() {
        let reference = mixed_experiment().run(&RunConfig::standard().with_threads(Some(1)));
        for threads in [2usize, 4] {
            let got = mixed_experiment().run(&RunConfig::standard().with_threads(Some(threads)));
            assert_eq!(got.to_csv(), reference.to_csv(), "drift at {threads} threads");
        }
        let rerun = mixed_experiment().run(&RunConfig::standard().with_threads(Some(1)));
        assert_eq!(rerun.to_csv(), reference.to_csv());
    }

    #[test]
    fn backend_override_forces_both_directions() {
        let exp = mixed_experiment();
        let all_dp = exp.run(&RunConfig::standard().with_backend(Some(Backend::Dp)));
        assert_eq!(all_dp.cell(0, "exact"), &Value::Bool(true));
        assert_eq!(all_dp.cell(1, "exact"), &Value::Bool(true));
        // Both cells describe the same scenario, so forced-DP rows agree
        // exactly.
        assert_eq!(
            all_dp.num(0, "success").to_bits(),
            all_dp.num(1, "success").to_bits(),
            "identical cells must produce identical exact rows"
        );
        let all_mc = exp.run(&RunConfig::standard().with_backend(Some(Backend::Mc)));
        assert_eq!(all_mc.cell(1, "exact"), &Value::Bool(false));
    }

    #[test]
    fn forced_dp_on_a_non_markovian_cell_fails_validation() {
        let text = MIXED_BACKEND_SPEC.replace("\"randomwalk\"", "\"levy(2.0, 64)\"");
        // The spec itself is fine: the "dp" cell would fail expansion, so
        // flip it to mc first and force dp from the config instead.
        let text = text.replace("backend = \"dp\"", "backend = \"mc\"");
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(&text).unwrap()).unwrap();
        let exp = WorkloadExperiment::new(plan);
        let cfg = RunConfig::standard().with_backend(Some(Backend::Dp));
        let e = exp.validate_backends(&cfg).unwrap_err();
        assert!(e.context.contains("cell 'mc'"), "{e}");
        assert!(e.message.contains("levy"), "{e}");
        assert!(exp.try_run(&cfg).is_err());
        // Without the override the same experiment runs fine.
        assert!(exp.validate_backends(&RunConfig::standard()).is_ok());
    }

    /// The serving contract: a streamed run is byte-identical to its
    /// batched twin — same columns, same rows, same CSV — even though
    /// per-cell sweeps schedule work differently, and the callback sees
    /// every cell in order with the exact row the report keeps.
    #[test]
    fn streamed_rows_match_batched_rows() {
        for (exp, cfg) in [
            (metric_experiment(), RunConfig::smoke()),
            (mixed_experiment(), RunConfig::standard()),
            (metric_experiment(), RunConfig::smoke().with_threads(Some(3))),
        ] {
            let batched = exp.try_run(&cfg).expect("batched run");
            let mut seen: Vec<(usize, String, Vec<Value>)> = Vec::new();
            let streamed = exp
                .try_run_streamed(&cfg, &cfg.sweep_options(), |i, cell, row| {
                    seen.push((i, cell.label.clone(), row.to_vec()));
                })
                .expect("streamed run");
            assert_eq!(streamed.to_csv(), batched.to_csv());
            assert_eq!(seen.len(), exp.plan().cells.len());
            for (pos, (i, label, row)) in seen.iter().enumerate() {
                assert_eq!(*i, pos, "callback order");
                assert_eq!(label, &exp.plan().cells[pos].label);
                // Cell-wise via the JSON tokens: derived PartialEq on
                // Value says NaN != NaN, which is not the equality a
                // byte-identity check wants.
                let tokens =
                    |cells: &[Value]| -> Vec<String> { cells.iter().map(Value::to_json).collect() };
                assert_eq!(tokens(row), tokens(&streamed.records().rows()[pos]));
            }
        }
    }

    #[test]
    fn dp_mode_override_agrees_with_dense_and_counts_telemetry() {
        let exp = mixed_experiment();
        let dense = exp.run(&RunConfig::standard());
        let sparse = exp.run(&RunConfig::standard().with_dp_mode(Some(DpMode::Sparse)));
        // The representations agree to the truncation tolerance; MC rows
        // are untouched by the override.
        assert!((dense.num(1, "success") - sparse.num(1, "success")).abs() <= 1e-9);
        assert_eq!(
            dense.num(0, "success").to_bits(),
            sparse.num(0, "success").to_bits(),
            "--dp-mode must not perturb MC cells"
        );
        // Telemetry attributes the solve: one dp cell → one solve, all
        // its curve lookups fresh (nothing shares a curve with it).
        let t = ants_obs::Telemetry::new();
        let _ = exp.run(&RunConfig::standard().with_telemetry(Some(t)));
        assert_eq!(t.counter(Counter::DpSolves), 1);
        assert_eq!(t.counter(Counter::DpMemoHits), 0);
        assert!(t.counter(Counter::DpMemoMisses) >= 1);
        assert!(t.snapshot().phase_count[Phase::DpSolve as usize] >= 1);
    }

    #[test]
    fn shared_memo_carries_curves_across_streamed_runs() {
        let exp = mixed_experiment();
        let cfg = RunConfig::standard();
        let memo = DpMemo::new();
        let cold = exp
            .try_run_streamed_with(&cfg, &cfg.sweep_options(), &memo, |_, _, _| {})
            .expect("cold run");
        let (h0, _) = memo.stats();
        assert_eq!(h0, 0, "first run has nothing to hit");
        let warm = exp
            .try_run_streamed_with(&cfg, &cfg.sweep_options(), &memo, |_, _, _| {})
            .expect("warm run");
        let (h1, _) = memo.stats();
        assert!(h1 > 0, "second run reuses the first run's curves");
        assert_eq!(warm.to_csv(), cold.to_csv(), "memoized rows are byte-identical");
    }

    #[test]
    fn interning_reuses_identical_meta_strings() {
        let a = experiment();
        let b = experiment();
        // Same spec → same leaked pointers, not fresh allocations.
        assert!(std::ptr::eq(a.meta().key, b.meta().key));
        assert!(std::ptr::eq(a.meta().claim, b.meta().claim));
    }

    #[test]
    fn runconfig_metrics_opt_in_without_spec_support() {
        // A spec without a metrics key gains columns via --metrics.
        let exp = experiment();
        let base = exp.run(&RunConfig::smoke());
        assert_eq!(base.records().columns().len(), 11);
        let cfg =
            RunConfig::smoke().with_metrics(ants_sim::MetricSet::parse_list("coverage").unwrap());
        let with = exp.run(&cfg);
        assert_eq!(with.records().columns().len(), 13);
        assert!(with.num(0, "coverage") > 0.0, "agents visited at least the origin");
        // The base columns are unchanged by the observation run.
        for col in ["found", "success", "median moves", "mean moves"] {
            assert_eq!(base.cell(0, col), with.cell(0, col), "column {col} drifted");
        }
    }
}
