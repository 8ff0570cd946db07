//! Cross-validation of the Monte Carlo engine against the exact DP
//! backend: for every DP-capable cell of a workload, the MC success
//! estimate must land inside a wide Wilson score interval centred on
//! its sample and containing the DP truth — a statistical identity
//! check between two independent implementations of the same model.
//!
//! The interval uses `z = 4` (≈ 1 − 6·10⁻⁵ two-sided): tight enough
//! that a real semantic divergence between the engines fails within a
//! few hundred trials, loose enough that an honest sampler essentially
//! never false-alarms across a whole grid of cells.

use crate::experiments::{Effort, RunConfig};
use crate::workload::WorkloadExperiment;
use ants_dp::{Backend, DpMode};
use ants_rng::stats::wilson_interval;
use ants_sim::run_sweep_with;
use ants_workload::WorkloadError;
use std::fmt;

/// The Wilson z-score the crosscheck uses.
pub const WILSON_Z: f64 = 4.0;

/// One crosschecked cell.
#[derive(Debug, Clone)]
pub struct CrosscheckCell {
    /// The cell label.
    pub label: String,
    /// Monte Carlo trials behind the estimate.
    pub trials: u64,
    /// MC success estimate `p̂ = found / trials`.
    pub mc_success: f64,
    /// Exact DP success probability.
    pub dp_success: f64,
    /// Wilson interval around the MC sample, `z =` [`WILSON_Z`].
    pub interval: (f64, f64),
}

impl CrosscheckCell {
    /// Does the exact value sit inside the MC sample's interval?
    pub fn passes(&self) -> bool {
        self.dp_success >= self.interval.0 && self.dp_success <= self.interval.1
    }
}

/// A skipped cell and why the exact backend cannot evaluate it.
#[derive(Debug, Clone)]
pub struct SkippedCell {
    /// The cell label.
    pub label: String,
    /// Why it was skipped (the DP backend's own message).
    pub reason: String,
}

/// The whole crosscheck outcome.
#[derive(Debug, Clone)]
pub struct CrosscheckReport {
    /// Crosschecked cells, in plan order.
    pub cells: Vec<CrosscheckCell>,
    /// Cells the exact backend cannot evaluate, with reasons.
    pub skipped: Vec<SkippedCell>,
}

impl CrosscheckReport {
    /// Cells whose MC estimate left the interval around the DP truth.
    pub fn failures(&self) -> Vec<&CrosscheckCell> {
        self.cells.iter().filter(|c| !c.passes()).collect()
    }

    /// Did every crosscheckable cell pass?
    pub fn all_pass(&self) -> bool {
        self.failures().is_empty()
    }
}

impl fmt::Display for CrosscheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.cells {
            writeln!(
                f,
                "{} {}: mc {:.6} (n = {}) vs dp {:.6}, wilson [{:.6}, {:.6}]",
                if c.passes() { "pass" } else { "FAIL" },
                c.label,
                c.mc_success,
                c.trials,
                c.dp_success,
                c.interval.0,
                c.interval.1,
            )?;
        }
        for s in &self.skipped {
            writeln!(f, "skip {}: {}", s.label, s.reason)?;
        }
        let fails = self.failures().len();
        writeln!(
            f,
            "{} checked, {} skipped, {} failed",
            self.cells.len(),
            self.skipped.len(),
            fails
        )
    }
}

/// Run the crosscheck: every cell the DP can evaluate — under the
/// config's `--dp-mode` override if set, else the cell's own `dp_mode`
/// — is sampled on the MC pool (the config's effort, seed, and
/// scheduling) and compared against its exact success probability; the
/// rest are listed as skipped with the DP backend's reason. When only
/// the dense-table guard blocked a cell, the skip reason additionally
/// says whether `dp_mode = "sparse"` would make it checkable (confirmed
/// by actually solving it on the frontier, not just guessed).
///
/// # Errors
///
/// Only infrastructure failures (a hand-built plan whose scenarios do
/// not construct) — DP incapability is a *skip*, never an error.
pub fn crosscheck(
    exp: &WorkloadExperiment,
    cfg: &RunConfig,
) -> Result<CrosscheckReport, WorkloadError> {
    let smoke = cfg.effort == Effort::Smoke;
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    // Decide DP capability per cell first (cheap: kernels only), then
    // sample all checkable cells in one sweep on the shared pool.
    let mut checkable = Vec::new();
    let no_metrics = ants_sim::MetricSet::empty();
    for cell in &exp.plan().cells {
        match ants_workload::dp::evaluate_cell_with(cell, smoke, no_metrics, cfg.dp_mode, None) {
            Ok(report) => checkable.push((cell, report)),
            Err(e) => {
                let mut reason = e.message;
                // The dense-table guard's hint names the sparse mode; for
                // exactly those skips, confirm the claim by retrying on
                // the frontier, so the reason states a verified fact.
                if reason.contains("dp_mode = \"sparse\"")
                    && cfg.dp_mode != Some(DpMode::Sparse)
                    && ants_workload::dp::evaluate_cell_with(
                        cell,
                        smoke,
                        no_metrics,
                        Some(DpMode::Sparse),
                        None,
                    )
                    .is_ok()
                {
                    reason.push_str(
                        " [dense guard only: this cell solves under dp_mode = \"sparse\" \
                         — rerun with --dp-mode sparse to check it]",
                    );
                }
                skipped.push(SkippedCell { label: cell.label.clone(), reason });
            }
        }
    }
    let jobs = checkable
        .iter()
        .map(|(c, _)| c.job(smoke, cfg.base_seed))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = run_sweep_with(&jobs, &cfg.sweep_options());
    for ((cell, dp), outcome) in checkable.iter().zip(&outcomes) {
        let s = outcome.summary();
        let trials = cell.trials_at(smoke);
        let mc_success = s.found() as f64 / trials as f64;
        cells.push(CrosscheckCell {
            label: cell.label.clone(),
            trials,
            mc_success,
            dp_success: dp.success,
            interval: wilson_interval(s.found(), trials, WILSON_Z),
        });
    }
    // `--backend` does not influence the crosscheck (both engines always
    // run), but a forced Dp with a non-Markovian cell should still be
    // surfaced to the caller via validate_backends before calling this.
    let _ = Backend::Mc;
    Ok(CrosscheckReport { cells, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_workload::{WorkloadPlan, WorkloadSpec};

    fn experiment(text: &str) -> WorkloadExperiment {
        WorkloadExperiment::new(WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap())
    }

    #[test]
    fn wilson_interval_shrinks_with_trials_and_brackets_the_estimate() {
        let (lo_small, hi_small) = wilson_interval(5, 10, WILSON_Z);
        let (lo_big, hi_big) = wilson_interval(500, 1000, WILSON_Z);
        assert!(lo_small < 0.5 && hi_small > 0.5);
        assert!(lo_big < 0.5 && hi_big > 0.5);
        assert!(hi_big - lo_big < hi_small - lo_small, "more trials, tighter interval");
        // Degenerate estimates stay inside [0, 1].
        let (lo, hi) = wilson_interval(0, 8, WILSON_Z);
        assert!(lo == 0.0 && hi < 1.0 && hi > 0.0);
        let (lo, hi) = wilson_interval(8, 8, WILSON_Z);
        assert!(hi == 1.0 && lo > 0.0 && lo < 1.0);
    }

    #[test]
    fn mc_agrees_with_dp_on_a_small_walk_cell() {
        let exp = experiment(
            "\
name = \"xc\"
[defaults]
trials = 200
[[cells]]
name = \"walk\"
agents = 2
move_budget = 16
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"randomwalk\" } ]
",
        );
        let report = crosscheck(&exp, &RunConfig::standard()).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.skipped.is_empty());
        let c = &report.cells[0];
        assert!(c.dp_success > 0.0 && c.dp_success < 1.0);
        assert!(c.passes(), "mc {} vs dp {} in {:?}", c.mc_success, c.dp_success, c.interval);
        assert!(report.all_pass());
        let text = report.to_string();
        assert!(text.contains("pass walk"), "{text}");
        assert!(text.contains("1 checked, 0 skipped, 0 failed"), "{text}");
    }

    #[test]
    fn non_markovian_cells_are_skipped_with_reasons() {
        let exp = experiment(
            "\
name = \"xs\"
[defaults]
trials = 16
[[cells]]
name = \"levy\"
agents = 1
move_budget = 64
target = { model = \"fixed\", x = 2, y = 0 }
population = [ { strategy = \"levy(2.0, 64)\" } ]
[[cells]]
name = \"walk\"
agents = 1
move_budget = 8
target = { model = \"fixed\", x = 1, y = 0 }
population = [ { strategy = \"randomwalk\" } ]
",
        );
        let report = crosscheck(&exp, &RunConfig::standard()).unwrap();
        assert_eq!(report.cells.len(), 1, "only the walk cell is checkable");
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].label, "levy");
        assert!(report.skipped[0].reason.contains("levy"), "{}", report.skipped[0].reason);
        assert!(report.to_string().contains("skip levy"), "{report}");
    }

    #[test]
    fn dense_guard_skips_name_the_sparse_escape_hatch_and_sparse_mode_checks_them() {
        // mortal(randomwalk, 1000) at budget 64 wants a 1001 x 129^2
        // dense table (~16.7M entries) — past MAX_TABLE_ENTRIES — but
        // its sparse frontier is tiny (one live expiry layer per step).
        let exp = experiment(
            "\
name = \"xguard\"
[defaults]
trials = 200
[[cells]]
name = \"big\"
agents = 1
move_budget = 64
dp_mode = \"dense\"
target = { model = \"fixed\", x = 2, y = 0 }
population = [ { strategy = \"mortal(randomwalk, 1000)\" } ]
",
        );
        let report = crosscheck(&exp, &RunConfig::standard()).unwrap();
        assert!(report.cells.is_empty());
        assert_eq!(report.skipped.len(), 1);
        let reason = &report.skipped[0].reason;
        assert!(reason.contains("exact backend guard tripped"), "{reason}");
        assert!(reason.contains("dense guard only"), "{reason}");
        assert!(reason.contains("--dp-mode sparse"), "{reason}");
        // The override beats the cell's declared mode, so the same cell
        // becomes checkable — and the engines must still agree at z = 4.
        let sparse =
            crosscheck(&exp, &RunConfig::standard().with_dp_mode(Some(DpMode::Sparse))).unwrap();
        assert!(sparse.skipped.is_empty(), "{sparse}");
        assert_eq!(sparse.cells.len(), 1);
        assert!(sparse.all_pass(), "{sparse}");
    }

    #[test]
    fn a_seed_sweep_stays_inside_the_interval() {
        // Ten different seeds, all must pass: the z = 4 interval makes a
        // false alarm here astronomically unlikely unless the engines
        // actually disagree.
        let exp = experiment(
            "\
name = \"xseed\"
[defaults]
trials = 120
[[cells]]
name = \"coin\"
agents = 2
move_budget = 48
target = { model = \"ring\", dist = 2 }
population = [ { strategy = \"coin(4, 2)\" } ]
",
        );
        for seed in 0..10u64 {
            let report = crosscheck(&exp, &RunConfig::standard().with_seed(seed)).unwrap();
            assert!(report.all_pass(), "seed {seed}: {report}");
        }
    }
}
