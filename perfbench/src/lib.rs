//! The ants benchmark: seeded workloads over both engines and the serve
//! daemon, measured end to end and per layer.
//!
//! * [`gen`] turns `--seed` into workload-spec text (and the serve
//!   request stream); the measured crates only ever see that text.
//! * [`mc`] runs the engine workloads (`mc-tradeoff`, `mc-wide`,
//!   `dp-exact`) and [`serve`] runs `serve-mix`: set-up (timed, repeated,
//!   reported as its median), then a timed phase of `--seconds`, checking
//!   every output against a reference computed in set-up. [`dp`] adds the
//!   exact-backend layers to the traced `dp-exact` run.
//! * [`layers`] times single layers in batches (rng draw, strategy step,
//!   serial trial, parse/expand/key, render) over the workload's own
//!   generated inputs for the traced run.
//! * [`trace`] records benchmark-side spans around each call into a
//!   layer.
//!
//! A plain run reports [`END_TO_END`]; a traced run reports
//! [`PER_LAYER`]. Every metric in the catalogue is printed for every
//! workload: per-layer values a workload does not exercise read 0.

pub mod dp;
pub mod gen;
pub mod layers;
pub mod mc;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rng.next_u64_ns", "ns"),
    ("rng.coin_ns", "ns"),
    ("core.step_ns.nonuniform", "ns"),
    ("core.step_ns.coin", "ns"),
    ("core.step_ns.uniform", "ns"),
    ("core.step_ns.harmonic", "ns"),
    ("core.step_ns.levy", "ns"),
    ("core.step_ns.randomwalk", "ns"),
    ("core.step_ns.pfa", "ns"),
    ("engine.trial_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.ns_per_step", "ns"),
    ("engine.hint_saved_frac", "ratio"),
    ("engine.chunk_overrun", "ratio"),
    ("pool.units", "count"),
    ("pool.steal_frac", "ratio"),
    ("pool.idle_frac", "ratio"),
    ("pool.imbalance", "ratio"),
    ("pool.reduce_frac", "ratio"),
    ("pool.scaling_2t", "ratio"),
    ("pool.agent_split_frac", "ratio"),
    ("observe.share", "ratio"),
    ("workload.parse_us", "us"),
    ("workload.expand_us", "us"),
    ("workload.key_us", "us"),
    ("dp.collapse_us", "us"),
    ("dp.solve_ms.dense", "ms"),
    ("dp.solve_ms.sparse", "ms"),
    ("dp.auto_dense_frac", "ratio"),
    ("dp.memo_hit_frac", "ratio"),
    ("dp.memo_eval_us", "us"),
    ("dp.metric_share", "ratio"),
    ("report.render_us", "us"),
    ("serve.probe_us", "us"),
    ("serve.replay_us", "us"),
    ("serve.store_ms", "ms"),
    ("serve.stats_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.hit_frac", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("decide.split_weight_above", "count"),
    ("decide.split_weight_below", "count"),
    ("decide.saturation_below", "count"),
    ("decide.saturation_above", "count"),
    ("decide.dp_dense", "count"),
    ("decide.dp_sparse", "count"),
    ("obs.overhead_frac", "ratio"),
];

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Sweep workers for every timed phase (the benchmark host has 2 cores).
pub const THREADS: usize = 2;

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Scratch directory inside the checkout (serve caches, traces).
    pub workdir: PathBuf,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (and output checks).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The contract's result line: `correct`, `attempted`, `failed` and
    /// every metric of `catalogue` (absent per-layer values read 0). A
    /// metric that came out non-finite was not measured: it counts as one
    /// more failed check instead of reading as a perfect 0.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let (mut attempted, mut failed) = (self.attempted, self.failed);
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let mut v = self.metrics.get(*name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                eprintln!("perfbench: metric {name} is {v}, counted as a failure");
                attempted += 1;
                failed += 1;
                v = 0.0;
            }
            metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            failed == 0 && attempted > 0,
            attempted.max(1),
            failed,
            metrics.join(",")
        )
    }
}

/// One window of an engine workload's timed phase: whole passes over
/// every generated spec, so every window repeats the same work.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall-clock length of the window.
    pub secs: f64,
    /// Passes the window holds.
    pub passes: u32,
    /// Spec runs completed in it.
    pub ops: usize,
}

/// The quantile over a run's windows at which `wall_s` and `req_per_s`
/// are reported on the engine workloads. Every window repeats the same
/// work and host interference only ever slows a window down, so a low
/// quantile over many windows follows the program rather than its
/// neighbours. The windows' quartiles go to stderr.
pub const WINDOW_Q: f64 = 0.05;

/// `wall_s` and `req_per_s` of an engine workload: per window its time
/// per pass and its spec-run rate; across windows the [`WINDOW_Q`]
/// quantile (the `1 − WINDOW_Q` one for the rate).
pub fn window_metrics(out: &mut Outcome, windows: &[Window]) {
    let secs: Vec<f64> = windows.iter().map(|w| w.secs / f64::from(w.passes.max(1))).collect();
    let rate: Vec<f64> = windows.iter().map(|w| w.ops as f64 / w.secs).collect();
    out.set("wall_s", trace::quantile(&secs, WINDOW_Q));
    out.set("req_per_s", trace::quantile(&rate, 1.0 - WINDOW_Q));
    let ops: usize = windows.iter().map(|w| w.ops).sum();
    let q = |p: f64| trace::quantile(&secs, p);
    eprintln!(
        "perfbench: {} windows, {ops} operations; seconds per pass q05 {:.4} q25 {:.4} q50 {:.4} q75 {:.4}",
        windows.len(),
        q(WINDOW_Q),
        q(0.25),
        q(0.5),
        q(0.75)
    );
}

/// `p50_ms` and `p90_ms` over every operation latency of the timed phase
/// (hundreds to thousands of samples, so at least ten lie beyond p90).
pub fn latency_metrics(out: &mut Outcome, latencies_ms: &[f64]) {
    out.set("p50_ms", trace::quantile(latencies_ms, 0.5));
    out.set("p90_ms", trace::quantile(latencies_ms, 0.9));
}
