//! The engine workloads: `mc-tradeoff`, `mc-wide` and `dp-exact`.
//!
//! Set-up generates the specs, parses and expands them, and runs each
//! once on one thread through `WorkloadExperiment::try_run`: those
//! reports are the reference. The timed phase runs every spec on the
//! two-worker pool, pass after pass, and counts a run as failed unless
//! its rows are byte-identical to the reference.

use crate::gen::{self, Spec};
use crate::trace::{median, ratio, Tracer};
use crate::{layers, latency_metrics, window_metrics, Opts, Outcome, Window, SETUP_REPS, THREADS};
use ants_bench::{Report, RunConfig, WorkloadExperiment};
use ants_dp::Backend;
use ants_obs::{Counter, Telemetry};
use ants_sim::{run_observed_sweep, run_sweep_with, Granularity, SweepJob, SweepOptions};
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::time::Instant;

/// One parsed, expanded and referenced spec.
pub struct Prepared {
    /// The spec text the program saw.
    pub text: String,
    /// The experiment over the expanded plan.
    pub exp: WorkloadExperiment,
    /// Rows of the one-thread reference report (`Records::json_fields`).
    pub reference: String,
}

/// Set-up shared by every engine workload: seed → text → parse + expand
/// → one-thread reference report per spec.
///
/// # Errors
///
/// Any spec that fails to parse, expand, validate or run.
pub fn prepare(specs: &[Spec]) -> Result<Vec<Prepared>, String> {
    let reference_cfg = RunConfig::standard().with_threads(Some(1));
    specs
        .iter()
        .map(|spec| {
            let text = spec.text();
            let parsed = WorkloadSpec::parse(&text).map_err(|e| e.to_string())?;
            let plan = WorkloadPlan::expand(&parsed).map_err(|e| e.to_string())?;
            let exp = WorkloadExperiment::new(plan);
            exp.validate_backends(&reference_cfg).map_err(|e| e.to_string())?;
            let reference =
                exp.try_run(&reference_cfg).map_err(|e| e.to_string())?.records().json_fields();
            Ok(Prepared { text, exp, reference })
        })
        .collect()
}

/// Time [`SETUP_REPS`] set-ups (generation included) and keep the last.
///
/// # Errors
///
/// As [`prepare`].
pub fn timed_setup(
    generate: impl Fn() -> Vec<Spec>,
    out: &mut Outcome,
) -> Result<Vec<Prepared>, String> {
    let mut times = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        prepared = prepare(&generate())?;
        times.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    Ok(prepared)
}

/// Passes are grouped into windows of at least this many seconds, so
/// each window averages over the pool's scheduling jitter.
const MIN_WINDOW_S: f64 = 0.5;

/// The run config of every timed pass.
pub fn timed_cfg() -> RunConfig {
    RunConfig::standard().with_threads(Some(THREADS))
}

/// One pass: every spec once; returns per-spec latencies (ms) and the
/// last reports. Each run is checked against its reference.
pub fn pass(
    prepared: &[Prepared],
    cfg: &RunConfig,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<Report>) {
    let mut lat = Vec::with_capacity(prepared.len());
    let mut reports = Vec::with_capacity(prepared.len());
    for p in prepared {
        let t0 = Instant::now();
        let run = tracer.span("bench.try_run", |_| p.exp.try_run(cfg));
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        match run {
            Ok(report) => {
                out.check(report.records().json_fields() == p.reference);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", p.exp.plan().name);
                out.check(false);
            }
        }
    }
    (lat, reports)
}

/// Run an engine workload: `mc-tradeoff`, `mc-wide` or `dp-exact`.
///
/// # Errors
///
/// Set-up failures (no result is printed then).
pub fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let seed = opts.seed;
    let generate = move || match name {
        "mc-tradeoff" => gen::mc_tradeoff(seed),
        "mc-wide" => gen::mc_wide(seed),
        _ => gen::dp_exact(seed),
    };
    let mut out = Outcome::default();
    let prepared = timed_setup(generate, &mut out)?;
    let cfg = timed_cfg();
    if opts.trace {
        traced(name, &prepared, opts, &mut out);
        return Ok(out);
    }
    let mut off = Tracer::new(false, Instant::now());
    let mut windows = Vec::new();
    let mut open = Window::default();
    let mut latencies = Vec::new();
    let started = Instant::now();
    while windows.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let t0 = Instant::now();
        let (latencies_ms, _) = pass(&prepared, &cfg, &mut off, &mut out);
        open.secs += t0.elapsed().as_secs_f64();
        open.passes += 1;
        open.ops += latencies_ms.len();
        latencies.extend(latencies_ms);
        if open.secs >= MIN_WINDOW_S {
            windows.push(std::mem::take(&mut open));
        }
    }
    window_metrics(&mut out, &windows);
    latency_metrics(&mut out, &latencies);
    out.set("peak_rss_mb", crate::trace::peak_rss_mb());
    out.set("ok_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    Ok(out)
}

/// The traced run: alternating plain and traced passes (their ratio is
/// `obs.overhead_frac`), then per-layer decompositions.
fn traced(name: &str, prepared: &[Prepared], opts: &Opts, out: &mut Outcome) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    let mut off = Tracer::new(false, epoch);
    let tele = Telemetry::new();
    let traced_cfg = timed_cfg().with_telemetry(Some(tele));
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let started = Instant::now();
    while traced_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let t0 = Instant::now();
        pass(prepared, &timed_cfg(), &mut off, out);
        plain_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        reports = tracer.span("bench.pass", |t| pass(prepared, &traced_cfg, t, out).1);
        traced_s.push(t0.elapsed().as_secs_f64());
    }
    let wall = median(&plain_s);
    out.set("obs.overhead_frac", median(&traced_s) / wall - 1.0);
    let passes = traced_s.len() as u64;
    let snap = tele.snapshot();
    layers::pool_and_decisions(&snap, passes, out);
    let memo_hits = snap.counter(Counter::DpMemoHits) as f64;
    out.set(
        "dp.memo_hit_frac",
        ratio(memo_hits, memo_hits + snap.counter(Counter::DpMemoMisses) as f64),
    );

    let plans: Vec<&WorkloadPlan> = prepared.iter().map(|p| p.exp.plan()).collect();
    sweep_decomposition(&plans, wall, passes, &snap, &mut tracer, out);
    if name == "dp-exact" {
        crate::dp::layers(&plans, &mut tracer, out);
    } else {
        layers::rng_and_steps(&plans, opts.seed, out);
        layers::serial_trials(&plans, &mut tracer, out);
    }
    let texts: Vec<String> = prepared.iter().map(|p| p.text.clone()).collect();
    layers::parse_expand_key(&texts, 20, &mut tracer, out);
    layers::render(&reports, 20, &mut tracer, out);
    write_trace(&tracer, name, opts);
}

/// Alternating one- and two-thread runs behind `pool.scaling_2t`.
const SCALING_REPS: usize = 3;

/// The Monte Carlo jobs of a plan, at standard effort and base seed 0.
fn mc_jobs(plan: &WorkloadPlan) -> Vec<SweepJob> {
    plan.cells
        .iter()
        .filter(|c| c.backend == Backend::Mc)
        .map(|c| c.job(false, 0).expect("planned cells build"))
        .collect()
}

/// `pool.scaling_2t`, `engine.chunk_overrun` and `observe.share`: each
/// spec's trial sweep at one and at two threads, once more with one
/// chunk per trial (the serial step count), and its observed sweep.
fn sweep_decomposition(
    plans: &[&WorkloadPlan],
    wall_s: f64,
    passes: u64,
    snap: &ants_obs::Snapshot,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let (mut t1, mut t2, mut observed_s) = (0.0, 0.0, 0.0);
    let serial_steps = Telemetry::new();
    let one_chunk = SweepOptions::with_threads(Some(1))
        .granularity(Granularity::Agent)
        .chunk(usize::MAX)
        .with_telemetry(serial_steps);
    for plan in plans {
        let jobs = mc_jobs(plan);
        if jobs.is_empty() {
            continue;
        }
        for _ in 0..SCALING_REPS {
            for (threads, acc) in [(1usize, &mut t1), (THREADS, &mut t2)] {
                let opts = SweepOptions::with_threads(Some(threads));
                let t0 = Instant::now();
                tracer.span("sim.run_sweep_with", |_| run_sweep_with(&jobs, &opts));
                *acc += t0.elapsed().as_secs_f64();
            }
        }
        run_sweep_with(&jobs, &one_chunk);
        if !plan.metrics.is_empty() {
            let ojobs = plan.observed_jobs(false, 0, plan.metrics).expect("planned cells build");
            let opts = SweepOptions::with_threads(Some(THREADS));
            let t0 = Instant::now();
            tracer.span("sim.run_observed_sweep", |_| run_observed_sweep(&ojobs, &opts));
            observed_s += t0.elapsed().as_secs_f64();
        }
    }
    if t2 > 0.0 {
        out.set("pool.scaling_2t", t1 / t2);
        out.set("observe.share", observed_s / wall_s);
        let parallel = snap.counter(Counter::EngineSteps) as f64 / passes.max(1) as f64;
        let serial = serial_steps.counter(Counter::EngineSteps) as f64;
        out.set("engine.chunk_overrun", ratio(parallel, serial));
    }
}

/// Write the span log to `<workdir>/trace-<workload>-<seed>.json` and a
/// per-span summary to stderr.
pub fn write_trace(tracer: &Tracer, name: &str, opts: &Opts) {
    let path = opts.workdir.join(format!("trace-{name}-{}.json", opts.seed));
    if let Err(e) = tracer.write_json(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!("perfbench: span summary (calls, total ms, self ms) -> {}", path.display());
    for (span, (calls, total, own)) in tracer.summary() {
        eprintln!(
            "  {span:<28} {calls:>7} {:>11.3} {:>11.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
