//! Layer timings for the traced run, taken over the workload's own
//! generated inputs.
//!
//! Layers too fine to span one call at a time (an rng draw, a strategy
//! step) are timed in batches; coarser ones (a serial trial, a parse, an
//! expansion, a cache key, a report render) get one benchmark-side span
//! per call. Pool, engine and decision counts come from an
//! `ants_obs::Telemetry` snapshot.

use crate::trace::{mean, median, ratio, Tracer};
use crate::Outcome;
use ants_bench::{Report, RunConfig};
use ants_dp::Backend;
use ants_obs::{Counter, Phase, Snapshot};
use ants_rng::{derive_rng, BiasedCoin, Coin, Rng64, SplitMix64};
use ants_workload::{ResolvedStrategy, WorkloadPlan, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// Draws per batched rng timing.
const RNG_BATCH: u64 = 1 << 22;
/// Steps per batched strategy timing.
const STEP_BATCH: u64 = 1 << 19;
/// Repeats per fine-grained timing (the median is kept).
const REPEATS: usize = 3;

/// Median over [`REPEATS`] of `f`'s per-iteration nanoseconds.
fn per_iter_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&times)
}

/// The strategy family a resolved label belongs to, as named in the
/// `core.step_ns.*` metrics (mortal wrappers are left out).
fn family(label: &str) -> Option<&'static str> {
    [
        ("nonuniform(", "nonuniform"),
        ("coin(", "coin"),
        ("uniform(", "uniform"),
        ("harmonic(", "harmonic"),
        ("levy(", "levy"),
        ("randomwalk", "randomwalk"),
        ("automaton(", "pfa"),
    ]
    .iter()
    .find(|(prefix, _)| label.starts_with(prefix))
    .map(|(_, f)| *f)
}

/// The resolution `ℓ` of a coin-driven label (`coin(d, ℓ)`,
/// `uniform(ℓ, n, K)`).
fn ell_of(label: &str) -> Option<u32> {
    let args = label.split_once('(')?.1.trim_end_matches(')');
    let parts: Vec<&str> = args.split(',').map(str::trim).collect();
    match family(label)? {
        "coin" => parts.get(1)?.parse().ok(),
        "uniform" => parts.first()?.parse().ok(),
        _ => None,
    }
}

/// `rng.*` and `core.step_ns.*` over the Monte Carlo strategies of
/// `plans`: one instance per family, each stepped [`STEP_BATCH`] times,
/// and the dyadic coin at every `ℓ` the workload uses.
pub fn rng_and_steps(plans: &[&WorkloadPlan], seed: u64, out: &mut Outcome) {
    let strategies: Vec<&ResolvedStrategy> = plans
        .iter()
        .flat_map(|p| &p.cells)
        .filter(|c| c.backend == Backend::Mc)
        .flat_map(|c| c.population.iter().map(|(_, s)| s))
        .collect();
    if strategies.is_empty() {
        return;
    }
    let mut rng = derive_rng(seed, 0);
    out.set(
        "rng.next_u64_ns",
        per_iter_ns(RNG_BATCH, || {
            let mut acc = 0u64;
            for _ in 0..RNG_BATCH {
                acc ^= rng.next_u64();
            }
            black_box(acc);
        }),
    );
    let mut ells: Vec<u32> = strategies.iter().filter_map(|s| ell_of(&s.label())).collect();
    ells.sort_unstable();
    ells.dedup();
    if ells.is_empty() {
        ells.push(1);
    }
    let coin_ns: Vec<f64> = ells
        .iter()
        .map(|&ell| {
            let coin = BiasedCoin::base(ell).expect("generated ell is a valid resolution");
            per_iter_ns(RNG_BATCH, || {
                let mut heads = 0u64;
                for _ in 0..RNG_BATCH {
                    heads += u64::from(coin.flip(&mut rng).is_heads());
                }
                black_box(heads);
            })
        })
        .collect();
    out.set("rng.coin_ns", mean(&coin_ns));
    let mut seen: Vec<&str> = Vec::new();
    for s in strategies {
        let Some(fam) = family(&s.label()) else { continue };
        if seen.contains(&fam) {
            continue;
        }
        seen.push(fam);
        let mut strategy = (s.factory())(0);
        let ns = per_iter_ns(STEP_BATCH, || {
            for _ in 0..STEP_BATCH {
                black_box(strategy.step(&mut rng));
            }
        });
        out.set(&format!("core.step_ns.{fam}"), ns);
    }
}

/// `engine.trial_ms`, `engine.steps` and `engine.ns_per_step`: the first
/// trial of every Monte Carlo cell through the serial `run_trial`, and
/// its step count through a one-chunk `TrialPlan`.
pub fn serial_trials(plans: &[&WorkloadPlan], tracer: &mut Tracer, out: &mut Outcome) {
    let mut trial_ns = Vec::new();
    let mut steps = 0u64;
    for cell in plans.iter().flat_map(|p| &p.cells).filter(|c| c.backend == Backend::Mc) {
        let job = cell.job(false, 0).expect("planned cells build");
        let seed = SplitMix64::new(job.seed).next_u64();
        let t0 = Instant::now();
        black_box(tracer.span("sim.run_trial", |_| ants_sim::run_trial(&job.scenario, seed)));
        trial_ns.push(t0.elapsed().as_nanos() as f64);
        let plan = ants_sim::TrialPlan::new(&job.scenario, seed, job.scenario.n_agents());
        steps += plan.run_chunk(0).work();
    }
    if trial_ns.is_empty() {
        return;
    }
    out.set("engine.trial_ms", mean(&trial_ns) / 1e6);
    out.set("engine.steps", steps as f64);
    out.set("engine.ns_per_step", ratio(trial_ns.iter().sum(), steps as f64));
}

/// `workload.parse_us`, `workload.expand_us` and `workload.key_us`
/// (`ants_serve::cache_key`, content hash included): each spec text
/// parsed, expanded and keyed `reps` times under spans.
pub fn parse_expand_key(texts: &[String], reps: usize, tracer: &mut Tracer, out: &mut Outcome) {
    let cfg = RunConfig::standard();
    for text in texts {
        for _ in 0..reps {
            let spec = tracer.span("workload.parse", |_| WorkloadSpec::parse(text));
            let spec = spec.expect("generated specs parse");
            let plan = tracer.span("workload.expand", |_| WorkloadPlan::expand(&spec));
            let plan = plan.expect("generated specs expand");
            black_box(
                tracer.span("workload.cache_key", |_| {
                    ants_serve::cache_key(&plan, &cfg, "perfbench")
                }),
            );
        }
    }
    for (metric, span) in [
        ("workload.parse_us", "workload.parse"),
        ("workload.expand_us", "workload.expand"),
        ("workload.key_us", "workload.cache_key"),
    ] {
        out.set(metric, mean(&tracer.durations(span)) / 1e3);
    }
}

/// `report.render_us`: `to_json` + `to_csv` of each report, `reps`
/// times.
pub fn render(reports: &[Report], reps: usize, tracer: &mut Tracer, out: &mut Outcome) {
    for r in reports {
        for _ in 0..reps {
            tracer.span("report.render", |_| black_box((r.to_json(), r.to_csv())));
        }
    }
    out.set("report.render_us", mean(&tracer.durations("report.render")) / 1e3);
}

/// Pool, engine-hint and scheduling-decision metrics from a telemetry
/// snapshot covering `passes` identical passes.
pub fn pool_and_decisions(snap: &Snapshot, passes: u64, out: &mut Outcome) {
    let units = snap.counter(Counter::PoolUnits) as f64;
    if units > 0.0 {
        out.set("pool.units", units / passes.max(1) as f64);
        out.set("pool.steal_frac", snap.counter(Counter::PoolSteals) as f64 / units);
        let busy = snap.counter(Counter::PoolBusyNs) as f64;
        let idle = snap.counter(Counter::PoolIdleNs) as f64;
        out.set("pool.idle_frac", ratio(idle, busy + idle));
        let live: Vec<f64> =
            snap.worker_busy_ns.iter().filter(|&&b| b > 0).map(|&b| b as f64).collect();
        let imbalance = if live.len() < 2 {
            1.0
        } else {
            live.iter().copied().fold(f64::MIN, f64::max)
                / live.iter().copied().fold(f64::MAX, f64::min)
        };
        out.set("pool.imbalance", imbalance);
        let phase = |p: Phase| snap.phase_ns[p as usize] as f64;
        out.set(
            "pool.reduce_frac",
            ratio(
                phase(Phase::Reduce),
                phase(Phase::Plan) + phase(Phase::Execute) + phase(Phase::Reduce),
            ),
        );
    }
    let steps = snap.counter(Counter::EngineSteps) as f64;
    let saved = snap.counter(Counter::HintStepsSaved) as f64;
    if steps > 0.0 {
        out.set("engine.hint_saved_frac", saved / (steps + saved));
    }
    let plans = &snap.plans;
    if !plans.is_empty() {
        let per_pass = |n: usize| n as f64 / passes.max(1) as f64;
        let agent = plans.iter().filter(|p| p.granularity == "agent").count();
        out.set("pool.agent_split_frac", agent as f64 / plans.len() as f64);
        let heavy = plans.iter().filter(|p| p.weight >= p.split_weight).count();
        out.set("decide.split_weight_above", per_pass(heavy));
        out.set("decide.split_weight_below", per_pass(plans.len() - heavy));
        let starved = plans.iter().filter(|p| p.sweep_trials < p.saturation * p.threads).count();
        out.set("decide.saturation_below", per_pass(starved));
        out.set("decide.saturation_above", per_pass(plans.len() - starved));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_ells_parse_from_labels() {
        assert_eq!(family("coin(16, 2)"), Some("coin"));
        assert_eq!(family("uniform(1, 4, 2)"), Some("uniform"));
        assert_eq!(family("automaton(pfa, 3, 1, 9)"), Some("pfa"));
        assert_eq!(family("mortal(randomwalk, 12)"), None);
        assert_eq!(ell_of("coin(16, 2)"), Some(2));
        assert_eq!(ell_of("uniform(1, 4, 2)"), Some(1));
        assert_eq!(ell_of("nonuniform(8)"), None);
    }
}
