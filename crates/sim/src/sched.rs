//! Deterministic scheduling of sweep work across one shared pool.
//!
//! Every sweep — [`run_sweep_with`], [`run_observed_sweep`], and
//! [`run_trials`] as a one-job sweep — runs through the same four steps:
//!
//! 1. **Plan.** [`Scheduler::plan`] picks each job's unit of work once.
//!    Many-trial jobs parallelise perfectly well at trial granularity,
//!    while few-trial / many-agent jobs (E4's walk sampling, E7's uniform
//!    sweeps, E9's trade-off zoo at large `n`) would serialise onto one
//!    core unless their trials are split into agent chunks.
//! 2. **Lay out.** The jobs flatten into work units — one agent range of
//!    one trial each — in canonical (job, trial, chunk) order. A
//!    trial-level trial is the one-chunk case.
//! 3. **Drain.** Workers pull units off a lock-free queue (an atomic
//!    cursor over the unit list: idle workers steal the next unexecuted
//!    unit, so the pool load-balances without barriers). With one worker,
//!    or without the `parallel` feature, the units run inline on the
//!    calling thread. A one-unit trial is reduced right there.
//! 4. **Reduce.** Each chunked trial's units are reduced in canonical
//!    chunk order over the same pool.
//!
//! Every outcome is therefore byte-identical to the serial reference at
//! every thread count, granularity, and chunk size.

use crate::engine::{trial_seeds, CapHint, TrialPlan};
use crate::metrics::Outcome;
use crate::observe::{observe_chunk, ObserverSpec, TrialObservations};
use crate::scenario::Scenario;
use ants_obs::{Counter, Phase, PlanDecision, SpanGuard, Telemetry};
use std::ops::Range;

/// One cell of a batched scenario sweep: a scenario plus its trial count
/// and base seed.
///
/// The contract is that `run_sweep_with(&jobs, _)[i]` is byte-identical
/// to [`run_trials_serial`](crate::run_trials_serial)`(&jobs[i].scenario,
/// jobs[i].trials, jobs[i].seed)` — batching changes wall-clock time
/// only.
pub struct SweepJob {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Number of Monte-Carlo trials.
    pub trials: u64,
    /// Base seed for this cell's trial-seed stream.
    pub seed: u64,
}

impl SweepJob {
    /// Bundle a scenario with its trial count and seed.
    pub fn new(scenario: Scenario, trials: u64, seed: u64) -> Self {
        Self { scenario, trials, seed }
    }
}

/// One cell of an observed sweep ([`run_observed_sweep`]): a scenario
/// plus trial count, base seed, a fixed round horizon, and the observers
/// to attach.
///
/// The contract mirrors [`SweepJob`]'s: per job, per trial, the pooled
/// result is byte-identical to
/// [`observe_trial`](crate::observe_trial)`(&job.scenario, seed,
/// job.rounds, &job.specs)` at every thread count, granularity, and chunk
/// size — each observer's canonical merge reduces agent-chunk
/// observations exactly like trial results.
pub struct ObservedJob {
    /// The scenario to observe.
    pub scenario: Scenario,
    /// Number of observed trials (independent target draws / agent
    /// streams, same seed derivation as [`SweepJob`]).
    pub trials: u64,
    /// Base seed for this cell's trial-seed stream.
    pub seed: u64,
    /// Round horizon: every agent takes exactly this many Markov
    /// transitions (no early caps — coverage quantities are defined over
    /// all trajectories).
    pub rounds: u64,
    /// The observers to run, in output order.
    pub specs: Vec<ObserverSpec>,
}

impl ObservedJob {
    /// Bundle a scenario with its observation parameters.
    pub fn new(
        scenario: Scenario,
        trials: u64,
        seed: u64,
        rounds: u64,
        specs: Vec<ObserverSpec>,
    ) -> Self {
        Self { scenario, trials, seed, rounds, specs }
    }
}

/// The unit-of-work policy for a sweep (CLI surface: `--granularity`).
///
/// Purely a scheduling decision: outcomes are byte-identical across all
/// three (pinned by `crates/sim/tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Let the cost heuristic pick per job (see [`Scheduler::plan`]).
    #[default]
    Auto,
    /// One work unit per (cell, trial).
    Trial,
    /// Split every trial into agent chunks ([`TrialPlan`]).
    Agent,
}

impl Granularity {
    /// Stable lowercase name (used by `--granularity`).
    pub fn as_str(self) -> &'static str {
        match self {
            Granularity::Auto => "auto",
            Granularity::Trial => "trial",
            Granularity::Agent => "agent",
        }
    }

    /// Parse a `--granularity` argument.
    pub fn parse(s: &str) -> Option<Granularity> {
        match s {
            "auto" => Some(Granularity::Auto),
            "trial" => Some(Granularity::Trial),
            "agent" => Some(Granularity::Agent),
            _ => None,
        }
    }
}

/// Default agents per chunk for agent-level scheduling.
pub const DEFAULT_AGENT_CHUNK: usize = 8;

/// Auto-granularity splits a job into agent chunks whenever the sweep's
/// trial units alone cannot keep every worker this many units deep.
/// Below that, stragglers (one heavy trial outliving its siblings)
/// leave workers idle — exactly what agent chunks fill.
const POOL_SATURATION: u64 = 4;

/// How one sweep job's trials are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// One work unit per trial.
    TrialLevel,
    /// One work unit per (trial, agent chunk), reduced canonically.
    AgentLevel {
        /// Agents per chunk (>= 1).
        chunk: usize,
    },
}

impl Scheduler {
    /// Pick a scheduler for one job of `agents` agents, under `opts` with
    /// `threads` workers, inside a sweep holding `sweep_trials` trials in
    /// total.
    ///
    /// A forced granularity (`--granularity trial|agent`) is honoured at
    /// *any* thread count — a single-worker agent-level run is how the
    /// speculation tests measure the hinted path's work deterministically.
    ///
    /// Under `Auto` one worker runs trial-level. With more, the shared
    /// [`CapHint`] bounds the speculation tax (an agent that starts after
    /// an earlier chunk published a find is capped below it), so
    /// splitting is cheap and the policy is aggressive: a job splits into
    /// agent chunks whenever the *whole sweep's* trials cannot keep every
    /// worker `POOL_SATURATION` (4) units deep
    /// (`sweep_trials < POOL_SATURATION × threads` — the pool is shared,
    /// so sibling jobs' trials keep workers busy too) and the job has
    /// more agents than one chunk holds (so the split is real).
    pub fn plan(
        agents: usize,
        opts: &SweepOptions,
        threads: usize,
        sweep_trials: u64,
    ) -> Scheduler {
        let chunk = opts.chunk.unwrap_or(DEFAULT_AGENT_CHUNK).max(1);
        match opts.granularity {
            Granularity::Trial => Scheduler::TrialLevel,
            Granularity::Agent => Scheduler::AgentLevel { chunk },
            Granularity::Auto
                if threads > 1
                    && agents > chunk
                    && sweep_trials < POOL_SATURATION * threads as u64 =>
            {
                Scheduler::AgentLevel { chunk }
            }
            Granularity::Auto => Scheduler::TrialLevel,
        }
    }
}

/// Options for [`run_sweep_with`] and [`run_observed_sweep`]: thread
/// policy, unit-of-work policy, chunk size, and an optional telemetry
/// handle.
///
/// Construct with [`SweepOptions::default`] and set the public fields.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker count (`None` = all available cores), clamped to
    /// `1..=`[`ants_obs::MAX_WORKERS`].
    pub threads: Option<usize>,
    /// Unit-of-work policy.
    pub granularity: Granularity,
    /// Agents per chunk for agent-level scheduling
    /// (`None` = [`DEFAULT_AGENT_CHUNK`]).
    pub chunk: Option<usize>,
    telemetry: Option<Telemetry>,
}

impl SweepOptions {
    /// Default options (auto granularity) with the given thread policy.
    pub fn with_threads(threads: Option<usize>) -> Self {
        Self { threads, ..Self::default() }
    }

    /// Builder-style setter for the unit-of-work policy.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Builder-style setter for the agents-per-chunk override.
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Attach a telemetry handle: the sweep records pool, plan, engine
    /// step, and cap-hint counters plus per-phase span timers into it.
    ///
    /// Strictly observational — outcomes are byte-identical with or
    /// without telemetry at every thread count, granularity, and chunk
    /// size (pinned by `crates/bench/tests/telemetry.rs`). Cost when
    /// absent: one `Option` check per work *unit*, never per step.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.telemetry
    }
}

/// Run `n_trials` independent trials with deterministic per-trial seeds
/// derived from `base_seed`, as a one-job sweep on all available cores.
///
/// The outcome is byte-identical to
/// [`run_trials_serial`](crate::run_trials_serial) — parallelism changes
/// wall-clock time only.
pub fn run_trials(scenario: &Scenario, n_trials: u64, base_seed: u64) -> Outcome {
    let mut outcomes = sweep_trials(&[(scenario, n_trials, base_seed)], &SweepOptions::default());
    outcomes.pop().expect("one job yields one outcome")
}

/// Run a batch of scenario sweeps across one shared pool.
///
/// Experiment harnesses sweep parameter grids (E1 runs `D × n` cells);
/// running each cell on its own would join the pool between cells, so
/// small cells leave cores idle. This flattens every cell into one work
/// list, so the whole grid drains without barriers. Results come back per
/// job, in job order.
///
/// The determinism contract is unchanged by every option: outcomes are
/// byte-identical to `run_trials_serial` per job at every thread count,
/// granularity, and chunk size (`crates/sim/tests/determinism.rs` pins
/// this).
pub fn run_sweep_with(jobs: &[SweepJob], opts: &SweepOptions) -> Vec<Outcome> {
    let jobs: Vec<_> = jobs.iter().map(|j| (&j.scenario, j.trials, j.seed)).collect();
    sweep_trials(&jobs, opts)
}

/// Run a batch of observed sweeps across the shared pool.
///
/// Returns, per job, per trial (in seed order), the trial's observations
/// (one [`Observation`](crate::observe::Observation) per requested spec,
/// in spec order). The scheduling is [`run_sweep_with`]'s, and each
/// trial's chunk observations are merged in canonical chunk order —
/// byte-identical to the serial [`observe_trial`](crate::observe_trial)
/// reference at every thread count, granularity, and chunk size (pinned
/// by `crates/sim/tests/observers.rs`).
pub fn run_observed_sweep(
    jobs: &[ObservedJob],
    opts: &SweepOptions,
) -> Vec<Vec<TrialObservations>> {
    let shapes: Vec<JobShape> =
        jobs.iter().map(|j| JobShape::new(&j.scenario, j.rounds, j.trials, j.seed)).collect();
    Sweep::plan(&shapes, opts).run(
        |_, u| {
            let j = &jobs[u.job];
            observe_chunk(&j.scenario, u.seed, j.rounds, &j.specs, u.agents.start, u.agents.end)
        },
        // Every merge is also order-independent; the canonical order
        // makes that fact unnecessary for determinism.
        |_, _, parts| {
            let mut merged = parts.next().expect("a trial has at least one unit").clone();
            for part in parts {
                for (a, b) in merged.iter_mut().zip(part) {
                    a.merge(b);
                }
            }
            merged
        },
    )
}

/// The Monte-Carlo sweep behind [`run_sweep_with`] and [`run_trials`]:
/// `(scenario, trials, base seed)` per job.
fn sweep_trials(jobs: &[(&Scenario, u64, u64)], opts: &SweepOptions) -> Vec<Outcome> {
    let shapes: Vec<JobShape> = jobs
        .iter()
        .map(|&(s, trials, seed)| JobShape::new(s, s.move_budget(), trials, seed))
        .collect();
    let sweep = Sweep::plan(&shapes, opts);
    // One shared best-so-far cap hint per chunked trial: its chunks
    // publish finds as they land and read finds from earlier chunks as
    // each agent starts, so an agent that starts after an earlier find
    // stops below it instead of running to the full budget. Purely a
    // work saver — reductions stay byte-identical (see [`CapHint`]). A
    // one-chunk trial runs at the serial caps and needs none.
    let hints: Vec<Option<CapHint>> =
        sweep.trials.iter().map(|r| (r.len() > 1).then(|| CapHint::new(r.len()))).collect();
    let trial_plan = |u: &Unit| TrialPlan::new(jobs[u.job].0, u.seed, sweep.chunks[u.job]);
    let tele = opts.telemetry;
    let per_job = sweep.run(
        |w, u| {
            let plan = trial_plan(u);
            let run = match &hints[u.trial] {
                Some(hint) => plan.run_chunk_hinted(u.agents.start / plan.chunk(), hint),
                None => plan.run_chunk(0),
            };
            if let Some(t) = tele {
                t.add(w, Counter::EngineSteps, run.work());
                let h = run.hint_stats();
                t.add(w, Counter::HintPolls, h.polls);
                t.add(w, Counter::HintClamps, h.clamps);
                t.add(w, Counter::HintStepsSaved, h.moves_saved);
            }
            run
        },
        |w, u, chunks| {
            // Rewinding a speculative agent replays it: count those steps
            // too, so `engine_steps` covers every step simulated.
            let (result, replayed) = trial_plan(u).reduce_iter(chunks);
            if let Some(t) = tele {
                t.add(w, Counter::EngineSteps, replayed);
            }
            result
        },
    );
    per_job.into_iter().map(Outcome::new).collect()
}

/// Deterministic parallel map over `0..n`, in canonical index order.
///
/// The index range is split into contiguous batches drained through the
/// same pool as [`run_sweep_with`]; results are flattened back in index
/// order, so the output equals `(0..n).map(f).collect()` exactly. This is
/// the agent-level scheduling primitive for experiments whose inner loop
/// is not a [`Scenario`] (E4 samples walk lengths with it). Only
/// `opts.threads` applies here: `opts.chunk` is *agents* per chunk and
/// deliberately ignored — batch sizes are auto-scaled to ~16 batches per
/// worker, clamped to `64..=65_536` samples.
pub fn map_indexed<R, F>(n: u64, opts: &SweepOptions, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let threads = resolve_threads(opts.threads);
    let chunk = n.div_ceil(threads as u64 * 16).clamp(64, 65_536);
    let ranges: Vec<(u64, u64)> =
        (0..n.div_ceil(chunk)).map(|i| (i * chunk, ((i + 1) * chunk).min(n))).collect();
    let parts: Vec<Vec<R>> =
        drain(&ranges, threads, opts.telemetry, |_w, &(lo, hi)| (lo..hi).map(&f).collect());
    parts.into_iter().flatten().collect()
}

/// Resolve a thread policy to a worker count.
///
/// `None` means "all available cores"; explicit counts are honoured as
/// given (an oversubscribed count is allowed — useful for benchmarking
/// the scheduling overhead). Both are clamped to
/// `1..=`[`ants_obs::MAX_WORKERS`]. Without the `parallel` feature the
/// pool has one worker, so every unit runs on the calling thread.
fn resolve_threads(threads: Option<usize>) -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .clamp(1, ants_obs::MAX_WORKERS)
}

/// What the planner and the unit layout need to know about one job.
struct JobShape {
    agents: usize,
    /// The per-trial work proxy, agents × (move budget or rounds):
    /// recorded in the job's [`PlanDecision`] for profiles.
    weight: u64,
    trials: u64,
    seed: u64,
}

impl JobShape {
    /// A job of `trials` trials of `scenario` from base seed `seed`,
    /// where each agent costs about `per_agent` steps.
    fn new(scenario: &Scenario, per_agent: u64, trials: u64, seed: u64) -> Self {
        let agents = scenario.n_agents();
        JobShape { agents, weight: (agents as u64).saturating_mul(per_agent), trials, seed }
    }
}

/// One work unit: a contiguous agent range of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Unit {
    /// Job index within the sweep.
    job: usize,
    /// Trial index within the whole sweep (its entry in the layout's
    /// trial ranges).
    trial: usize,
    /// The trial's seed.
    seed: u64,
    /// The agents this unit runs.
    agents: Range<usize>,
}

/// Flatten `jobs` into units of at most `chunks[job]` agents, in
/// canonical (job, trial, chunk) order. Also returns each trial's
/// contiguous unit range, in the same order.
fn layout(jobs: &[JobShape], chunks: &[usize]) -> (Vec<Unit>, Vec<Range<usize>>) {
    let mut units = Vec::new();
    let mut trials = Vec::new();
    for (job, (j, &chunk)) in jobs.iter().zip(chunks).enumerate() {
        for seed in trial_seeds(j.trials, j.seed) {
            let start = units.len();
            for first in (0..j.agents).step_by(chunk) {
                let agents = first..(first + chunk).min(j.agents);
                units.push(Unit { job, trial: trials.len(), seed, agents });
            }
            trials.push(start..units.len());
        }
    }
    (units, trials)
}

/// A planned sweep: the worker count, each job's agents per unit, and
/// the unit layout.
struct Sweep {
    threads: usize,
    tele: Option<Telemetry>,
    /// Agents per unit for each job (the job's agent count at trial
    /// level).
    chunks: Vec<usize>,
    units: Vec<Unit>,
    /// Each trial's contiguous unit range, in (job, trial) order.
    trials: Vec<Range<usize>>,
}

impl Sweep {
    /// Plan every job once — logging its [`PlanDecision`] with the inputs
    /// and thresholds that drove it — and lay out the units.
    fn plan(jobs: &[JobShape], opts: &SweepOptions) -> Sweep {
        let tele = opts.telemetry;
        let _span = SpanGuard::new(tele, Phase::Plan);
        let threads = resolve_threads(opts.threads);
        let sweep_trials: u64 = jobs.iter().map(|j| j.trials).sum();
        let chunks: Vec<usize> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let plan = Scheduler::plan(j.agents, opts, threads, sweep_trials);
                if let Some(t) = tele {
                    let granularity = match plan {
                        Scheduler::TrialLevel => "trial",
                        Scheduler::AgentLevel { .. } => "agent",
                    };
                    t.record_plan(PlanDecision {
                        job: i as u64,
                        granularity: granularity.to_string(),
                        agents: j.agents as u64,
                        weight: j.weight,
                        sweep_trials,
                        threads: threads as u64,
                        chunk: opts.chunk.unwrap_or(DEFAULT_AGENT_CHUNK).max(1) as u64,
                        split_weight: 0,
                        saturation: POOL_SATURATION,
                    });
                }
                match plan {
                    Scheduler::TrialLevel => j.agents,
                    Scheduler::AgentLevel { chunk } => chunk.min(j.agents),
                }
            })
            .collect();
        let (units, trials) = layout(jobs, &chunks);
        Sweep { threads, tele, chunks, units, trials }
    }

    /// Execute the sweep: wave 1 drains every unit through `run`; wave 2
    /// reduces each chunked trial's outputs, in canonical chunk order,
    /// through `reduce`. A one-unit trial is reduced inside wave 1 and
    /// never enters wave 2. Both closures receive the executing worker's
    /// index. Returns per job, per trial, the reduction.
    fn run<C, R>(
        &self,
        run: impl Fn(usize, &Unit) -> C + Sync,
        reduce: impl Fn(usize, &Unit, &mut dyn Iterator<Item = &C>) -> R + Sync,
    ) -> Vec<Vec<R>>
    where
        C: Send + Sync,
        R: Send + Sync,
    {
        /// A unit's output: one chunk of a chunked trial, or a one-unit
        /// trial already reduced.
        enum Out<C, R> {
            Part(C),
            Done(R),
        }

        let tele = self.tele;
        let execute_span = SpanGuard::new(tele, Phase::Execute);
        let outs = drain(&self.units, self.threads, tele, |w, u| {
            let part = run(w, u);
            if self.trials[u.trial].len() == 1 {
                Out::Done(reduce(w, u, &mut std::iter::once(&part)))
            } else {
                Out::Part(part)
            }
        });
        drop(execute_span);

        // The reduction drain runs telemetry-detached so reductions don't
        // inflate the pool's unit counters — `PoolReduces` counts them
        // instead.
        let reduce_span = SpanGuard::new(tele, Phase::Reduce);
        let chunked: Vec<&Range<usize>> = self.trials.iter().filter(|r| r.len() > 1).collect();
        let reduced = drain(&chunked, self.threads, None, |w, &r| {
            if let Some(t) = tele {
                t.incr(w, Counter::PoolReduces);
            }
            let mut parts = outs[r.clone()].iter().map(|out| match out {
                Out::Part(part) => part,
                Out::Done(_) => unreachable!("a reduced trial inside a chunked range"),
            });
            reduce(w, &self.units[r.start], &mut parts)
        });
        drop(reduce_span);

        let mut reduced = reduced.into_iter();
        let mut per_job: Vec<Vec<R>> = self.chunks.iter().map(|_| Vec::new()).collect();
        for (u, out) in self.units.iter().zip(outs) {
            let result = match out {
                Out::Done(result) => result,
                Out::Part(_) if u.agents.start == 0 => {
                    reduced.next().expect("one reduction per chunked trial")
                }
                Out::Part(_) => continue,
            };
            per_job[u.job].push(result);
        }
        per_job
    }
}

/// Drain `units` through up to `threads` workers pulling from an atomic
/// cursor; returns one output per unit, in unit order. The closure
/// receives the executing worker's index alongside the unit. With one
/// worker the units run inline on the calling thread.
///
/// When `tele` is attached each worker counts its own claims, steals
/// (units claimed off their static round-robin home `i % workers`),
/// cursor polls, and busy/idle wall-clock in locals, flushing once to
/// the worker's shard at exit — the hot loop gains no shared-state
/// traffic and no clock reads unless telemetry is on.
fn drain<T, U, F>(units: &[T], threads: usize, tele: Option<Telemetry>, run: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    if units.is_empty() {
        return Vec::new();
    }
    let cursor = AtomicUsize::new(0);
    let workers = threads.clamp(1, units.len());
    // One worker's loop: (index, output) pairs for the units it claimed;
    // outputs are reassembled in unit order afterwards.
    let work = |w: usize| {
        let started = tele.map(|_| Instant::now());
        let mut claimed = 0u64;
        let mut stolen = 0u64;
        let mut polls = 0u64;
        let mut busy = Duration::ZERO;
        let mut mine = Vec::new();
        loop {
            polls += 1;
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(i) else { break };
            if started.is_some() {
                claimed += 1;
                if i % workers != w {
                    stolen += 1;
                }
                let t0 = Instant::now();
                mine.push((i, run(w, unit)));
                busy += t0.elapsed();
            } else {
                mine.push((i, run(w, unit)));
            }
        }
        if let (Some(t), Some(t0)) = (tele, started) {
            let as_ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            let total_ns = as_ns(t0.elapsed());
            let busy_ns = as_ns(busy);
            t.add(w, Counter::PoolUnits, claimed);
            t.add(w, Counter::PoolSteals, stolen);
            t.add(w, Counter::PoolPolls, polls);
            t.add(w, Counter::PoolBusyNs, busy_ns);
            t.add(w, Counter::PoolIdleNs, total_ns.saturating_sub(busy_ns));
        }
        mine
    };
    let collected: Vec<Vec<(usize, U)>> = if workers > 1 {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        })
    } else {
        vec![work(0)]
    };
    let mut slots: Vec<Option<U>> = units.iter().map(|_| None).collect();
    for (i, out) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "unit {i} executed twice");
        slots[i] = Some(out);
    }
    slots.into_iter().map(|s| s.expect("work unit never executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_trials_serial;
    use ants_core::baselines::SpiralSearch;
    use ants_grid::TargetPlacement;

    fn spiral_scenario(d: u64, n: usize) -> Scenario {
        Scenario::builder()
            .agents(n)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(100_000)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build()
    }

    fn job(d: u64, n: usize, trials: u64, seed: u64) -> SweepJob {
        SweepJob::new(spiral_scenario(d, n), trials, seed)
    }

    /// [`Scheduler::plan`] for a [`SweepJob`].
    fn plan(job: &SweepJob, opts: &SweepOptions, threads: usize, sweep_trials: u64) -> Scheduler {
        Scheduler::plan(job.scenario.n_agents(), opts, threads, sweep_trials)
    }

    #[test]
    fn run_sweep_matches_serial_reference() {
        let jobs: Vec<SweepJob> =
            [(3u64, 11u64), (5, 22), (7, 33)].into_iter().map(|(d, s)| job(d, 2, 6, s)).collect();
        for threads in [None, Some(1), Some(3), Some(16)] {
            let outcomes = run_sweep_with(&jobs, &SweepOptions::with_threads(threads));
            assert_eq!(outcomes.len(), jobs.len());
            for (j, outcome) in jobs.iter().zip(&outcomes) {
                let reference = run_trials_serial(&j.scenario, j.trials, j.seed);
                assert_eq!(
                    outcome.trials(),
                    reference.trials(),
                    "sweep diverged from serial at threads {threads:?}"
                );
            }
        }
    }

    #[test]
    fn run_sweep_handles_empty_and_tiny_batches() {
        assert!(run_sweep_with(&[], &SweepOptions::default()).is_empty());
        let jobs = vec![job(2, 1, 1, 9), job(2, 3, 0, 4)];
        let outcomes = run_sweep_with(&jobs, &SweepOptions::with_threads(Some(8)));
        assert_eq!(outcomes[0].trials(), run_trials_serial(&jobs[0].scenario, 1, 9).trials());
        assert!(outcomes[1].trials().is_empty(), "a zero-trial job yields an empty outcome");
    }

    #[test]
    fn run_trials_matches_serial_reference() {
        let s = spiral_scenario(4, 2);
        assert_eq!(run_trials(&s, 12, 77).trials(), run_trials_serial(&s, 12, 77).trials());
    }

    #[test]
    fn granularity_round_trips() {
        for g in [Granularity::Auto, Granularity::Trial, Granularity::Agent] {
            assert_eq!(Granularity::parse(g.as_str()), Some(g));
        }
        assert_eq!(Granularity::parse("bogus"), None);
        assert_eq!(Granularity::default(), Granularity::Auto);
    }

    #[test]
    fn scheduler_plan_heuristics() {
        let opts = SweepOptions::default();
        // One worker: trial level.
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::TrialLevel);
        // Many trials, light cells: trial level.
        assert_eq!(plan(&job(4, 2, 100, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Few trials, many agents: agent level.
        assert_eq!(
            plan(&job(4, 64, 2, 0), &opts, 4, 2),
            Scheduler::AgentLevel { chunk: DEFAULT_AGENT_CHUNK }
        );
        // Plenty of trials fill the pool on their own: never split (the
        // speculative chunks would multiply total work for nothing).
        assert_eq!(plan(&job(4, 64, 100, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Aggressive split: trials that keep workers less than
        // POOL_SATURATION units deep still split.
        assert_eq!(
            plan(&job(4, 64, 15, 0), &opts, 4, 15),
            Scheduler::AgentLevel { chunk: DEFAULT_AGENT_CHUNK }
        );
        // No weight floor: a light trial with few sibling trials splits.
        assert_eq!(
            Scheduler::plan(64, &opts, 4, 2),
            Scheduler::AgentLevel { chunk: DEFAULT_AGENT_CHUNK }
        );
        // The pool is shared: a few-trial heavy job inside a sweep whose
        // siblings already provide plenty of trial units stays unsplit.
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Too few agents to split: stays at trial level.
        assert_eq!(plan(&job(4, 4, 2, 0), &opts, 4, 2), Scheduler::TrialLevel);
    }

    #[test]
    fn scheduler_plan_honours_forced_granularity() {
        let opts = SweepOptions::default().granularity(Granularity::Agent).chunk(3);
        assert_eq!(plan(&job(4, 2, 100, 0), &opts, 4, 100), Scheduler::AgentLevel { chunk: 3 });
        let opts = SweepOptions::default().granularity(Granularity::Trial);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 4, 2), Scheduler::TrialLevel);
    }

    /// Regression: an explicit `--granularity agent` (or `trial`) used to
    /// be silently discarded whenever `threads <= 1`.
    #[test]
    fn scheduler_plan_honours_forced_granularity_on_one_worker() {
        let opts = SweepOptions::default().granularity(Granularity::Agent).chunk(3);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::AgentLevel { chunk: 3 });
        let opts = SweepOptions::default().granularity(Granularity::Trial);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::TrialLevel);
    }

    /// The planned unit list of `jobs` — `(agents, trials, base seed)`
    /// each — under `opts`, with each trial's unit range.
    fn planned(jobs: &[(usize, u64, u64)], opts: &SweepOptions) -> (Vec<Unit>, Vec<Range<usize>>) {
        let shapes: Vec<JobShape> = jobs
            .iter()
            .map(|&(agents, trials, seed)| JobShape { agents, weight: 1 << 20, trials, seed })
            .collect();
        let sweep = Sweep::plan(&shapes, opts);
        (sweep.units, sweep.trials)
    }

    /// The units of trial `trial` (sweep-wide index) of job `job`, seeded
    /// `seed`, whose agent ranges end at `ends` (each starts where the
    /// previous one ended).
    fn trial_units(job: usize, trial: usize, seed: u64, ends: &[usize]) -> Vec<Unit> {
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(ends)
            .map(|(first, &end)| Unit { job, trial, seed, agents: first..end })
            .collect()
    }

    #[test]
    fn layout_is_canonical_at_every_granularity() {
        let (s7, s8) = (trial_seeds(2, 7), trial_seeds(1, 8));

        // Trial level: one whole-trial unit per (job, trial).
        let opts = SweepOptions::with_threads(Some(4)).granularity(Granularity::Trial);
        let (units, trials) = planned(&[(3, 2, 7), (2, 1, 8)], &opts);
        let mut want = trial_units(0, 0, s7[0], &[3]);
        want.extend(trial_units(0, 1, s7[1], &[3]));
        want.extend(trial_units(1, 2, s8[0], &[2]));
        assert_eq!(units, want);
        assert_eq!(trials, vec![0..1, 1..2, 2..3]);

        // Agent level: every trial splits into chunks, uneven tail last;
        // a chunk wider than the job is the one-unit (trial-level) case.
        let opts = SweepOptions::with_threads(Some(4)).granularity(Granularity::Agent).chunk(2);
        let (units, trials) = planned(&[(5, 2, 7), (2, 1, 8), (1, 1, 8)], &opts);
        let mut want = trial_units(0, 0, s7[0], &[2, 4, 5]);
        want.extend(trial_units(0, 1, s7[1], &[2, 4, 5]));
        want.extend(trial_units(1, 2, s8[0], &[2]));
        want.extend(trial_units(2, 3, s8[0], &[1]));
        assert_eq!(units, want);
        assert_eq!(trials, vec![0..3, 3..6, 6..7, 7..8]);

        // A forced agent granularity still chunks on one worker.
        let one = SweepOptions::with_threads(Some(1)).granularity(Granularity::Agent).chunk(2);
        assert_eq!(planned(&[(5, 2, 7), (2, 1, 8), (1, 1, 8)], &one), (units, trials));

        // One trial of nine agents fans out into five chunks.
        let (units, trials) = planned(&[(9, 1, 42)], &opts);
        let want = trial_units(0, 0, trial_seeds(1, 42)[0], &[2, 4, 6, 8, 9]);
        assert_eq!(units, want);
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0], 0..5);
    }

    #[test]
    fn map_indexed_is_order_preserving() {
        // 1000 items at the 64-sample minimum batch: ~16 batches, so the
        // multi-batch reassembly path is genuinely exercised.
        let reference: Vec<u64> = (0..1000).map(|i| i * 7 % 13).collect();
        for threads in [Some(1), Some(2), Some(4)] {
            // `chunk` is agents per chunk and must not leak into the
            // sample batching.
            let opts = SweepOptions::with_threads(threads).chunk(1);
            assert_eq!(map_indexed(1000, &opts, |i| i * 7 % 13), reference);
        }
        assert_eq!(map_indexed(0, &SweepOptions::default(), |i| i), Vec::<u64>::new());
    }
}
