//! The trial executor.
//!
//! [`run_trial`] is a thin wrapper over [`TrialPlan`]: the trial's agents
//! are partitioned into fixed-size chunks, every chunk is simulated
//! independently, and the chunk results are reduced in canonical agent
//! order. The reduction reproduces the serial engine's early-cap
//! semantics byte for byte at *every* chunk size, which is what lets the
//! sweep scheduler (see [`crate::sched`]) execute agent chunks across
//! threads without changing any output.

use crate::metrics::{Outcome, TrialResult};
use crate::scenario::Scenario;
use crate::stepping::{place_target, AgentStepper};
use ants_core::SelectionComplexity;
use ants_grid::Point;
use ants_rng::{Rng64, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared best-so-far cap hint for the speculative chunks of one trial.
///
/// Speculation is the whole tax: a chunk other than the first cannot see
/// the finds of earlier chunks, so its local early caps start at the full
/// move budget and it may redo work the serial engine never performs
/// (measured ~3.3x on E9 at chunk 8 before this type existed). The hint
/// closes that gap without giving up byte-identity:
///
/// * slot `c` holds the best (lowest) find published by chunks with index
///   *strictly below* `c` — a prefix minimum, maintained with
///   `fetch_min`, so a published hint can only ever *lower* a chunk's
///   local cap, never raise it;
/// * chunk `c` caps its agents at `slot[c] - 1`. Because only finds by
///   lower-index chunks flow into the slot, that bound is always at or
///   above the serial early cap (which also folds in finds by lower-index
///   agents *within* the chunk), so a hinted run stops at or past the
///   serial stop and the canonical reduction rewinds it exactly as it
///   rewinds any speculative run.
///
/// Reading a find by a *later* chunk would be unsound: the serial winner
/// rule breaks ties toward lower agent indices, and an earlier agent
/// censored below its serial stop could miss a find the serial engine
/// reports. The prefix-min shape makes that impossible by construction.
///
/// Timing only moves a chunk's stop point *between* the serial stop and
/// the unhinted speculative stop; the reduced [`TrialResult`] is
/// invariant. Under sequential execution in canonical chunk order (one
/// worker), every slot is fully populated before its chunk runs and the
/// chunked trial performs exactly the serial engine's work.
#[derive(Debug)]
pub struct CapHint {
    /// `slots[c]` = minimum find (in moves) published by chunks `< c`,
    /// `u64::MAX` when none has been published yet.
    slots: Vec<AtomicU64>,
}

impl CapHint {
    /// A fresh hint for a trial of `n_chunks` chunks (no finds yet).
    pub fn new(n_chunks: usize) -> Self {
        Self { slots: (0..n_chunks).map(|_| AtomicU64::new(u64::MAX)).collect() }
    }

    /// The move cap hinted to chunk `chunk_idx`: one move below the best
    /// find published by earlier chunks, or `u64::MAX` when no earlier
    /// chunk has found the target. Never below the serial early cap.
    pub fn cap_for(&self, chunk_idx: usize) -> u64 {
        match self.slots[chunk_idx].load(Ordering::Relaxed) {
            u64::MAX => u64::MAX,
            moves => moves - 1,
        }
    }

    /// Publish a find of `moves` by chunk `chunk_idx`: lowers (never
    /// raises) the hinted caps of every *later* chunk. Chunks at or below
    /// `chunk_idx` are untouched — their serial caps owe nothing to this
    /// find.
    pub fn publish(&self, chunk_idx: usize, moves: u64) {
        debug_assert!(moves >= 1, "a find takes at least one move");
        for slot in &self.slots[chunk_idx + 1..] {
            slot.fetch_min(moves, Ordering::Relaxed);
        }
    }
}

/// One agent simulated under an explicit move cap.
///
/// Pure in `(scenario, trial_seed, agent index, cap)`: the agent's RNG
/// stream is derived directly from the trial seed and its index, so the
/// run is identical no matter which chunk (or thread) executes it. The
/// same purity lets the reduction rewind a speculative agent by running
/// it again at its serial cap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AgentRun {
    /// The cap this agent ran with (at least 1; a chunk truncates when
    /// its local cap reaches zero).
    cap: u64,
    /// Moves until the target, if found within `cap`.
    moves: Option<u64>,
    /// Steps until the target, for the same stop.
    steps: Option<u64>,
    /// Steps actually simulated (work instrumentation; timing-dependent
    /// under a live hint, never part of a [`TrialResult`]).
    work: u64,
    /// Running-max selection-complexity footprint at the agent's stop.
    chi: SelectionComplexity,
}

/// Simulate one agent until it finds `target`, exhausts `cap` moves, or
/// (with a guess ceiling) keeps aborting overlong excursions.
///
/// This drives the shared stepping core one stride at a time
/// ([`AgentStepper`] owns the transition semantics and the stride bounds
/// that keep the target and ceiling checks exact; this loop adds the
/// engine's cap).
fn run_agent(
    scenario: &Scenario,
    trial_seed: u64,
    target: Point,
    agent_idx: usize,
    cap: u64,
) -> AgentRun {
    debug_assert!(cap > 0, "callers skip capped-out agents");
    let mut stepper = AgentStepper::for_scenario(scenario, trial_seed, Some(target), agent_idx);
    let mut found = false;
    // The loop is bounded by moves, so a permanently halted strategy (a
    // mortal wrapper past its expiry never moves again) must break out
    // explicitly.
    while stepper.moves() < cap && !stepper.halted() {
        if stepper.stride(cap - stepper.moves()) {
            found = true;
            break;
        }
    }
    // Between aborts the selection-complexity footprint is monotone over
    // an agent's lifetime (static for fixed automata, non-decreasing for
    // phase-based strategies whose counters widen), so the stepper's
    // final sample — plus its sample before each abort — captures the
    // run's maximum.
    AgentRun {
        cap,
        moves: found.then(|| stepper.moves()),
        steps: found.then(|| stepper.steps()),
        work: stepper.steps(),
        chi: stepper.chi(),
    }
}

/// Aggregated [`CapHint`] effectiveness counters for one chunk run —
/// telemetry only, never part of a [`TrialResult`]. The hint is read
/// once per agent start, so poll and clamp counts are exact per-start
/// counts; `moves_saved` is a conservative lower bound on the
/// speculative work the hint cut off (each saved move is at least one
/// saved step), timing-dependent under concurrent workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintStats {
    /// Shared-hint reads: one per agent start (including the start that
    /// finds a zero cap and truncates the chunk).
    pub polls: u64,
    /// Agent starts whose cap the hint lowered below the chunk-local one.
    pub clamps: u64,
    /// Moves the hint shaved off not-found speculative agents, relative
    /// to the unhinted chunk-local bound.
    pub moves_saved: u64,
}

/// The results of one agent chunk of a [`TrialPlan`], opaque to callers:
/// produce it with [`TrialPlan::run_chunk`] and hand it back to
/// [`TrialPlan::reduce`].
#[derive(Debug, Clone)]
pub struct ChunkRun {
    first_agent: usize,
    agents: Vec<AgentRun>,
    /// Aggregated hint-effectiveness counters (telemetry only).
    hint: HintStats,
}

impl ChunkRun {
    /// Number of agents simulated in this chunk (fewer than the chunk
    /// width when a one-move find capped out the rest).
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// Is the chunk empty? (Never true for chunks produced by
    /// [`TrialPlan::run_chunk`].)
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }

    /// Steps actually simulated across the chunk's agents — the work
    /// instrumentation behind the speculation-tax tests and the
    /// `engine_steps` telemetry counter. Timing-dependent under a live
    /// [`CapHint`] (a hint arriving earlier stops speculative agents
    /// sooner); never part of a [`TrialResult`].
    pub fn work(&self) -> u64 {
        self.agents.iter().map(|a| a.work).sum()
    }

    /// Aggregated [`CapHint`] effectiveness counters for this chunk —
    /// observability only (see `HintStats`); reductions never read
    /// them.
    pub fn hint_stats(&self) -> HintStats {
        self.hint
    }
}

/// A trial split into deterministic agent chunks.
///
/// The plan partitions the scenario's agents into `chunk`-sized runs of
/// consecutive indices. Each chunk is a pure function of
/// `(scenario, trial_seed, chunk index)` — agent RNG streams are derived
/// per agent index straight from the trial seed, so a chunk needs no
/// state from its predecessors and can execute on any thread, in any
/// order.
///
/// # Determinism contract
///
/// `plan.reduce(chunks)` — and therefore [`TrialPlan::run`] and
/// [`run_trial`] — is byte-identical for every chunk size, thread count,
/// and execution order. Two mechanisms make this hold:
///
/// * **Moves/steps/winner.** An agent's trajectory does not depend on its
///   cap (the cap only stops the loop), so the minimum over agents is
///   chunking-invariant; the reduction walks agents in canonical index
///   order and replays the serial early-cap rule (each agent is capped at
///   one move below the best prefix result, and the trial stops when the
///   cap reaches zero).
/// * **Chi footprint.** Chunks after the first run with *speculative*
///   caps (their local prefix best, lowered toward the serial cap by the
///   shared [`CapHint`] but never below it). An agent that ran past its
///   serial cap without finding the target within it is rewound by
///   running it again at the serial cap: its run is a pure function of
///   `(scenario, trial_seed, agent index, cap)`, so the replay stops
///   exactly where the serial engine does and reports its footprint.
///   Chunk 0's local caps equal the serial caps, so it never replays — a
///   single-chunk plan is the serial engine, unchanged.
pub struct TrialPlan<'a> {
    scenario: &'a Scenario,
    trial_seed: u64,
    chunk: usize,
}

impl<'a> TrialPlan<'a> {
    /// Plan a trial with `chunk` agents per chunk (clamped to >= 1;
    /// values above the agent count simply yield a single chunk).
    pub fn new(scenario: &'a Scenario, trial_seed: u64, chunk: usize) -> Self {
        Self { scenario, trial_seed, chunk: chunk.max(1) }
    }

    /// Agents per chunk.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Number of chunks the trial splits into.
    pub fn n_chunks(&self) -> usize {
        self.scenario.n_agents().div_ceil(self.chunk)
    }

    fn place_target(&self) -> Point {
        // Stream salts::TARGET_STREAM is reserved for the target; agents
        // use streams indexed by their agent number (see crate::salts).
        place_target(self.scenario, self.trial_seed)
    }

    /// A fresh [`CapHint`] sized for this plan, ready to share across its
    /// chunks (wrap it in an `Arc` to hand it to workers).
    pub fn hint(&self) -> CapHint {
        CapHint::new(self.n_chunks())
    }

    /// Execute one chunk without a shared hint: agents are capped only by
    /// the best result found *within this chunk*. This is the fully
    /// speculative path — see [`TrialPlan::run_chunk_hinted`] for the one
    /// the sweep scheduler uses.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_idx >= self.n_chunks()`.
    pub fn run_chunk(&self, chunk_idx: usize) -> ChunkRun {
        self.run_chunk_inner(chunk_idx, None)
    }

    /// Execute one chunk: simulate its agents in index order with
    /// chunk-local early caps (each agent capped one move below the best
    /// result found within this chunk), lowered toward the serial caps by
    /// `hint` (finds published by earlier chunks, read once as each agent
    /// starts; an agent's cap is then fixed for its whole run) and
    /// publishing this chunk's own finds for later chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_idx >= self.n_chunks()` or if `hint` was sized
    /// for a different chunk count.
    pub fn run_chunk_hinted(&self, chunk_idx: usize, hint: &CapHint) -> ChunkRun {
        assert_eq!(hint.slots.len(), self.n_chunks(), "hint sized for a different plan");
        self.run_chunk_inner(chunk_idx, Some(hint))
    }

    fn run_chunk_inner(&self, chunk_idx: usize, hint: Option<&CapHint>) -> ChunkRun {
        assert!(chunk_idx < self.n_chunks(), "chunk {chunk_idx} out of range");
        let first_agent = chunk_idx * self.chunk;
        let end = (first_agent + self.chunk).min(self.scenario.n_agents());
        let target = self.place_target();
        let budget = self.scenario.move_budget();
        let mut best: Option<u64> = None;
        let mut agents = Vec::with_capacity(end - first_agent);
        let mut stats = HintStats::default();
        for agent_idx in first_agent..end {
            let local = match best {
                // A later agent only matters if strictly faster.
                Some(m) => m.saturating_sub(1),
                None => budget,
            };
            let cap = match hint {
                Some(h) => {
                    stats.polls += 1;
                    let hinted = h.cap_for(chunk_idx);
                    if hinted < local {
                        stats.clamps += 1;
                    }
                    local.min(hinted)
                }
                None => local,
            };
            if cap == 0 {
                // A one-move find — chunk-local or hinted from an earlier
                // chunk — caps out the rest of the chunk. The global
                // prefix best is at most the local/hinted one, so the
                // reduction's own cap reaches zero at or before this
                // agent and never reads past the truncation.
                break;
            }
            let run = run_agent(self.scenario, self.trial_seed, target, agent_idx, cap);
            if run.moves.is_none() && run.cap < local {
                // The hint stopped a not-found speculative agent short of
                // its unhinted chunk-local bound: every skipped move is
                // at least one step the unhinted run would have paid.
                stats.moves_saved += local - run.cap;
            }
            if let Some(m) = run.moves {
                best = Some(m);
                if let Some(h) = hint {
                    h.publish(chunk_idx, m);
                }
            }
            agents.push(run);
        }
        ChunkRun { first_agent, agents, hint: stats }
    }

    /// Reduce chunk results in canonical agent order into the trial's
    /// [`TrialResult`], byte-identical to the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if the chunks are not exactly this plan's chunks in order.
    pub fn reduce(&self, chunks: &[ChunkRun]) -> TrialResult {
        self.reduce_iter(chunks.iter()).0
    }

    /// [`TrialPlan::reduce`], also returning the steps simulated to
    /// rewind speculative agents (work instrumentation, like
    /// [`ChunkRun::work`]).
    pub(crate) fn reduce_iter<'c>(
        &self,
        chunks: impl Iterator<Item = &'c ChunkRun>,
    ) -> (TrialResult, u64) {
        let target = self.place_target();
        let budget = self.scenario.move_budget();
        let mut best: Option<(u64, u64, usize)> = None; // (moves, steps, agent)
        let mut chi = SelectionComplexity::new(0, 0);
        let mut consumed = 0usize;
        let mut replayed = 0u64;
        'trial: for (chunk_idx, chunk) in chunks.enumerate() {
            assert_eq!(chunk.first_agent, chunk_idx * self.chunk, "chunks out of order");
            for (offset, run) in chunk.agents.iter().enumerate() {
                consumed = chunk.first_agent + offset + 1;
                let cap = match best {
                    Some((m, _, _)) => m.saturating_sub(1),
                    None => budget,
                };
                if cap == 0 {
                    // The serial engine breaks out of the agent loop here:
                    // remaining agents never run and never contribute chi.
                    break 'trial;
                }
                match run.moves {
                    Some(m) if m <= cap => {
                        // Found within the serial cap: the chunk stop is
                        // the found point, identical to the serial stop.
                        chi = chi.max(run.chi);
                        best = Some((
                            m,
                            run.steps.expect("found agents record steps"),
                            chunk.first_agent + offset,
                        ));
                    }
                    _ if run.cap == cap => {
                        // Not found, and the chunk-local cap was already
                        // the serial cap: same stop, chi is exact.
                        debug_assert!(run.moves.is_none());
                        chi = chi.max(run.chi);
                    }
                    _ => {
                        // The chunk speculated past the serial cap (its
                        // local prefix best and any hinted cap are never
                        // below the serial prefix best, so
                        // `run.cap > cap`); rewind by replaying the agent
                        // at the serial cap. Its trajectory does not
                        // depend on the cap, so the replay cannot find the
                        // target either and stops at the serial stop.
                        debug_assert!(run.cap > cap, "chunk cap below the serial cap");
                        let agent = chunk.first_agent + offset;
                        let replay = run_agent(self.scenario, self.trial_seed, target, agent, cap);
                        debug_assert!(replay.moves.is_none(), "a rewound agent found the target");
                        replayed += replay.work;
                        chi = chi.max(replay.chi);
                    }
                }
            }
        }
        assert!(
            best.is_some_and(|(m, _, _)| m == 1) || consumed == self.scenario.n_agents(),
            "reduction consumed {consumed} of {} agents",
            self.scenario.n_agents()
        );
        let result = TrialResult {
            target,
            moves: best.map(|(m, _, _)| m),
            steps: best.map(|(_, s, _)| s),
            winner: best.map(|(_, _, a)| a),
            chi_footprint: chi,
        };
        (result, replayed)
    }

    /// Run every chunk on the calling thread and reduce.
    ///
    /// Chunks share a [`CapHint`] and run in canonical order, so every
    /// chunk sees the finds of all earlier ones before its first agent
    /// starts, every agent starts at its serial cap, and the plan performs
    /// the serial engine's work at any chunk size — the speculation tax
    /// only exists across concurrent workers.
    pub fn run(&self) -> TrialResult {
        let hint = self.hint();
        let chunks: Vec<ChunkRun> =
            (0..self.n_chunks()).map(|c| self.run_chunk_hinted(c, &hint)).collect();
        self.reduce(&chunks)
    }
}

/// Run one trial: place the target, release `n` fresh agents, report the
/// paper's `M_moves`/`M_steps` minimum.
///
/// Determinism: the trial is a pure function of `(scenario, trial_seed)`.
/// The target draw and each agent's randomness come from independent
/// derived streams.
///
/// Exactness: because agents never interact, each is simulated on its
/// own. Agent `a` is capped at the best move count found so far (it
/// cannot improve the minimum beyond that), which keeps the cost near
/// `n · min(budget, best)` instead of `n · budget`. This is a thin
/// wrapper over a single-chunk [`TrialPlan`]; chunked plans produce the
/// same result byte for byte (see the plan's determinism contract).
pub fn run_trial(scenario: &Scenario, trial_seed: u64) -> TrialResult {
    TrialPlan::new(scenario, trial_seed, scenario.n_agents()).run()
}

/// Derive the per-trial seed sequence of a sweep job.
///
/// Pre-deriving all seeds from a [`SplitMix64`] stream is the determinism
/// contract: a job's outcome is a pure function of
/// `(scenario, n_trials, base_seed)`, independent of thread count, build
/// features, or scheduling.
pub(crate) fn trial_seeds(n_trials: u64, base_seed: u64) -> Vec<u64> {
    let mut seed_mixer = SplitMix64::new(base_seed);
    (0..n_trials).map(|_| seed_mixer.next_u64()).collect()
}

/// Run every trial on the calling thread, in seed order.
///
/// This is the reference implementation [`run_trials`](crate::run_trials)
/// and [`run_sweep_with`](crate::run_sweep_with) must agree with
/// byte-for-byte; the golden determinism test compares them.
pub fn run_trials_serial(scenario: &Scenario, n_trials: u64, base_seed: u64) -> Outcome {
    let trials = trial_seeds(n_trials, base_seed).iter().map(|&s| run_trial(scenario, s)).collect();
    Outcome::new(trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_trials;
    use ants_automaton::library;
    use ants_core::baselines::{
        AutomatonStrategy, Expiring, HarmonicSearch, LevyWalk, Mortal, RandomWalk, SpiralSearch,
    };
    use ants_core::{
        CoinNonUniformSearch, FullyUniformSearch, NonUniformSearch, SearchStrategy, UniformSearch,
    };
    use ants_grid::TargetPlacement;
    use std::sync::Arc;

    fn spiral_scenario(d: u64, n: usize) -> Scenario {
        Scenario::builder()
            .agents(n)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(100_000)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build()
    }

    #[test]
    fn spiral_finds_corner_deterministically() {
        let s = spiral_scenario(5, 1);
        let r = run_trial(&s, 1);
        assert!(r.found());
        // Corner (5,5) is on the spiral; moves <= (2*5+1)^2 + O(D).
        assert!(r.moves.unwrap() <= 145, "moves = {:?}", r.moves);
        assert_eq!(r.winner, Some(0));
        assert_eq!(r.target, Point::new(5, 5));
    }

    #[test]
    fn trials_are_deterministic() {
        let s = Scenario::builder()
            .agents(2)
            .target(TargetPlacement::UniformInBall { distance: 6 })
            .move_budget(50_000)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build();
        let a = run_trial(&s, 99);
        let b = run_trial(&s, 99);
        assert_eq!(a, b);
        // Different seeds place different targets (overwhelmingly).
        let c = run_trial(&s, 100);
        assert_ne!(a.target, c.target);
    }

    #[test]
    fn budget_respected() {
        // Random walk looking for an absurd corner within a tiny budget.
        let s = Scenario::builder()
            .agents(1)
            .target(TargetPlacement::Corner { distance: 1000 })
            .move_budget(100)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build();
        let r = run_trial(&s, 5);
        assert!(!r.found());
        assert_eq!(r.moves, None);
        assert_eq!(r.winner, None);
    }

    #[test]
    fn more_agents_never_worse() {
        // M_moves is a minimum: with the same seeds, more agents can only
        // find the target sooner or equally fast (statistically; here we
        // check the aggregate).
        let d = 8;
        let mk = |n: usize| {
            Scenario::builder()
                .agents(n)
                .target(TargetPlacement::Corner { distance: d })
                .move_budget(2_000_000)
                .strategy(move |_| Box::new(NonUniformSearch::new(8).unwrap()))
                .build()
        };
        let one = run_trials(&mk(1), 60, 7).summary();
        let eight = run_trials(&mk(8), 60, 7).summary();
        assert!(one.success_rate() > 0.95);
        assert!(eight.success_rate() > 0.95);
        assert!(
            eight.mean_moves() < one.mean_moves(),
            "8 agents ({}) should beat 1 agent ({})",
            eight.mean_moves(),
            one.mean_moves()
        );
    }

    #[test]
    fn run_trials_count_and_determinism() {
        let s = spiral_scenario(3, 1);
        let o1 = run_trials(&s, 10, 123);
        let o2 = run_trials(&s, 10, 123);
        assert_eq!(o1.trials().len(), 10);
        assert_eq!(o1.trials(), o2.trials());
    }

    #[test]
    fn winner_is_recorded_among_agents() {
        let s = Scenario::builder()
            .agents(4)
            .target(TargetPlacement::UniformInBall { distance: 4 })
            .move_budget(500_000)
            .strategy(|_| Box::new(NonUniformSearch::new(4).unwrap()))
            .build();
        let r = run_trial(&s, 11);
        assert!(r.found());
        assert!(r.winner.unwrap() < 4);
    }

    #[test]
    fn guess_ceiling_aborts_overlong_guesses() {
        use ants_core::UniformSearch;
        // A uniform searcher hunting a corner target: without a ceiling
        // some excursions run very long; with one, every origin-to-origin
        // segment is bounded, and the target must still be found.
        let mk = |ceiling: Option<u64>| {
            let mut b = Scenario::builder()
                .agents(2)
                .target(TargetPlacement::Corner { distance: 4 })
                .move_budget(2_000_000)
                .strategy(|_| Box::new(UniformSearch::new(1, 2, 2).expect("valid")));
            if let Some(c) = ceiling {
                b = b.guess_move_ceiling(c);
            }
            b.build()
        };
        let capped = run_trials(&mk(Some(1_000)), 12, 5);
        assert!(
            capped.summary().success_rate() > 0.8,
            "ceiling should not stop the search: {}",
            capped.summary().success_rate()
        );
        // Determinism is preserved under the ceiling.
        let again = run_trials(&mk(Some(1_000)), 12, 5);
        assert_eq!(capped.trials(), again.trials());
        // And the ceiling genuinely changes trajectories vs. uncapped.
        let uncapped = run_trials(&mk(None), 12, 5);
        assert_ne!(capped.trials(), uncapped.trials());
    }

    #[test]
    fn chi_footprint_reported() {
        let s = spiral_scenario(4, 1);
        let r = run_trial(&s, 3);
        // Spiral: deterministic, ell = 0, some memory bits.
        assert_eq!(r.chi_footprint.ell(), 0);
        assert!(r.chi_footprint.memory_bits() >= 3);
    }

    #[test]
    fn trial_plan_shape() {
        let s = spiral_scenario(3, 7);
        let plan = TrialPlan::new(&s, 1, 3);
        assert_eq!(plan.chunk(), 3);
        assert_eq!(plan.n_chunks(), 3);
        assert_eq!(plan.run_chunk(0).len(), 3);
        assert_eq!(plan.run_chunk(2).len(), 1);
        // Chunk parameter is clamped to >= 1 and may exceed the agents.
        assert_eq!(TrialPlan::new(&s, 1, 0).chunk(), 1);
        assert_eq!(TrialPlan::new(&s, 1, 100).n_chunks(), 1);
    }

    #[test]
    fn trial_plan_single_chunk_is_run_trial() {
        let s = spiral_scenario(5, 4);
        for seed in 0..6u64 {
            let plan = TrialPlan::new(&s, seed, s.n_agents());
            assert_eq!(plan.run(), run_trial(&s, seed));
        }
    }

    #[test]
    fn trial_plan_every_chunk_size_matches() {
        let s = Scenario::builder()
            .agents(5)
            .target(TargetPlacement::UniformInBall { distance: 6 })
            .move_budget(30_000)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build();
        for seed in 0..4u64 {
            let reference = run_trial(&s, seed);
            for chunk in 1..=6usize {
                let got = TrialPlan::new(&s, seed, chunk).run();
                assert_eq!(got, reference, "chunk {chunk} diverged at seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trial_plan_rejects_bad_chunk_index() {
        let s = spiral_scenario(2, 2);
        let plan = TrialPlan::new(&s, 1, 2);
        let _ = plan.run_chunk(1);
    }

    #[test]
    #[should_panic(expected = "chunks out of order")]
    fn reduce_rejects_misordered_chunks() {
        let s = spiral_scenario(2, 4);
        let plan = TrialPlan::new(&s, 1, 2);
        let (a, b) = (plan.run_chunk(0), plan.run_chunk(1));
        let _ = plan.reduce(&[b, a]);
    }

    /// The per-step loop the strided [`run_agent`] replaced, kept as the
    /// reference it must reproduce: one [`AgentStepper::step`] per
    /// iteration.
    fn run_agent_stepwise(
        scenario: &Scenario,
        trial_seed: u64,
        target: Point,
        agent_idx: usize,
        cap: u64,
    ) -> AgentRun {
        let mut stepper = AgentStepper::for_scenario(scenario, trial_seed, Some(target), agent_idx);
        let mut found = false;
        while stepper.moves() < cap && !stepper.halted() {
            let out = stepper.step();
            if out.found {
                found = true;
                break;
            }
        }
        AgentRun {
            cap,
            moves: found.then(|| stepper.moves()),
            steps: found.then(|| stepper.steps()),
            work: stepper.steps(),
            chi: stepper.chi(),
        }
    }

    type Family = Arc<dyn Fn() -> Box<dyn SearchStrategy> + Send + Sync>;

    /// Every MC zoo family (plus a geometric `Mortal`), bare and under
    /// `mortal(·, 1)` / `mortal(·, 7)` expiry wrappers.
    fn zoo_families() -> Vec<(String, Family)> {
        let mut pfa_rng = ants_rng::derive_rng(7, 0);
        let pfa = library::random_pfa(6, 3, &mut pfa_rng);
        let bare: Vec<(&str, Family)> = vec![
            ("randomwalk", Arc::new(|| Box::new(RandomWalk::new()))),
            ("spiral", Arc::new(|| Box::new(SpiralSearch::new()))),
            ("nonuniform", Arc::new(|| Box::new(NonUniformSearch::new(6).expect("valid")))),
            ("coin", Arc::new(|| Box::new(CoinNonUniformSearch::new(6, 2).expect("valid")))),
            ("uniform", Arc::new(|| Box::new(UniformSearch::new(2, 4, 2).expect("valid")))),
            ("fullyuniform", Arc::new(|| Box::new(FullyUniformSearch::new(2, 2).expect("valid")))),
            ("harmonic", Arc::new(|| Box::new(HarmonicSearch::new(4)))),
            ("levy", Arc::new(|| Box::new(LevyWalk::new(2.0, 64)))),
            ("geometric mortal", Arc::new(|| Box::new(Mortal::new(RandomWalk::new(), 6)))),
            (
                "automaton(lazy)",
                Arc::new(|| Box::new(AutomatonStrategy::new(library::lazy_random_walk()))),
            ),
            (
                "automaton(line)",
                Arc::new(|| Box::new(AutomatonStrategy::new(library::straight_line()))),
            ),
            (
                "automaton(alg1)",
                Arc::new(|| {
                    Box::new(AutomatonStrategy::new(library::algorithm1(3).expect("valid")))
                }),
            ),
            ("automaton(pfa)", Arc::new(move || Box::new(AutomatonStrategy::new(pfa.clone())))),
        ];
        let mut out = Vec::new();
        for (name, make) in bare {
            for expiry in [None, Some(1u64), Some(7)] {
                let make = Arc::clone(&make);
                match expiry {
                    None => out.push((name.to_string(), make)),
                    Some(e) => out.push((
                        format!("mortal({name}, {e})"),
                        Arc::new(move || {
                            Box::new(Expiring::new(make(), e)) as Box<dyn SearchStrategy>
                        }),
                    )),
                }
            }
        }
        out
    }

    #[test]
    fn strided_run_agent_matches_the_stepwise_reference() {
        const D: u64 = 6;
        const BUDGET: u64 = 3_000;
        let near = TargetPlacement::Fixed(Point::new(1, 0));
        let far = TargetPlacement::UniformInBall { distance: D };
        // (target, guess ceiling): ceilings of 1 (only a distance-1
        // target admits one) and 2·D², and none.
        let settings = [
            (far, None),
            (far, Some(2 * D * D)),
            (near, None),
            (near, Some(1)),
            (near, Some(2 * D * D)),
        ];
        let mut runs = 0u32;
        for (name, make) in zoo_families() {
            for (placement, ceiling) in settings {
                let make = Arc::clone(&make);
                let mut b = Scenario::builder()
                    .agents(3)
                    .target(placement)
                    .move_budget(BUDGET)
                    .strategy(move |_| make());
                if let Some(c) = ceiling {
                    b = b.guess_move_ceiling(c);
                }
                let s = b.build();
                for seed in 0..2u64 {
                    let target = place_target(&s, seed);
                    for agent in 0..s.n_agents() {
                        // 40 is where a find of 41 moves published by
                        // an earlier chunk caps an agent.
                        for cap in [1, 40, BUDGET] {
                            let strided = run_agent(&s, seed, target, agent, cap);
                            let stepwise = run_agent_stepwise(&s, seed, target, agent, cap);
                            let case = format!(
                                "{name} {placement:?} ceiling {ceiling:?} seed {seed} \
                                 agent {agent} cap {cap}"
                            );
                            assert_eq!(strided, stepwise, "{case}");
                            runs += 1;
                        }
                    }
                }
            }
        }
        assert!(runs > 1_000, "{runs} cases");
    }

    /// The rewind path without thread races: every chunk runs unhinted
    /// (fully speculative, capped only by finds inside the chunk) and in
    /// reverse order, so the reduction must rewind every later-chunk agent
    /// that ran past its serial cap.
    #[test]
    fn unhinted_reverse_order_chunks_reduce_to_the_serial_trial() {
        let mut rewound = 0u32;
        for (name, make) in zoo_families() {
            for ceiling in [None, Some(32u64)] {
                let make = Arc::clone(&make);
                let mut b = Scenario::builder()
                    .agents(7)
                    .target(TargetPlacement::UniformInBall { distance: 4 })
                    .move_budget(400)
                    .strategy(move |_| make());
                if let Some(c) = ceiling {
                    b = b.guess_move_ceiling(c);
                }
                let s = b.build();
                for seed in 0..3u64 {
                    let reference = run_trial(&s, seed);
                    for chunk in 1..=3usize {
                        let plan = TrialPlan::new(&s, seed, chunk);
                        let mut chunks: Vec<ChunkRun> =
                            (0..plan.n_chunks()).rev().map(|c| plan.run_chunk(c)).collect();
                        chunks.reverse();
                        rewound += chunks[1..]
                            .iter()
                            .flat_map(|c| &c.agents)
                            .filter(|a| a.moves.is_none())
                            .count() as u32;
                        assert_eq!(
                            plan.reduce(&chunks),
                            reference,
                            "{name} ceiling {ceiling:?} seed {seed} chunk {chunk}"
                        );
                    }
                }
            }
        }
        assert!(rewound > 100, "only {rewound} speculative agents missed the target");
    }

    #[test]
    fn only_speculative_reductions_replay_agents() {
        let s = Scenario::builder()
            .agents(7)
            .target(TargetPlacement::UniformInBall { distance: 4 })
            .move_budget(400)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build();
        let (mut unhinted, mut canonical) = (0u64, 0u64);
        for seed in 0..3u64 {
            let plan = TrialPlan::new(&s, seed, 1);
            let chunks: Vec<ChunkRun> = (0..plan.n_chunks()).map(|c| plan.run_chunk(c)).collect();
            let (result, replayed) = plan.reduce_iter(chunks.iter());
            assert_eq!(result, run_trial(&s, seed));
            unhinted += replayed;
            // `TrialPlan::run`'s schedule: hinted chunks in canonical
            // order start every agent at its serial cap.
            let hint = plan.hint();
            let chunks: Vec<ChunkRun> =
                (0..plan.n_chunks()).map(|c| plan.run_chunk_hinted(c, &hint)).collect();
            canonical += plan.reduce_iter(chunks.iter()).1;
        }
        assert!(unhinted > 0, "unhinted chunks speculate past the serial caps");
        assert_eq!(canonical, 0, "a canonical-order run never rewinds");
    }

    #[test]
    fn hinted_agents_keep_the_cap_they_start_with() {
        let (mut clamped, mut broke) = (0u32, 0u32);
        let near = TargetPlacement::Fixed(Point::new(1, 0));
        for placement in [near, TargetPlacement::UniformInBall { distance: 4 }] {
            let s = Scenario::builder()
                .agents(8)
                .target(placement)
                .move_budget(400)
                .strategy(|_| Box::new(RandomWalk::new()))
                .build();
            for seed in 0..20u64 {
                let plan = TrialPlan::new(&s, seed, 4);
                let hint = plan.hint();
                let _ = plan.run_chunk_hinted(0, &hint);
                let hinted = hint.cap_for(1);
                let chunk = plan.run_chunk_hinted(1, &hint);
                let mut best: Option<u64> = None;
                for run in &chunk.agents {
                    let local = best.map_or(s.move_budget(), |m| m - 1);
                    assert_eq!(run.cap, local.min(hinted), "seed {seed}");
                    clamped += u32::from(hinted < local);
                    if let Some(m) = run.moves {
                        best = Some(m);
                    }
                }
                let truncated = chunk.len() < 4;
                broke += u32::from(truncated);
                assert_eq!(
                    chunk.hint_stats().polls,
                    chunk.len() as u64 + u64::from(truncated),
                    "seed {seed}: one read per agent start"
                );
            }
        }
        assert!(clamped > 0 && broke > 0, "{clamped} clamped starts, {broke} truncated chunks");
    }
}
