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
/// chunked trial performs the serial engine's work almost exactly.
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

/// How many steps a hinted agent runs between polls of the shared cap
/// hint. Polling is one relaxed atomic load; 64 steps keeps even that off
/// the hot path while bounding post-publish overshoot to a rounding
/// error.
const HINT_POLL_MASK: u64 = 0x3F;

/// Chi-footprint breakpoints for a whole chunk, stored as one packed
/// arena instead of a `Vec` per agent.
///
/// Speculative chunks record `(moves, running-max footprint)` breakpoints
/// so the reduction can rewind each agent to its serial stop. Per-agent
/// `Vec`s made that one heap allocation per agent on the hot path; the
/// arena appends every agent's breakpoints to two chunk-level parallel
/// arrays (structure-of-arrays, with the footprint bit-packed into a
/// single word) and hands each agent a `(start, end)` span. Lookups
/// binary-search the span — breakpoint move counts are strictly
/// increasing within it.
#[derive(Debug, Clone, Default)]
struct ChiArena {
    /// Breakpoint move counts, strictly increasing within each span.
    moves: Vec<u64>,
    /// The running-max footprint at each breakpoint, packed
    /// `memory_bits << 32 | ell`.
    packed: Vec<u64>,
}

impl ChiArena {
    fn mark(&self) -> u32 {
        debug_assert!(self.moves.len() <= u32::MAX as usize);
        self.moves.len() as u32
    }

    fn push(&mut self, moves: u64, chi: SelectionComplexity) {
        self.moves.push(moves);
        self.packed.push((u64::from(chi.memory_bits()) << 32) | u64::from(chi.ell()));
    }

    /// The last recorded footprint in `span` at or below `cap` moves, or
    /// `None` when the span holds no breakpoint that early.
    fn chi_at(&self, span: (u32, u32), cap: u64) -> Option<SelectionComplexity> {
        let (start, end) = (span.0 as usize, span.1 as usize);
        let idx = self.moves[start..end].partition_point(|&m| m <= cap);
        idx.checked_sub(1).map(|i| {
            let packed = self.packed[start + i];
            SelectionComplexity::new((packed >> 32) as u32, packed as u32)
        })
    }
}

/// One agent simulated under an explicit move cap.
///
/// Pure in `(scenario, trial_seed, agent index, cap)`: the agent's RNG
/// stream is derived directly from the trial seed and its index, so the
/// run is identical no matter which chunk (or thread) executes it. A
/// shared [`CapHint`] may lower `cap` mid-run; that only moves the stop
/// point between the serial stop and the unhinted speculative stop, which
/// the reduction treats identically.
#[derive(Debug, Clone)]
struct AgentRun {
    /// The cap this agent ran with (always >= 1; a chunk truncates when
    /// its local cap reaches zero). A mid-run hint records the lowered
    /// cap — still never below the serial cap.
    cap: u64,
    /// Moves until the target, if found within `cap`.
    moves: Option<u64>,
    /// Steps until the target, for the same stop.
    steps: Option<u64>,
    /// Steps actually simulated (work instrumentation; timing-dependent
    /// under a live hint, never part of a [`TrialResult`]).
    work: u64,
    /// Shared-hint reads performed during the run (telemetry only).
    hint_polls: u64,
    /// Mid-run cap reductions taken from the hint (telemetry only).
    hint_clamps: u64,
    /// Running-max selection-complexity footprint at the agent's stop.
    chi: SelectionComplexity,
    /// This agent's breakpoint span in the chunk's [`ChiArena`],
    /// recorded only for speculative chunks (chunk index > 0). The
    /// reduction evaluates the footprint at any cap at or below the
    /// speculative stop without re-simulating. Empty (`start == end`)
    /// when tracking was off — chunk 0 runs with the exact serial caps —
    /// when the strategy declares a static footprint, or when the agent
    /// never moved (in each case `chi` is exact at every cap).
    curve: (u32, u32),
}

/// Simulate one agent until it finds `target`, exhausts `cap` moves, or
/// (with a guess ceiling) keeps aborting overlong excursions.
///
/// This drives the shared stepping core ([`AgentStepper`] owns the
/// transition semantics: action draw, move/step accounting, target
/// check, ceiling abort) under the engine's cap policy. With an `arena`
/// the running-max footprint is snapshotted after every completed move
/// (including that move's abort processing), producing the breakpoint
/// span [`ChiArena::chi_at`] evaluates. With a `hint`, the cap is
/// periodically lowered toward finds published by earlier chunks — never
/// below what the agent has already run, and never below the serial cap.
fn run_agent(
    scenario: &Scenario,
    trial_seed: u64,
    target: Point,
    agent_idx: usize,
    mut cap: u64,
    arena: Option<&mut ChiArena>,
    hint: Option<(&CapHint, usize)>,
) -> AgentRun {
    debug_assert!(cap > 0, "callers skip capped-out agents");
    let mut stepper = AgentStepper::for_scenario(scenario, trial_seed, Some(target), agent_idx);
    // A static footprint needs no breakpoint curve: the empty span makes
    // the reduction fall back to `run.chi`, which is exact at every cap.
    // This skips the per-move footprint sampling for fixed automata and
    // fixed-parameter walks — the bulk of speculative-chunk overhead.
    let mut arena = arena.filter(|_| !stepper.chi_static());
    let start = arena.as_deref().map_or(0, ChiArena::mark);
    let mut last_chi: Option<SelectionComplexity> = None;
    let mut found = false;
    let mut hint_polls = 0u64;
    let mut hint_clamps = 0u64;
    // A target is "found" when the agent's position coincides with it;
    // the origin case is excluded by TargetPlacement's invariants. The
    // loop is bounded by moves, so a permanently halted strategy (a
    // mortal wrapper past its expiry never moves again) must break out
    // explicitly.
    while stepper.moves() < cap && !stepper.halted() {
        if let Some((h, chunk_idx)) = hint {
            if stepper.steps() & HINT_POLL_MASK == 0 {
                hint_polls += 1;
                let hinted = h.cap_for(chunk_idx);
                if hinted < cap {
                    // Lower toward the published find, but never below
                    // the moves already simulated: the recorded stop must
                    // be where the loop actually halted.
                    cap = hinted.max(stepper.moves());
                    hint_clamps += 1;
                }
            }
        }
        let out = stepper.step();
        if out.found {
            found = true;
            break;
        }
        if out.moved {
            if let Some(a) = arena.as_deref_mut() {
                let at = stepper.chi();
                if last_chi != Some(at) {
                    a.push(stepper.moves(), at);
                    last_chi = Some(at);
                }
            }
        }
    }
    // Between aborts the selection-complexity footprint is monotone over
    // an agent's lifetime (static for fixed automata, non-decreasing for
    // phase-based strategies whose counters widen), so the stepper's
    // final sample — plus its sample before each abort — captures the
    // run's maximum.
    let end = arena.map_or(start, |a| a.mark());
    AgentRun {
        cap,
        moves: found.then(|| stepper.moves()),
        steps: found.then(|| stepper.steps()),
        work: stepper.steps(),
        hint_polls,
        hint_clamps,
        chi: stepper.chi(),
        curve: (start, end),
    }
}

/// Aggregated [`CapHint`] effectiveness counters for one chunk run —
/// telemetry only, never part of a [`TrialResult`]. Poll and clamp
/// counts are exact; `moves_saved` is a conservative lower bound on the
/// speculative work the hint cut off (each saved move is at least one
/// saved step), timing-dependent under concurrent workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintStats {
    /// Shared-hint reads (one per agent start plus periodic in-run polls).
    pub polls: u64,
    /// Cap reductions taken from the hint (at agent start or mid-run).
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
    /// Footprint breakpoints for every tracked agent in the chunk (see
    /// [`ChiArena`]); empty for chunk 0.
    curve: ChiArena,
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

    /// The footprint the serial engine would report had agent `offset`
    /// (chunk-relative) been stopped at `cap` moves (`cap` at most the
    /// recorded stop).
    ///
    /// Valid because the tracked running max is monotone in the move
    /// count: footprints are non-decreasing between guess aborts, and the
    /// footprint right before each abort is folded in when it happens. An
    /// agent with no breakpoints never moved, so its final footprint is
    /// exact at every cap.
    fn chi_at(&self, offset: usize, cap: u64) -> SelectionComplexity {
        let run = &self.agents[offset];
        self.curve.chi_at(run.curve, cap).unwrap_or(if run.curve.0 == run.curve.1 {
            // No curve recorded: tracking was off, the footprint is
            // static, or the agent never moved — in each case `chi` is
            // exact at every cap.
            run.chi
        } else {
            // Breakpoints exist but all lie past `cap`: the footprint at
            // `cap` predates the first move, i.e. the birth footprint —
            // unreachable in practice because the first move (moves = 1,
            // with the birth footprint already folded into the running
            // max) is always a breakpoint and `cap >= 1`.
            SelectionComplexity::new(0, 0)
        })
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
///   shared [`CapHint`] but never below it), and record running-max
///   footprint breakpoints per move; the reduction evaluates each agent's
///   footprint at its exact serial stop via `ChunkRun::chi_at`. Chunk
///   0's local caps equal the serial caps, so it skips tracking entirely
///   — a single-chunk plan is the serial engine, unchanged.
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
    /// `hint` (finds published by earlier chunks — read before every
    /// agent and polled during long runs) and publishing this chunk's own
    /// finds for later chunks.
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
        // Chunk 0's local caps coincide with the serial caps, so its chi
        // values are exact as-is (and no hint can lower them: it only
        // carries finds by *earlier* chunks); later chunks speculate and
        // must track the footprint curve for the reduction to rewind.
        let track = chunk_idx > 0;
        let target = self.place_target();
        let budget = self.scenario.move_budget();
        let mut best: Option<u64> = None;
        let mut agents = Vec::with_capacity(end - first_agent);
        let mut curve = ChiArena::default();
        let mut stats = HintStats::default();
        // Mid-run polling is pointless for chunk 0 (its hinted cap is
        // always u64::MAX), so only speculative chunks pay for it.
        let poll = hint.filter(|_| track).map(|h| (h, chunk_idx));
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
            let arena = track.then_some(&mut curve);
            let run =
                run_agent(self.scenario, self.trial_seed, target, agent_idx, cap, arena, poll);
            stats.polls += run.hint_polls;
            stats.clamps += run.hint_clamps;
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
        ChunkRun { first_agent, agents, curve, hint: stats }
    }

    /// Reduce chunk results in canonical agent order into the trial's
    /// [`TrialResult`], byte-identical to the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if the chunks are not exactly this plan's chunks in order.
    pub fn reduce(&self, chunks: &[ChunkRun]) -> TrialResult {
        self.reduce_iter(chunks.iter())
    }

    pub(crate) fn reduce_iter<'c>(
        &self,
        chunks: impl Iterator<Item = &'c ChunkRun>,
    ) -> TrialResult {
        let target = self.place_target();
        let budget = self.scenario.move_budget();
        let mut best: Option<(u64, u64, usize)> = None; // (moves, steps, agent)
        let mut chi = SelectionComplexity::new(0, 0);
        let mut consumed = 0usize;
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
                        // `run.cap > cap`); rewind the tracked footprint
                        // curve to the serial stop.
                        debug_assert!(run.cap > cap, "chunk cap below the serial cap");
                        chi = chi.max(chunk.chi_at(offset, cap));
                    }
                }
            }
        }
        assert!(
            best.is_some_and(|(m, _, _)| m == 1) || consumed == self.scenario.n_agents(),
            "reduction consumed {consumed} of {} agents",
            self.scenario.n_agents()
        );
        TrialResult {
            target,
            moves: best.map(|(m, _, _)| m),
            steps: best.map(|(_, s, _)| s),
            winner: best.map(|(_, _, a)| a),
            chi_footprint: chi,
        }
    }

    /// Run every chunk on the calling thread and reduce.
    ///
    /// Chunks share a [`CapHint`] and run in canonical order, so every
    /// chunk sees the finds of all earlier ones and the plan performs the
    /// serial engine's work (up to hint-poll granularity) at any chunk
    /// size — the speculation tax only exists across concurrent workers.
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
    use ants_core::baselines::{RandomWalk, SpiralSearch};
    use ants_core::NonUniformSearch;
    use ants_grid::TargetPlacement;

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
}
