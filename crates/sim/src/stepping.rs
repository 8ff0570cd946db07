//! The shared agent-stepping core.
//!
//! Every way this workspace advances an agent — the capped trial engine
//! ([`crate::run_trial`] via `engine::run_agent`), the synchronous round
//! model ([`crate::RoundExecutor`]), and the observation layer
//! ([`crate::observe`], which also backs [`crate::coverage::measure`]) —
//! drives the same [`AgentStepper`]. One [`AgentStepper::step`] call is
//! one Markov transition of the paper's model, with the full engine
//! semantics folded in:
//!
//! 1. draw the action from the strategy (one RNG stream event);
//! 2. account moves (`M_moves`) and steps (`M_steps`), reset the
//!    per-guess move counter on `GridAction::Origin`;
//! 3. apply the action to the position;
//! 4. check the target (if one is configured);
//! 5. if the target was *not* just reached and the scenario's per-guess
//!    ceiling tripped, abort the excursion: sample the
//!    selection-complexity footprint, tell the strategy, teleport home.
//!
//! # Strides
//!
//! [`AgentStepper::stride`] runs many transitions behind one dynamic call
//! ([`SearchStrategy::advance`], whose default body calls the concrete
//! strategy's `step` and `is_halted` statically) and then checks the
//! target and the ceiling once. The capped trial engine drives agents
//! this way; observers and the round model, which need every position,
//! use [`AgentStepper::step`]. The two share one post-move routine
//! (steps 4–5 above), so the transition semantics live in one place.
//!
//! A stride ends after the first of: the `k`-th move, an `Origin`
//! action, or the strategy halting (polled before every step, exactly as
//! a per-step loop polls it), where
//!
//! `k = min(caller's move bound, L1 distance to the target,
//! ceiling − moves in the current guess)`.
//!
//! That is why checking only at the end is exact. An agent at L1
//! distance `d` from the target cannot stand on it after fewer than `d`
//! moves (steps that are not moves stay put, and an `Origin` ends the
//! stride), so only the stride's last transition can find it. Likewise
//! the per-guess counter can reach the ceiling only on that last move.
//! Every transition before it would have passed both checks without
//! effect.
//!
//! The RNG draw order is unchanged: `advance` makes exactly the `step`
//! calls a per-step loop would make, in the same order, and stops before
//! any step the per-step loop would not have taken. So a strided run
//! consumes the same random words and leaves the strategy in the same
//! state as the per-step run it replaces.
//!
//! Because the stepper is a pure function of its constructor inputs (the
//! strategy instance and the derived RNG stream), every caller that
//! builds identical steppers sees identical trajectories — this is what
//! makes the round model, the coverage measurements, and the chunked
//! trial engine agree step for step, and what lets observations reduce
//! across agent chunks byte-identically (see the determinism battery in
//! `crates/sim/tests/observers.rs`).

use crate::scenario::{Scenario, StrategyFactory};
use ants_core::{apply_action, GridAction, SearchStrategy, SelectionComplexity};
use ants_grid::Point;
use ants_rng::{derive_rng, DefaultRng};

/// What one [`AgentStepper::step`] did, for callers and observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The action the strategy emitted.
    pub action: GridAction,
    /// Was the action a move (`M_moves` event)?
    pub moved: bool,
    /// The position the action itself produced — before any
    /// ceiling-abort teleport. Coverage-style observers record this:
    /// it is the cell the agent physically reached.
    pub pos_after_move: Point,
    /// Is the agent standing on the target after this step? (Always
    /// `false` for steppers without a target.)
    pub found: bool,
    /// Did the per-guess ceiling abort the excursion on this step?
    pub aborted: bool,
}

/// One agent advanced one Markov transition at a time.
///
/// The stepper owns the strategy, the agent's derived RNG stream, and
/// all engine accounting (position, move/step counts, per-guess counter,
/// the running footprint max across guess aborts, and the first time the
/// agent stood on the target). It is deliberately oblivious to *why* it
/// is being stepped — move caps, round horizons, and observation
/// windows are caller policy.
///
/// The RNG stream is a [`DefaultRng`] drawn one word per transition.
pub struct AgentStepper {
    strategy: Box<dyn SearchStrategy>,
    rng: DefaultRng,
    pos: Point,
    moves: u64,
    steps: u64,
    guess_moves: u64,
    ceiling: Option<u64>,
    target: Option<Point>,
    /// Running max of the footprint sampled right before each guess
    /// abort (aborts may shrink a phase-based strategy's footprint).
    chi_aborts: SelectionComplexity,
    /// `(steps, moves)` at the first time the agent stood on the target.
    found_at: Option<(u64, u64)>,
}

impl AgentStepper {
    fn new(
        strategy: Box<dyn SearchStrategy>,
        rng: DefaultRng,
        target: Option<Point>,
        ceiling: Option<u64>,
    ) -> Self {
        Self {
            strategy,
            rng,
            pos: Point::ORIGIN,
            moves: 0,
            steps: 0,
            guess_moves: 0,
            ceiling,
            target,
            chi_aborts: SelectionComplexity::new(0, 0),
            found_at: None,
        }
    }

    /// A stepper for agent `agent_idx` of a scenario trial: the strategy
    /// comes from the scenario's population (seeded by the trial), the
    /// RNG stream is `derive_rng(trial_seed, agent_idx)`, and the
    /// scenario's guess ceiling applies. Pass `target = None` to run the
    /// agent target-blind (pure trajectory observation).
    pub fn for_scenario(
        scenario: &Scenario,
        trial_seed: u64,
        target: Option<Point>,
        agent_idx: usize,
    ) -> Self {
        Self::new(
            scenario.strategy_for(trial_seed, agent_idx),
            derive_rng(trial_seed, agent_idx as u64),
            target,
            scenario.guess_move_ceiling(),
        )
    }

    /// A stepper for a bare strategy factory (no scenario): stream
    /// `derive_rng(base_seed, agent_idx)`, no target, no ceiling — the
    /// [`crate::coverage::measure`] configuration.
    pub fn for_factory(factory: &StrategyFactory, base_seed: u64, agent_idx: usize) -> Self {
        Self::new(factory(agent_idx), derive_rng(base_seed, agent_idx as u64), None, None)
    }

    /// Advance one Markov transition (see the module docs for the exact
    /// sub-step order, which is part of the determinism contract).
    pub fn step(&mut self) -> StepOutcome {
        let action = self.strategy.step(&mut self.rng);
        self.steps += 1;
        let moved = action.is_move();
        if moved {
            self.moves += 1;
            self.guess_moves += 1;
        } else if action == GridAction::Origin {
            self.guess_moves = 0;
        }
        self.pos = apply_action(self.pos, action);
        let pos_after_move = self.pos;
        let (found, aborted) = self.settle();
        StepOutcome { action, moved, pos_after_move, found, aborted }
    }

    /// Advance one stride (see the module docs): the transitions of at
    /// most `max_moves` moves, further cut short so that only the
    /// stride's last move can reach the target or trip the guess ceiling.
    /// Returns whether the agent ended on the target.
    ///
    /// `max_moves` must be at least 1, and the agent must not be standing
    /// on the target.
    pub fn stride(&mut self, max_moves: u64) -> bool {
        let mut k = max_moves;
        if let Some(target) = self.target {
            k = k.min(self.pos.dist_l1(&target));
        }
        if let Some(ceiling) = self.ceiling {
            k = k.min(ceiling - self.guess_moves);
        }
        let s = self.strategy.advance(&mut self.rng, k);
        self.steps += s.steps;
        self.moves += s.moves;
        self.guess_moves = if s.ended_on_origin { 0 } else { self.guess_moves + s.moves };
        self.pos = s.apply(self.pos);
        self.settle().0
    }

    /// The post-move half of every transition, shared by
    /// [`AgentStepper::step`] and [`AgentStepper::stride`]: the target
    /// check, `found_at`, then the ceiling abort. Returns
    /// `(found, aborted)`.
    fn settle(&mut self) -> (bool, bool) {
        let found = self.target == Some(self.pos);
        if found && self.found_at.is_none() {
            self.found_at = Some((self.steps, self.moves));
        }
        // A transition that lands on the target ends the guess by
        // succeeding; the ceiling only aborts unfinished excursions.
        if found {
            return (true, false);
        }
        match self.ceiling {
            Some(ceiling) if self.guess_moves >= ceiling => {
                // Sample chi first — the default abort_guess is a full
                // reset, which may shrink a phase-based footprint.
                self.chi_aborts = self.chi_aborts.max(self.strategy.selection_complexity());
                self.strategy.abort_guess();
                self.pos = Point::ORIGIN;
                self.guess_moves = 0;
                (false, true)
            }
            _ => (false, false),
        }
    }

    /// Current position (after any abort teleport).
    pub fn pos(&self) -> Point {
        self.pos
    }

    /// Moves taken so far (`M_moves` accounting).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Steps taken so far (`M_steps` accounting).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `(steps, moves)` at the first time the agent stood on the target.
    pub fn found_at(&self) -> Option<(u64, u64)> {
        self.found_at
    }

    /// The selection-complexity footprint of the run so far: the running
    /// max across guess aborts, joined with the strategy's current
    /// footprint. Between aborts the footprint is monotone over an
    /// agent's lifetime, so this equals the true running max.
    pub fn chi(&self) -> SelectionComplexity {
        self.chi_aborts.max(self.strategy.selection_complexity())
    }

    /// Has the strategy permanently halted (e.g. a `mortal(...)` wrapper
    /// past its expiry)? Callers whose loop is bounded by *moves* must
    /// check this — a halted agent never moves again.
    pub fn halted(&self) -> bool {
        self.strategy.is_halted()
    }
}

impl std::fmt::Debug for AgentStepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentStepper")
            .field("strategy", &self.strategy.name())
            .field("pos", &self.pos)
            .field("moves", &self.moves)
            .field("steps", &self.steps)
            .field("found_at", &self.found_at)
            .finish_non_exhaustive()
    }
}

/// The trial's target placement: one draw from the reserved
/// [`crate::salts::TARGET_STREAM`] over the trial seed. Every consumer
/// of a trial (the chunked engine, the round model, the observation
/// layer) goes through this, so they agree on where the target is.
pub(crate) fn place_target(scenario: &Scenario, trial_seed: u64) -> Point {
    let mut target_rng = derive_rng(trial_seed, crate::salts::TARGET_STREAM);
    scenario.target().place(&mut target_rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_core::baselines::{RandomWalk, SpiralSearch};
    use ants_grid::TargetPlacement;

    fn spiral_scenario(n: usize, d: u64) -> Scenario {
        Scenario::builder()
            .agents(n)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(10_000)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build()
    }

    #[test]
    fn steps_accumulate_engine_accounting() {
        let s = spiral_scenario(1, 3);
        let target = place_target(&s, 1);
        let mut st = AgentStepper::for_scenario(&s, 1, Some(target), 0);
        assert_eq!(st.pos(), Point::ORIGIN);
        let mut found = false;
        for _ in 0..200 {
            let out = st.step();
            assert_eq!(out.pos_after_move, st.pos(), "no ceiling: positions agree");
            if out.found {
                found = true;
                break;
            }
        }
        assert!(found, "the spiral reaches the corner");
        let (steps, moves) = st.found_at().expect("found");
        assert_eq!(steps, st.steps());
        assert_eq!(moves, st.moves());
        assert!(moves <= steps);
    }

    #[test]
    fn identical_steppers_walk_identically() {
        let s = Scenario::builder()
            .agents(2)
            .target(TargetPlacement::UniformInBall { distance: 5 })
            .move_budget(1_000)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build();
        let mut a = AgentStepper::for_scenario(&s, 9, None, 1);
        let mut b = AgentStepper::for_scenario(&s, 9, None, 1);
        for _ in 0..300 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.pos(), b.pos());
        assert_eq!(a.chi(), b.chi());
    }

    #[test]
    fn ceiling_aborts_teleport_home() {
        // A ball target accepts any ceiling (a candidate sits one move
        // away); a reset-on-abort spiral under a 5-move ceiling then
        // loops the same tiny neighbourhood forever.
        let s = Scenario::builder()
            .agents(1)
            .target(TargetPlacement::UniformInBall { distance: 50 })
            .move_budget(10_000)
            .guess_move_ceiling(5)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build();
        let target = place_target(&s, 3);
        assert!(target.norm_max() > 3, "seed 3 places the target outside the spiral's loop");
        let mut st = AgentStepper::for_scenario(&s, 3, Some(target), 0);
        let mut aborts = 0;
        for _ in 0..50 {
            let out = st.step();
            if out.aborted {
                aborts += 1;
                assert_eq!(st.pos(), Point::ORIGIN, "abort must teleport home");
                assert_ne!(out.pos_after_move, Point::ORIGIN, "the move itself went somewhere");
            }
        }
        assert!(aborts >= 5, "a 5-move ceiling trips repeatedly, saw {aborts}");
    }
}
