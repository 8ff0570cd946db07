//! The step-wise agent interface.

use crate::selection::SelectionComplexity;
use ants_automaton::GridAction;
use ants_grid::Point;
use ants_rng::DefaultRng;

/// A search strategy: the behaviour of one agent, advanced one
/// Markov-chain transition at a time.
///
/// Semantics follow the paper's model (Section 2):
///
/// * each [`step`](SearchStrategy::step) call is one *step* (`M_steps`);
/// * a returned [`GridAction::Move`] is one *move* (`M_moves`);
/// * [`GridAction::Origin`] teleports the agent to the origin via the
///   return oracle (not counted as moves);
/// * [`GridAction::None`] is local computation.
///
/// Strategies are position-oblivious: the simulator owns the position
/// (apply actions with [`apply_action`]). Strategies that *internally*
/// track coordinates (e.g. spiral search) pay for it in declared memory —
/// that is precisely the selection-complexity accounting the paper makes.
///
/// The trait is object-safe; the simulator works with
/// `Box<dyn SearchStrategy>` so heterogeneous strategy zoos (experiment
/// E9) are possible.
pub trait SearchStrategy: Send {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Advance one step and return the action performed.
    fn step(&mut self, rng: &mut DefaultRng) -> GridAction;

    /// The current selection-complexity footprint `(b, ℓ)`.
    ///
    /// For phase-based algorithms this may grow over time (the uniform
    /// algorithm's counters widen as its distance estimate doubles); the
    /// value reported is the footprint of the *current* phase, and the
    /// simulator tracks the running maximum.
    fn selection_complexity(&self) -> SelectionComplexity;

    /// Restart from the initial state (new agent, fresh memory).
    fn reset(&mut self);

    /// Abandon the current origin-to-origin excursion ("guess").
    ///
    /// The simulator calls this when a scenario's per-guess move-budget
    /// ceiling trips (see `ScenarioBuilder::guess_move_ceiling` in
    /// `ants-sim`): the agent has been teleported home by the return
    /// oracle and should start its next attempt. Phase-based strategies
    /// override this to keep their phase progress; the default is a full
    /// [`reset`](SearchStrategy::reset), which is always model-legal (an
    /// agent may forget everything) and correct for memoryless baselines.
    fn abort_guess(&mut self) {
        self.reset();
    }

    /// Has the strategy permanently stopped acting (every future step
    /// returns [`GridAction::None`] without consuming randomness)?
    ///
    /// Finite-lifetime wrappers (`Mortal`, `Expiring`) override this so
    /// move-bounded simulation loops can stop instead of spinning on an
    /// agent that will never move again. [`reset`](SearchStrategy::reset)
    /// revives a halted strategy; [`abort_guess`](SearchStrategy::abort_guess)
    /// need not. The default — immortal strategies — is `false` forever.
    fn is_halted(&self) -> bool {
        false
    }

    /// Take [`step`](SearchStrategy::step)s until the first of: the
    /// `max_moves`-th move, an [`GridAction::Origin`], or
    /// [`is_halted`](SearchStrategy::is_halted) (polled before every
    /// step). `max_moves` must be at least 1.
    ///
    /// The default body is instantiated once per implementor, so `step`
    /// and `is_halted` are static calls inside it: a simulator holding a
    /// `Box<dyn SearchStrategy>` pays one dynamic call per stride instead
    /// of two per step. It is exactly repeated `step` calls — same
    /// actions, same RNG draws, same final strategy state.
    ///
    /// An implementor may override this only with a body that is
    /// draw-for-draw equivalent to the default: every golden and
    /// determinism test of the simulator relies on a stride being
    /// indistinguishable from the steps it replaces.
    fn advance(&mut self, rng: &mut DefaultRng, max_moves: u64) -> Stride {
        debug_assert!(max_moves >= 1, "empty stride");
        let mut s = Stride::default();
        while !self.is_halted() {
            let action = self.step(rng);
            s.steps += 1;
            match action {
                GridAction::Move(d) => {
                    let (dx, dy) = d.delta();
                    s.dx += dx;
                    s.dy += dy;
                    s.moves += 1;
                    if s.moves == max_moves {
                        break;
                    }
                }
                GridAction::Origin => {
                    s = Stride { dx: 0, dy: 0, ended_on_origin: true, ..s };
                    break;
                }
                GridAction::None => {}
            }
        }
        s
    }
}

/// What one [`SearchStrategy::advance`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct Stride {
    /// Net horizontal displacement of the stride's moves; zero when the
    /// stride ended on an `Origin` (the teleport erases the moves before
    /// it, and the stride stops there).
    pub dx: i64,
    /// Net vertical displacement, as `dx`.
    pub dy: i64,
    /// Moves taken (`M_moves` events), including any before an `Origin`.
    pub moves: u64,
    /// Steps taken (`M_steps` events).
    pub steps: u64,
    /// Did the stride end on an `Origin` action (the agent is home)?
    pub ended_on_origin: bool,
}

impl Stride {
    /// The position a stride started at `from` ends at.
    pub fn apply(&self, from: Point) -> Point {
        let base = if self.ended_on_origin { Point::ORIGIN } else { from };
        Point::new(base.x + self.dx, base.y + self.dy)
    }
}

/// Apply a strategy's action to a position, per the model's semantics.
///
/// ```
/// use ants_core::apply_action;
/// use ants_automaton::GridAction;
/// use ants_grid::{Direction, Point};
///
/// let p = apply_action(Point::ORIGIN, GridAction::Move(Direction::Up));
/// assert_eq!(p, Point::new(0, 1));
/// assert_eq!(apply_action(p, GridAction::Origin), Point::ORIGIN);
/// assert_eq!(apply_action(p, GridAction::None), p);
/// ```
pub fn apply_action(pos: Point, action: GridAction) -> Point {
    match action {
        GridAction::Move(d) => pos.step(d),
        GridAction::Origin => Point::ORIGIN,
        GridAction::None => pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_grid::Direction;

    #[test]
    fn apply_action_semantics() {
        let p = Point::new(2, 3);
        assert_eq!(apply_action(p, GridAction::Move(Direction::Left)), Point::new(1, 3));
        assert_eq!(apply_action(p, GridAction::Origin), Point::ORIGIN);
        assert_eq!(apply_action(p, GridAction::None), p);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_: Box<dyn SearchStrategy>) {}
    }

    #[test]
    fn default_abort_guess_is_a_reset() {
        struct Dummy {
            resets: u32,
        }
        impl SearchStrategy for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn step(&mut self, _rng: &mut DefaultRng) -> GridAction {
                GridAction::None
            }
            fn selection_complexity(&self) -> SelectionComplexity {
                SelectionComplexity::new(0, 0)
            }
            fn reset(&mut self) {
                self.resets += 1;
            }
        }
        let mut d = Dummy { resets: 0 };
        d.abort_guess();
        assert_eq!(d.resets, 1, "default abort_guess must delegate to reset");
    }

    /// Plays a fixed action script, then `None` forever.
    struct Script(Vec<GridAction>);

    impl SearchStrategy for Script {
        fn name(&self) -> &'static str {
            "script"
        }
        fn step(&mut self, _rng: &mut DefaultRng) -> GridAction {
            if self.0.is_empty() {
                GridAction::None
            } else {
                self.0.remove(0)
            }
        }
        fn selection_complexity(&self) -> SelectionComplexity {
            SelectionComplexity::new(0, 0)
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn advance_stops_at_each_bound() {
        use GridAction::{Move, None as Stay, Origin};
        let (up, right) = (Move(Direction::Up), Move(Direction::Right));
        let mut rng = ants_rng::derive_rng(0, 0);
        let mut s = Script(vec![up, Stay, right, Origin, right, up, Stay, Stay, up]);
        // Ends right after the Origin; the moves before it still count.
        let a = s.advance(&mut rng, 10);
        assert_eq!(a, Stride { dx: 0, dy: 0, moves: 2, steps: 4, ended_on_origin: true });
        assert_eq!(a.apply(Point::new(7, 7)), Point::ORIGIN);
        // Ends on the max_moves-th move, before the steps that follow it.
        let b = s.advance(&mut rng, 2);
        assert_eq!(b, Stride { dx: 1, dy: 1, moves: 2, steps: 2, ended_on_origin: false });
        assert_eq!(b.apply(Point::new(2, 3)), Point::new(3, 4));
        // Steps that are not moves count as steps only.
        let c = s.advance(&mut rng, 1);
        assert_eq!((c.moves, c.steps, c.dy), (1, 3, 1));
    }
}
