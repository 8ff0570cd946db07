//! The observation layer: pluggable, deterministic observers over the
//! shared stepping core.
//!
//! The paper's lower bound (Theorem 4.1) is stated in the currency of
//! *joint coverage per round*; its upper bounds in first-hit times. Both
//! are trajectory observations, not trial minima — so they used to need
//! side-channel loops (`RoundExecutor`, the old `coverage::measure`)
//! that could never flow through the sweep pool. This module makes
//! observation a first-class run mode:
//!
//! * an [`ObserverSpec`] names what to watch ([`ObserverSpec::FirstFinder`],
//!   [`ObserverSpec::ChiFootprint`], [`ObserverSpec::JointCoverage`],
//!   [`ObserverSpec::FirstVisitTimes`], [`ObserverSpec::RoundTrace`]);
//! * an observed run advances every agent of a trial for a fixed
//!   *round horizon* (one round = one Markov transition per agent) on
//!   the stepping core ([`AgentStepper`]), feeding each observer;
//! * every observer's accumulated [`Observation`] declares a canonical
//!   [`Observation::merge`], so observations over *agent chunks* reduce
//!   exactly like trial results do in the engine — byte-identical at
//!   every thread count, granularity, and chunk size (each merge is
//!   associative and commutative over disjoint agent sets, and the
//!   scheduler merges in canonical chunk order anyway).
//!
//! Unlike the capped trial engine, an observed run never applies the
//! early-cap rule: every agent runs the full horizon (or until its
//! strategy halts), because coverage-style quantities are defined over
//! *all* trajectories, and a cap that depends on sibling agents would
//! break chunk invariance. [`crate::run_observed_sweep`] schedules
//! observed trials across the shared pool; [`crate::coverage::measure`]
//! and [`crate::RoundExecutor`] are thin wrappers over the same core.

use crate::scenario::{Scenario, StrategyFactory};
use crate::stepping::{place_target, AgentStepper, StepOutcome};
use ants_core::SelectionComplexity;
use ants_grid::{DenseGrid, Point, Rect};

/// A named observation mode — the vocabulary shared by the workload
/// spec key `metrics = [...]`, the `--metrics` CLI flag, and the bench
/// report columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Joint visited-cell coverage of the measurement bounds.
    Coverage,
    /// Per-cell first-visit rounds.
    FirstVisit,
    /// Coverage growth sampled along the round axis.
    RoundTrace,
    /// Running-max selection-complexity footprint of the observed run.
    Chi,
    /// First round any agent stood on the target.
    FoundRound,
}

impl Metric {
    /// Every metric, in canonical (spec/column) order.
    pub const ALL: [Metric; 5] =
        [Metric::Coverage, Metric::FirstVisit, Metric::RoundTrace, Metric::Chi, Metric::FoundRound];

    /// Stable lowercase name (spec files and `--metrics`).
    pub fn as_str(self) -> &'static str {
        match self {
            Metric::Coverage => "coverage",
            Metric::FirstVisit => "first_visit",
            Metric::RoundTrace => "round_trace",
            Metric::Chi => "chi",
            Metric::FoundRound => "found_round",
        }
    }

    /// Parse a metric name.
    pub fn parse(s: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.as_str() == s)
    }
}

/// A set of [`Metric`]s — copyable, so run configurations stay `Copy`.
///
/// Iteration order is the canonical [`Metric::ALL`] order regardless of
/// insertion order, which is what keeps report columns stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricSet {
    bits: u8,
}

impl MetricSet {
    /// The empty set.
    pub fn empty() -> MetricSet {
        MetricSet::default()
    }

    /// Insert a metric.
    pub fn insert(&mut self, m: Metric) {
        self.bits |= 1 << m as u8;
    }

    /// Does the set contain `m`?
    pub fn contains(self, m: Metric) -> bool {
        self.bits & (1 << m as u8) != 0
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// The union of two sets.
    pub fn union(self, other: MetricSet) -> MetricSet {
        MetricSet { bits: self.bits | other.bits }
    }

    /// The metrics in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Metric> {
        Metric::ALL.into_iter().filter(move |&m| self.contains(m))
    }

    /// Parse a comma-separated metric list (the `--metrics` flag).
    ///
    /// # Errors
    ///
    /// Returns the offending name, with the allowed vocabulary.
    pub fn parse_list(text: &str) -> Result<MetricSet, String> {
        let mut set = MetricSet::empty();
        for name in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let m = Metric::parse(name).ok_or_else(|| {
                format!(
                    "unknown metric '{name}' (allowed: {})",
                    Metric::ALL.map(Metric::as_str).join(", ")
                )
            })?;
            set.insert(m);
        }
        Ok(set)
    }
}

/// What to observe over one trial's agents.
///
/// Specs carry their own geometry (bounds, stride) so an observation run
/// is a pure function of `(scenario, trial_seed, horizon, specs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverSpec {
    /// First `(round, moves, agent)` at which any agent stood on the
    /// trial's target (ties broken by the lower agent index — the
    /// canonical order the serial engine walks agents in).
    FirstFinder,
    /// Running-max selection-complexity footprint over all observed
    /// agents and rounds.
    ChiFootprint,
    /// Joint visit counts of all agents within `bounds` (Theorem 4.1's
    /// `o(D²)` quantity; visits outside the bounds are tallied, not
    /// dropped).
    JointCoverage {
        /// The measured region, usually `Rect::ball(D)`.
        bounds: Rect,
    },
    /// The first round each cell of `bounds` was visited (spawn counts
    /// as round 0 for the origin).
    FirstVisitTimes {
        /// The measured region.
        bounds: Rect,
    },
    /// Coverage growth along the round axis: how many cells of `bounds`
    /// were covered by round `stride`, `2·stride`, … (derived from
    /// first-visit times, so it merges across chunks exactly).
    RoundTrace {
        /// The measured region.
        bounds: Rect,
        /// Sampling stride in rounds (clamped to >= 1).
        stride: u64,
    },
}

impl ObserverSpec {
    /// A fresh accumulator for a run with the given round horizon.
    pub fn fresh(&self, horizon: u64) -> Observation {
        match *self {
            ObserverSpec::FirstFinder => Observation::FirstFinder(None),
            ObserverSpec::ChiFootprint => Observation::ChiFootprint(SelectionComplexity::new(0, 0)),
            ObserverSpec::JointCoverage { bounds } => {
                Observation::JointCoverage(DenseGrid::new(bounds))
            }
            ObserverSpec::FirstVisitTimes { bounds } => {
                Observation::FirstVisitTimes(FirstVisitGrid::new(bounds))
            }
            ObserverSpec::RoundTrace { bounds, stride } => Observation::RoundTrace {
                grid: FirstVisitGrid::new(bounds),
                stride: stride.max(1),
                horizon,
            },
        }
    }
}

/// The first time any observed agent stood on the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstFind {
    /// The round (= the finding agent's step count) of the find.
    pub round: u64,
    /// The finding agent's move count at the find.
    pub moves: u64,
    /// The finding agent's index.
    pub agent: usize,
}

impl FirstFind {
    /// Canonical order: earlier round first, lower agent index on ties —
    /// exactly the order the serial engine would report.
    fn beats(&self, other: &FirstFind) -> bool {
        (self.round, self.agent) < (other.round, other.agent)
    }
}

/// A dense per-cell first-visit-round grid over a bounded rectangle.
///
/// `u64::MAX` encodes "never visited"; the merge is a per-cell minimum,
/// which is what makes first-visit observations reduce across agent
/// chunks in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstVisitGrid {
    bounds: Rect,
    rounds: Vec<u64>,
}

impl FirstVisitGrid {
    const NEVER: u64 = u64::MAX;

    /// An empty grid over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle has more than `2^32` cells (same guard as
    /// [`DenseGrid`]).
    pub fn new(bounds: Rect) -> Self {
        let area = bounds.area();
        assert!(area <= u32::MAX as u64, "first-visit grid of {area} cells is too large");
        Self { bounds, rounds: vec![Self::NEVER; area as usize] }
    }

    fn index(&self, p: &Point) -> Option<usize> {
        if !self.bounds.contains(p) {
            return None;
        }
        let (x_min, _) = self.bounds.x_range();
        let (y_min, _) = self.bounds.y_range();
        let col = (p.x - x_min) as u64;
        let row = (p.y - y_min) as u64;
        Some((row * self.bounds.width() + col) as usize)
    }

    fn record(&mut self, p: &Point, round: u64) {
        if let Some(i) = self.index(p) {
            if round < self.rounds[i] {
                self.rounds[i] = round;
            }
        }
    }

    /// The grid's bounds.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The first round `p` was visited (`None` if never, or outside the
    /// bounds).
    pub fn first_visit(&self, p: &Point) -> Option<u64> {
        self.index(p).and_then(|i| (self.rounds[i] != Self::NEVER).then_some(self.rounds[i]))
    }

    /// Number of cells visited at least once.
    pub fn visited(&self) -> usize {
        self.rounds.iter().filter(|&&r| r != Self::NEVER).count()
    }

    /// Number of cells first visited at or before `round`.
    pub fn visited_by(&self, round: u64) -> usize {
        self.rounds.iter().filter(|&&r| r <= round).count()
    }

    /// Mean first-visit round over visited cells (`None` when nothing
    /// was visited).
    pub fn mean_first_visit(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &r in &self.rounds {
            if r != Self::NEVER {
                sum += r as f64;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Per-cell minimum merge.
    ///
    /// # Panics
    ///
    /// Panics if the bounds differ.
    pub fn merge(&mut self, other: &FirstVisitGrid) {
        assert_eq!(self.bounds, other.bounds, "bounds mismatch in FirstVisitGrid::merge");
        for (a, &b) in self.rounds.iter_mut().zip(&other.rounds) {
            *a = (*a).min(b);
        }
    }
}

/// An observer's accumulated state — produce with [`ObserverSpec::fresh`],
/// feed through an observed run, combine with [`Observation::merge`].
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// See [`ObserverSpec::FirstFinder`].
    FirstFinder(Option<FirstFind>),
    /// See [`ObserverSpec::ChiFootprint`].
    ChiFootprint(SelectionComplexity),
    /// See [`ObserverSpec::JointCoverage`].
    JointCoverage(DenseGrid),
    /// See [`ObserverSpec::FirstVisitTimes`].
    FirstVisitTimes(FirstVisitGrid),
    /// See [`ObserverSpec::RoundTrace`].
    RoundTrace {
        /// First-visit times backing the trace.
        grid: FirstVisitGrid,
        /// Sampling stride in rounds.
        stride: u64,
        /// The run's round horizon.
        horizon: u64,
    },
}

impl Observation {
    /// An agent spawned at `pos` (round 0).
    fn on_spawn(&mut self, _agent: usize, pos: Point) {
        match self {
            Observation::JointCoverage(grid) => {
                grid.visit(&pos);
            }
            Observation::FirstVisitTimes(grid) | Observation::RoundTrace { grid, .. } => {
                grid.record(&pos, 0);
            }
            Observation::FirstFinder(_) | Observation::ChiFootprint(_) => {}
        }
    }

    /// An agent completed `round` with `out`.
    fn on_step(&mut self, _agent: usize, round: u64, out: &StepOutcome) {
        match self {
            Observation::JointCoverage(grid) => {
                if out.moved {
                    grid.visit(&out.pos_after_move);
                }
            }
            Observation::FirstVisitTimes(grid) | Observation::RoundTrace { grid, .. } => {
                if out.moved {
                    grid.record(&out.pos_after_move, round);
                }
            }
            Observation::FirstFinder(_) | Observation::ChiFootprint(_) => {}
        }
    }

    /// An agent finished its horizon; fold its run summary in.
    fn on_agent_done(
        &mut self,
        agent: usize,
        chi: SelectionComplexity,
        found_at: Option<(u64, u64)>,
    ) {
        match self {
            Observation::FirstFinder(best) => {
                if let Some((round, moves)) = found_at {
                    let cand = FirstFind { round, moves, agent };
                    if best.is_none_or(|b| cand.beats(&b)) {
                        *best = Some(cand);
                    }
                }
            }
            Observation::ChiFootprint(acc) => *acc = acc.max(chi),
            Observation::JointCoverage(_)
            | Observation::FirstVisitTimes(_)
            | Observation::RoundTrace { .. } => {}
        }
    }

    /// Canonical merge of two accumulations over disjoint agent sets.
    ///
    /// Every arm is associative and commutative (min, max, count sums,
    /// per-cell minima), so chunked and single-pass runs agree exactly.
    ///
    /// # Panics
    ///
    /// Panics if the observation kinds (or their geometry) differ.
    pub fn merge(&mut self, other: &Observation) {
        match (self, other) {
            (Observation::FirstFinder(a), Observation::FirstFinder(b)) => {
                if let Some(cand) = b {
                    if a.is_none_or(|best| cand.beats(&best)) {
                        *a = Some(*cand);
                    }
                }
            }
            (Observation::ChiFootprint(a), Observation::ChiFootprint(b)) => *a = a.max(*b),
            (Observation::JointCoverage(a), Observation::JointCoverage(b)) => a.merge(b),
            (Observation::FirstVisitTimes(a), Observation::FirstVisitTimes(b)) => a.merge(b),
            (
                Observation::RoundTrace { grid: a, stride: sa, horizon: ha },
                Observation::RoundTrace { grid: b, stride: sb, horizon: hb },
            ) => {
                assert_eq!((*sa, *ha), (*sb, *hb), "round-trace geometry mismatch");
                a.merge(b);
            }
            _ => panic!("observation kind mismatch in merge"),
        }
    }

    /// The first find, for [`ObserverSpec::FirstFinder`] observations.
    pub fn as_first_find(&self) -> Option<FirstFind> {
        match self {
            Observation::FirstFinder(f) => *f,
            _ => panic!("not a FirstFinder observation"),
        }
    }

    /// The footprint, for [`ObserverSpec::ChiFootprint`] observations.
    pub fn as_chi(&self) -> SelectionComplexity {
        match self {
            Observation::ChiFootprint(c) => *c,
            _ => panic!("not a ChiFootprint observation"),
        }
    }

    /// The joint-coverage grid, for [`ObserverSpec::JointCoverage`].
    pub fn as_coverage(&self) -> &DenseGrid {
        match self {
            Observation::JointCoverage(g) => g,
            _ => panic!("not a JointCoverage observation"),
        }
    }

    /// The first-visit grid, for [`ObserverSpec::FirstVisitTimes`] and
    /// [`ObserverSpec::RoundTrace`].
    pub fn as_first_visit(&self) -> &FirstVisitGrid {
        match self {
            Observation::FirstVisitTimes(g) | Observation::RoundTrace { grid: g, .. } => g,
            _ => panic!("not a first-visit-backed observation"),
        }
    }

    /// The coverage trace `(round, cells covered)` at `stride`
    /// multiples, always ending with a sample at the horizon.
    pub fn trace(&self) -> Vec<(u64, usize)> {
        match self {
            Observation::RoundTrace { grid, stride, horizon } => {
                let mut samples = Vec::new();
                let mut r = *stride;
                while r < *horizon {
                    samples.push((r, grid.visited_by(r)));
                    r += *stride;
                }
                samples.push((*horizon, grid.visited_by(*horizon)));
                samples
            }
            _ => panic!("not a RoundTrace observation"),
        }
    }
}

/// The observations of one trial (or one agent chunk of a trial): one
/// [`Observation`] per requested [`ObserverSpec`], in spec order.
pub type TrialObservations = Vec<Observation>;

/// Observe a contiguous agent range of one trial for `horizon` rounds.
///
/// Pure in `(scenario, trial_seed, horizon, specs, range)` — the chunk
/// can run on any thread, in any order, and merging chunk observations
/// in any order reproduces [`observe_trial`] exactly.
pub(crate) fn observe_chunk(
    scenario: &Scenario,
    trial_seed: u64,
    horizon: u64,
    specs: &[ObserverSpec],
    first_agent: usize,
    end: usize,
) -> TrialObservations {
    let target = place_target(scenario, trial_seed);
    observe_agents(
        specs,
        horizon,
        (first_agent..end)
            .map(|a| (a, AgentStepper::for_scenario(scenario, trial_seed, Some(target), a))),
    )
}

/// Observe all agents of one trial for `horizon` rounds.
///
/// The serial reference the chunked/pooled paths must agree with.
pub fn observe_trial(
    scenario: &Scenario,
    trial_seed: u64,
    horizon: u64,
    specs: &[ObserverSpec],
) -> TrialObservations {
    observe_chunk(scenario, trial_seed, horizon, specs, 0, scenario.n_agents())
}

/// Observe `n_agents` instances of a bare strategy factory for `horizon`
/// rounds each (no scenario, no target, no ceiling; streams
/// `derive_rng(base_seed, agent)`).
///
/// This is the configuration behind [`crate::coverage::measure`] and the
/// `analysis` crate's coverage comparisons.
pub fn observe_factory(
    factory: &StrategyFactory,
    n_agents: usize,
    horizon: u64,
    specs: &[ObserverSpec],
    base_seed: u64,
) -> TrialObservations {
    observe_agents(
        specs,
        horizon,
        (0..n_agents).map(|a| (a, AgentStepper::for_factory(factory, base_seed, a))),
    )
}

/// The shared observation loop: spawn each agent, run it for the
/// horizon (or until its strategy halts), fold its summary in.
fn observe_agents(
    specs: &[ObserverSpec],
    horizon: u64,
    steppers: impl Iterator<Item = (usize, AgentStepper)>,
) -> TrialObservations {
    let mut obs: TrialObservations = specs.iter().map(|s| s.fresh(horizon)).collect();
    for (agent, mut st) in steppers {
        for o in &mut obs {
            o.on_spawn(agent, st.pos());
        }
        for round in 1..=horizon {
            if st.halted() {
                // A halted strategy emits GridAction::None forever:
                // nothing left to observe.
                break;
            }
            let out = st.step();
            for o in &mut obs {
                o.on_step(agent, round, &out);
            }
        }
        for o in &mut obs {
            o.on_agent_done(agent, st.chi(), st.found_at());
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_core::baselines::{RandomWalk, SpiralSearch};
    use ants_grid::TargetPlacement;

    fn walkers(n: usize, d: u64) -> Scenario {
        Scenario::builder()
            .agents(n)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(100_000)
            .strategy(|_| Box::new(RandomWalk::new()))
            .build()
    }

    fn all_specs(d: u64) -> Vec<ObserverSpec> {
        let bounds = Rect::ball(d);
        vec![
            ObserverSpec::FirstFinder,
            ObserverSpec::ChiFootprint,
            ObserverSpec::JointCoverage { bounds },
            ObserverSpec::FirstVisitTimes { bounds },
            ObserverSpec::RoundTrace { bounds, stride: 16 },
        ]
    }

    #[test]
    fn metric_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.as_str()), Some(m));
        }
        assert_eq!(Metric::parse("bogus"), None);
        let set = MetricSet::parse_list("found_round, coverage").unwrap();
        // Iteration is canonical order, not insertion order.
        let names: Vec<&str> = set.iter().map(Metric::as_str).collect();
        assert_eq!(names, vec!["coverage", "found_round"]);
        assert!(MetricSet::parse_list("coverage,warp").is_err());
        assert!(MetricSet::parse_list("").unwrap().is_empty());
        let all =
            MetricSet::parse_list("coverage").unwrap().union(MetricSet::parse_list("chi").unwrap());
        assert!(all.contains(Metric::Coverage) && all.contains(Metric::Chi));
    }

    #[test]
    fn chunked_observation_merges_to_the_serial_reference() {
        let s = walkers(7, 8);
        let specs = all_specs(8);
        let horizon = 300;
        let reference = observe_trial(&s, 11, horizon, &specs);
        for chunk in [1usize, 2, 3, 7, 9] {
            let mut merged: Option<TrialObservations> = None;
            let mut first = 0;
            while first < s.n_agents() {
                let end = (first + chunk).min(s.n_agents());
                let part = observe_chunk(&s, 11, horizon, &specs, first, end);
                match &mut merged {
                    None => merged = Some(part),
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(&part) {
                            a.merge(b);
                        }
                    }
                }
                first = end;
            }
            assert_eq!(merged.unwrap(), reference, "chunk {chunk} diverged");
        }
    }

    #[test]
    fn spiral_coverage_and_first_visits_are_exact() {
        // One deterministic spiral: after (2d+1)^2 + O(d) rounds it has
        // covered the whole ball, and first-visit rounds are monotone in
        // the spiral order.
        let d = 4u64;
        let s = Scenario::builder()
            .agents(1)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(10_000)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build();
        let horizon = (2 * d + 1) * (2 * d + 1) + 4 * d + 4;
        let obs = observe_trial(&s, 1, horizon, &all_specs(d));
        let grid = obs[2].as_coverage();
        assert_eq!(grid.coverage(), 1.0);
        let fv = obs[3].as_first_visit();
        assert_eq!(fv.visited() as u64, (2 * d + 1) * (2 * d + 1));
        assert_eq!(fv.first_visit(&Point::ORIGIN), Some(0));
        // The trace ends fully covered and is monotone.
        let trace = obs[4].trace();
        let last = trace.last().unwrap();
        assert_eq!(last.1 as u64, (2 * d + 1) * (2 * d + 1));
        assert!(trace.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        // The finder agrees with the engine's steps metric.
        let fast = crate::run_trial(&s, 1);
        assert_eq!(obs[0].as_first_find().map(|f| f.round), fast.steps);
    }

    #[test]
    fn first_finder_prefers_earlier_round_then_lower_agent() {
        let mut a = Observation::FirstFinder(Some(FirstFind { round: 9, moves: 4, agent: 3 }));
        a.merge(&Observation::FirstFinder(Some(FirstFind { round: 9, moves: 5, agent: 1 })));
        assert_eq!(a.as_first_find().unwrap().agent, 1);
        a.merge(&Observation::FirstFinder(Some(FirstFind { round: 5, moves: 5, agent: 6 })));
        assert_eq!(a.as_first_find().unwrap().round, 5);
        a.merge(&Observation::FirstFinder(None));
        assert_eq!(a.as_first_find().unwrap().round, 5);
    }

    #[test]
    fn first_visit_grid_bounds_and_accounting() {
        let mut g = FirstVisitGrid::new(Rect::ball(1));
        g.record(&Point::ORIGIN, 0);
        g.record(&Point::new(1, 0), 5);
        g.record(&Point::new(1, 0), 9); // later visit does not overwrite
        g.record(&Point::new(7, 7), 1); // outside: ignored
        assert_eq!(g.first_visit(&Point::new(1, 0)), Some(5));
        assert_eq!(g.first_visit(&Point::new(0, 1)), None);
        assert_eq!(g.visited(), 2);
        assert_eq!(g.visited_by(0), 1);
        assert_eq!(g.visited_by(5), 2);
        assert_eq!(g.mean_first_visit(), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merging_mismatched_kinds_panics() {
        let mut a = Observation::FirstFinder(None);
        a.merge(&Observation::ChiFootprint(SelectionComplexity::new(0, 0)));
    }
}
