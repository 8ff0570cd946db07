//! Markov-chain structure analysis — the machinery behind Section 4.
//!
//! The paper's lower bound (Theorem 4.1) rests on structural facts about
//! small Markov chains:
//!
//! * every agent falls into a *recurrent class* within `R₀ = D^{o(1)}`
//!   rounds (Lemma 4.2 / Corollary 4.3);
//! * each recurrent class has a period `t` and decomposes into `t` cyclic
//!   classes (Feller's Theorem A.1);
//! * the chain induced by `P^t` on each cyclic class mixes to its unique
//!   stationary distribution at rate `(1 − p₀^{|S|})^{⌊k/|S|⌋}`
//!   (Rosenthal's Lemma A.2 / Corollary 4.6);
//! * under the stationary distribution each class has a *drift vector*
//!   `~p = (p→ − p←, p↑ − p↓)` and the position concentrates around the
//!   line `r · ~p` (Lemma 4.9 / Corollary 4.10).
//!
//! [`analyze`] computes all of these exactly (graph structure) or to
//! numerical precision (distributions), and is consumed by
//! `ants-analysis`' drift and mixing measurements (experiments E13/E15).

use crate::action::GridAction;
use crate::matrix;
use crate::pfa::{Pfa, StateId};

/// A recurrent class and its derived quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurrentClass {
    /// The member states, sorted.
    pub states: Vec<StateId>,
    /// The period `t` of the induced chain (1 = aperiodic).
    pub period: u32,
    /// The cyclic classes `G₀, …, G_{t−1}` of Feller's theorem, each
    /// sorted; `cyclic_classes.len() == period`.
    pub cyclic_classes: Vec<Vec<StateId>>,
    /// Unique stationary distribution over `states` (same order).
    pub stationary: Vec<f64>,
    /// Expected per-step displacement under the stationary distribution:
    /// `(p→ − p←, p↑ − p↓)` — Corollary 4.10's `~p`.
    pub drift: (f64, f64),
    /// Does the class contain a state labelled `origin`? (Corollary 4.5:
    /// such a class keeps returning and never explores far.)
    pub has_origin: bool,
    /// Does the class contain any move-labelled state? (Corollary 4.11's
    /// case (2): an all-`none` class stops moving entirely.)
    pub has_move: bool,
}

impl RecurrentClass {
    /// Probability mass the stationary distribution puts on a state.
    pub fn stationary_of(&self, s: StateId) -> Option<f64> {
        self.states.iter().position(|&t| t == s).map(|i| self.stationary[i])
    }

    /// Euclidean norm of the drift vector.
    pub fn drift_speed(&self) -> f64 {
        (self.drift.0 * self.drift.0 + self.drift.1 * self.drift.1).sqrt()
    }
}

/// Full structural analysis of a PFA's Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainAnalysis {
    /// States not contained in any recurrent class.
    pub transient: Vec<StateId>,
    /// All recurrent classes.
    pub recurrent_classes: Vec<RecurrentClass>,
}

impl ChainAnalysis {
    /// The recurrent class containing `s`, if any.
    pub fn class_of(&self, s: StateId) -> Option<&RecurrentClass> {
        self.recurrent_classes.iter().find(|c| c.states.contains(&s))
    }
}

/// Analyse the Markov chain of a PFA.
///
/// Runs Tarjan's SCC algorithm for the class structure, a BFS-level gcd
/// for the period, and a direct linear solve for each stationary
/// distribution.
pub fn analyze(pfa: &Pfa) -> ChainAnalysis {
    let n = pfa.num_states();
    let adj: Vec<Vec<usize>> =
        (0..n).map(|i| pfa.transitions(StateId(i)).iter().map(|(t, _)| t.0).collect()).collect();
    let sccs = tarjan_scc(&adj);
    // An SCC is recurrent iff no edge leaves it.
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in sccs.iter().enumerate() {
        for &s in comp {
            comp_of[s] = ci;
        }
    }
    let mut transient = Vec::new();
    let mut recurrent_classes = Vec::new();
    for (ci, comp) in sccs.iter().enumerate() {
        let leaves = comp.iter().any(|&s| adj[s].iter().any(|&t| comp_of[t] != ci));
        if leaves {
            transient.extend(comp.iter().map(|&s| StateId(s)));
            continue;
        }
        recurrent_classes.push(build_class(pfa, comp));
    }
    transient.sort();
    recurrent_classes.sort_by(|a, b| a.states.cmp(&b.states));
    ChainAnalysis { transient, recurrent_classes }
}

fn build_class(pfa: &Pfa, members: &[usize]) -> RecurrentClass {
    let mut states: Vec<usize> = members.to_vec();
    states.sort_unstable();
    let index_of = |s: usize| states.binary_search(&s).expect("member state");
    let m = states.len();
    // Restricted transition matrix.
    let mut p = vec![vec![0.0; m]; m];
    for (i, &s) in states.iter().enumerate() {
        for (t, prob) in pfa.transitions(StateId(s)) {
            // All mass stays inside a recurrent class.
            let j = index_of(t.0);
            p[i][j] += prob.to_f64();
        }
    }
    let period = class_period(&states, &p);
    let cyclic_classes = cyclic_classes(&states, &p, period);
    let stationary = matrix::stationary_distribution(&p);
    let mut drift = (0.0, 0.0);
    let mut has_origin = false;
    let mut has_move = false;
    for (i, &s) in states.iter().enumerate() {
        match pfa.label(StateId(s)) {
            GridAction::Move(d) => {
                has_move = true;
                let (dx, dy) = d.delta();
                drift.0 += stationary[i] * dx as f64;
                drift.1 += stationary[i] * dy as f64;
            }
            GridAction::Origin => has_origin = true,
            GridAction::None => {}
        }
    }
    RecurrentClass {
        states: states.iter().map(|&s| StateId(s)).collect(),
        period,
        cyclic_classes,
        stationary,
        drift,
        has_origin,
        has_move,
    }
}

/// Period of an irreducible chain: gcd over edges `(u, v)` of
/// `level(u) + 1 − level(v)` for BFS levels from an arbitrary root.
fn class_period(states: &[usize], p: &[Vec<f64>]) -> u32 {
    let m = states.len();
    if m == 1 {
        return 1;
    }
    let mut level = vec![i64::MIN; m];
    level[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let mut g: i64 = 0;
    while let Some(u) = queue.pop_front() {
        for v in 0..m {
            if p[u][v] <= 0.0 {
                continue;
            }
            if level[v] == i64::MIN {
                level[v] = level[u] + 1;
                queue.push_back(v);
            } else {
                g = gcd(g, (level[u] + 1 - level[v]).abs());
            }
        }
    }
    if g == 0 {
        1
    } else {
        g as u32
    }
}

/// Feller's cyclic classes: group states by BFS level mod period.
fn cyclic_classes(states: &[usize], p: &[Vec<f64>], period: u32) -> Vec<Vec<StateId>> {
    let m = states.len();
    let t = period as i64;
    let mut level = vec![i64::MIN; m];
    level[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        for v in 0..m {
            if p[u][v] > 0.0 && level[v] == i64::MIN {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut classes = vec![Vec::new(); period as usize];
    for (i, &s) in states.iter().enumerate() {
        let tau = level[i].rem_euclid(t) as usize;
        classes[tau].push(StateId(s));
    }
    for c in &mut classes {
        c.sort();
    }
    classes
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Iterative Tarjan SCC; returns components in reverse topological order.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS stack of (node, edge-iterator position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ei)) = call_stack.last_mut() {
            if *ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call_stack.pop();
                if let Some(&mut (u, _)) = call_stack.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    sccs
}

/// Distribution over all states after `k` steps from the start state.
pub fn distribution_after(pfa: &Pfa, k: u64) -> Vec<f64> {
    let p = pfa.transition_matrix();
    let pk = matrix::mat_pow(&p, k);
    pk[pfa.start().0].clone()
}

/// Total-variation distance between the `k`-step distribution (restricted
/// to a recurrent class the start state can reach) and the class's
/// stationary distribution.
///
/// Used by the mixing experiments to verify Corollary 4.6 empirically:
/// after `β = D^{o(1)}` rounds the distance is negligible.
pub fn mixing_distance(pfa: &Pfa, class: &RecurrentClass, k: u64) -> f64 {
    let dist = distribution_after(pfa, k);
    let mut restricted: Vec<f64> = class.states.iter().map(|s| dist[s.0]).collect();
    let mass: f64 = restricted.iter().sum();
    if mass <= 0.0 {
        return 1.0; // chain has not reached the class at all
    }
    for v in &mut restricted {
        *v /= mass;
    }
    0.5 * restricted.iter().zip(class.stationary.iter()).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Rosenthal's bound (the paper's Lemma A.2): after `k` steps of a chain
/// whose `k₀`-step transitions all have probability at least `ε` into some
/// reference distribution, the distance to stationarity is at most
/// `(1 − ε)^{⌊k/k₀⌋}`.
pub fn rosenthal_bound(epsilon: f64, k: u64, k0: u64) -> f64 {
    assert!((0.0..=1.0).contains(&epsilon), "epsilon must be a probability");
    assert!(k0 > 0, "k0 must be positive");
    (1.0 - epsilon).powi((k / k0) as i32)
}

/// The per-direction stationary move probabilities
/// `(p_up, p_down, p_left, p_right)` of `class`.
fn direction_probabilities(pfa: &Pfa, class: &RecurrentClass) -> [f64; 4] {
    let mut probs = [0.0f64; 4];
    for (i, s) in class.states.iter().enumerate() {
        if let GridAction::Move(d) = pfa.label(*s) {
            probs[d.index()] += class.stationary[i];
        }
    }
    probs
}

/// Sanity helper used in tests and examples: assert the four direction
/// probabilities of a class sum to at most one.
pub fn move_mass(pfa: &Pfa, class: &RecurrentClass) -> f64 {
    direction_probabilities(pfa, class).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::pfa::PfaBuilder;
    use ants_grid::Direction;
    use ants_rng::DyadicProb;

    /// A chain with one transient state feeding two absorbing states.
    fn transient_chain() -> Pfa {
        let mut b = PfaBuilder::new();
        let s0 = b.add_state(GridAction::Origin);
        let s1 = b.add_state(GridAction::Move(Direction::Up));
        let s2 = b.add_state(GridAction::Move(Direction::Down));
        b.add_transition(s0, s1, DyadicProb::half());
        b.add_transition(s0, s2, DyadicProb::half());
        b.add_transition(s1, s1, DyadicProb::ONE);
        b.add_transition(s2, s2, DyadicProb::ONE);
        b.build().unwrap()
    }

    #[test]
    fn transient_and_recurrent_partition() {
        let pfa = transient_chain();
        let a = analyze(&pfa);
        assert_eq!(a.transient, vec![StateId(0)]);
        assert_eq!(a.recurrent_classes.len(), 2);
        let total: usize =
            a.transient.len() + a.recurrent_classes.iter().map(|c| c.states.len()).sum::<usize>();
        assert_eq!(total, pfa.num_states());
        assert!(a.transient.contains(&StateId(0)));
        assert!(!a.transient.contains(&StateId(1)));
    }

    #[test]
    fn absorbing_states_have_unit_drift() {
        let pfa = transient_chain();
        let a = analyze(&pfa);
        let up_class = a.class_of(StateId(1)).unwrap();
        assert_eq!(up_class.drift, (0.0, 1.0));
        assert_eq!(up_class.period, 1);
        assert!(up_class.has_move);
        assert!(!up_class.has_origin);
        let down_class = a.class_of(StateId(2)).unwrap();
        assert_eq!(down_class.drift, (0.0, -1.0));
    }

    #[test]
    fn random_walk_is_one_aperiodic_class_with_zero_drift() {
        let pfa = library::random_walk();
        let a = analyze(&pfa);
        // The origin start state is never re-entered: it is transient.
        assert_eq!(a.transient, vec![StateId(0)]);
        assert_eq!(a.recurrent_classes.len(), 1);
        let c = &a.recurrent_classes[0];
        assert_eq!(c.period, 1);
        assert!(c.drift.0.abs() < 1e-12 && c.drift.1.abs() < 1e-12);
        assert_eq!(c.states.len(), 4);
        // Uniform stationary distribution by symmetry.
        for &pi in &c.stationary {
            assert!((pi - 0.25).abs() < 1e-10);
        }
        assert!((move_mass(&pfa, c) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_cycle_has_period_two() {
        let mut b = PfaBuilder::new();
        let s0 = b.add_state(GridAction::Origin);
        let s1 = b.add_state(GridAction::Move(Direction::Right));
        b.add_transition(s0, s1, DyadicProb::ONE);
        b.add_transition(s1, s0, DyadicProb::ONE);
        let pfa = b.build().unwrap();
        let a = analyze(&pfa);
        assert_eq!(a.recurrent_classes.len(), 1);
        let c = &a.recurrent_classes[0];
        assert_eq!(c.period, 2);
        assert_eq!(c.cyclic_classes.len(), 2);
        assert_eq!(c.cyclic_classes[0], vec![StateId(0)]);
        assert_eq!(c.cyclic_classes[1], vec![StateId(1)]);
        // Stationary (1/2, 1/2); drift = right with mass 1/2.
        assert!((c.drift.0 - 0.5).abs() < 1e-10);
        assert!(c.has_origin);
    }

    #[test]
    fn three_cycle_period_three() {
        let mut b = PfaBuilder::new();
        let s0 = b.add_state(GridAction::Origin);
        let s1 = b.add_state(GridAction::None);
        let s2 = b.add_state(GridAction::Move(Direction::Up));
        b.add_transition(s0, s1, DyadicProb::ONE);
        b.add_transition(s1, s2, DyadicProb::ONE);
        b.add_transition(s2, s0, DyadicProb::ONE);
        let pfa = b.build().unwrap();
        let a = analyze(&pfa);
        let c = &a.recurrent_classes[0];
        assert_eq!(c.period, 3);
        assert_eq!(c.cyclic_classes.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 1]);
    }

    #[test]
    fn lazy_cycle_is_aperiodic() {
        // Adding a self-loop destroys periodicity.
        let mut b = PfaBuilder::new();
        let s0 = b.add_state(GridAction::Origin);
        let s1 = b.add_state(GridAction::None);
        b.add_transition(s0, s1, DyadicProb::ONE);
        b.add_transition(s1, s0, DyadicProb::half());
        b.add_transition(s1, s1, DyadicProb::half());
        let pfa = b.build().unwrap();
        let a = analyze(&pfa);
        assert_eq!(a.recurrent_classes[0].period, 1);
    }

    #[test]
    fn stationary_is_fixed_point_of_restricted_chain() {
        let pfa = library::drift_walk(2).unwrap();
        let a = analyze(&pfa);
        let c = &a.recurrent_classes[0];
        // Recompute π P and compare.
        let idx: std::collections::HashMap<usize, usize> =
            c.states.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
        let m = c.states.len();
        let mut after = vec![0.0; m];
        for (i, s) in c.states.iter().enumerate() {
            for (t, p) in pfa.transitions(*s) {
                after[idx[&t.0]] += c.stationary[i] * p.to_f64();
            }
        }
        for (a, b) in after.iter().zip(c.stationary.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn mixing_distance_decreases() {
        let pfa = library::lazy_random_walk();
        let a = analyze(&pfa);
        let c = &a.recurrent_classes[0];
        let d1 = mixing_distance(&pfa, c, 1);
        let d10 = mixing_distance(&pfa, c, 10);
        let d100 = mixing_distance(&pfa, c, 100);
        assert!(d10 <= d1 + 1e-12);
        assert!(d100 <= d10 + 1e-12);
        assert!(d100 < 1e-6, "lazy walk should mix fast, got {d100}");
    }

    #[test]
    fn rosenthal_bound_shape() {
        // More steps -> smaller bound; larger epsilon -> smaller bound.
        assert!(rosenthal_bound(0.1, 100, 10) < rosenthal_bound(0.1, 50, 10));
        assert!(rosenthal_bound(0.2, 100, 10) < rosenthal_bound(0.1, 100, 10));
        assert_eq!(rosenthal_bound(0.5, 0, 10), 1.0);
    }

    #[test]
    fn distribution_after_sums_to_one() {
        let pfa = library::random_walk();
        for k in [0u64, 1, 5, 50] {
            let d = distribution_after(&pfa, k);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "k={k} sum={s}");
        }
    }

    #[test]
    fn direction_probabilities_match_drift() {
        let pfa = library::drift_walk(3).unwrap();
        let a = analyze(&pfa);
        let c = &a.recurrent_classes[0];
        let [up, down, left, right] = direction_probabilities(&pfa, c);
        assert!((c.drift.0 - (right - left)).abs() < 1e-12);
        assert!((c.drift.1 - (up - down)).abs() < 1e-12);
    }
}
