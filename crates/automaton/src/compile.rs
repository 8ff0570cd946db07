//! Compiling the paper's algorithms into explicit state machines.
//!
//! Theorem 3.7's accounting ("`b = log⌈log D/ℓ⌉ + 3` bits") refers to the
//! *state-machine representation* of `Non-Uniform-Search`. This module
//! constructs that machine explicitly: the five logical states of
//! Algorithm 1, each fibred over the `k`-valued flip counter of the
//! composite coin `coin(k, ℓ)` (Algorithm 2). The result is a [`Pfa`]
//! whose `memory_bits()`/`ell()`/`chi()` are *measured from the machine*,
//! cross-validating the procedural implementation's declared footprint.
//!
//! Machine layout, mirroring Algorithm 1's walk structure:
//!
//! * `origin(c)` — about to (re)start; vertical direction pending, counter
//!   `c` tails seen on the current composite flip;
//! * `up(c)/down(c)` — mid-vertical-walk;
//! * `left(c)/right(c)` — mid-horizontal-walk.
//!
//! Each transition flips one base coin `C_{1/2^ℓ}` (and, on walk
//! boundaries, one fair coin for the direction choice), so every non-zero
//! probability is at least `min(1/2^ℓ, (1 − 1/2^ℓ)/2) ≥ 1/2^{ℓ+1}` — at
//! most resolution `ℓ + 1`, as the theorem requires.

use crate::action::GridAction;
use crate::pfa::{Pfa, PfaBuilder, StateId};
use ants_grid::Direction;
use ants_rng::{DyadicError, DyadicProb};

/// Compile `Non-Uniform-Search(D = 2^d_exp, ℓ)` into its explicit PFA.
///
/// The machine has `6k` states for `k = ⌈d_exp/ℓ⌉`: a return state
/// (labelled `origin`), and six `k`-fibred roles — vertical-pending
/// counters, `up`/`down` walkers, horizontal-pending counters and
/// `left`/`right` walkers. Only the counter-zero walker states carry move
/// labels; tails-counting states are `none` (local computation), exactly
/// as the metric `M_moves` requires. Hence
/// `b = ⌈log₂ 6k⌉ = log log D + O(1)` and the machine's resolution
/// is `max(ℓ, 2)` (the finest probability is
/// `min(1/2^ℓ, (1 − 1/2^ℓ)/2)`).
///
/// # Errors
///
/// [`DyadicError::ExponentTooLarge`] if `ℓ + 1 > 64`.
///
/// # Panics
///
/// Panics if `d_exp == 0` or `ell == 0`.
pub fn non_uniform_search(d_exp: u32, ell: u32) -> Result<Pfa, DyadicError> {
    assert!(d_exp >= 1, "D must be at least 2");
    assert!(ell >= 1, "ell must be at least 1");
    let k = d_exp.div_ceil(ell).max(1) as usize;
    // Base coin: tails (stop-progress) with probability q = 1/2^ell.
    let q = DyadicProb::one_over_pow2(ell)?;
    // Continue-probability 1 - 1/2^ell.
    let heads = q.complement();
    // Direction choices pair a heads with a fair flip: (1 - q)/2.
    let half_heads = heads.checked_mul(&DyadicProb::half()).ok_or(DyadicError::ExponentTooLarge)?;

    let mut b = PfaBuilder::new();
    let ret = b.add_state(GridAction::Origin);
    // The vertical-pending chain is ret, vpend[0], …, vpend[k−2]: `c`
    // tails into the first vertical composite flip.
    let vpend: Vec<StateId> = (1..k).map(|_| b.add_state(GridAction::None)).collect();
    let mk_walk = |b: &mut PfaBuilder, dir: Direction| -> Vec<StateId> {
        (0..k).map(|c| b.add_state(if c == 0 { dir.into() } else { GridAction::None })).collect()
    };
    let up = mk_walk(&mut b, Direction::Up);
    let down = mk_walk(&mut b, Direction::Down);
    let hwait: Vec<StateId> = (0..k).map(|_| b.add_state(GridAction::None)).collect();
    let left = mk_walk(&mut b, Direction::Left);
    let right = mk_walk(&mut b, Direction::Right);
    b.set_start(ret);

    // Vertical pending: ret behaves like counter 0.
    let vchain: Vec<StateId> = std::iter::once(ret).chain(vpend.iter().copied()).collect();
    for (c, &s) in vchain.iter().enumerate() {
        b.add_transition(s, up[0], half_heads);
        b.add_transition(s, down[0], half_heads);
        let next = if c + 1 < k { vchain[c + 1] } else { hwait[0] };
        b.add_transition(s, next, q);
    }
    // Walking roles: heads -> move (counter resets); tails chain; the
    // k-th tails ends the walk.
    for (walk, after) in [(&up, hwait[0]), (&down, hwait[0]), (&left, ret), (&right, ret)] {
        for c in 0..k {
            b.add_transition(walk[c], walk[0], heads);
            let next = if c + 1 < k { walk[c + 1] } else { after };
            b.add_transition(walk[c], next, q);
        }
    }
    // Horizontal pending: first base flip of the horizontal coin.
    for c in 0..k {
        b.add_transition(hwait[c], left[0], half_heads);
        b.add_transition(hwait[c], right[0], half_heads);
        let next = if c + 1 < k { hwait[c + 1] } else { ret };
        b.add_transition(hwait[c], next, q);
    }
    Ok(b.build().expect("compiled machine is stochastic by construction"))
}

/// Compile the composite coin `coin(k, ℓ)` alone into a PFA gadget whose
/// two absorbing states report the outcome. Used by tests to validate the
/// `⌈log k⌉`-bit memory claim of Lemma 3.6 mechanically.
///
/// # Errors
///
/// [`DyadicError::ExponentTooLarge`] if `ℓ > 64`.
///
/// # Panics
///
/// Panics if `k == 0` or `ell == 0`.
pub fn composite_coin_gadget(k: u32, ell: u32) -> Result<Pfa, DyadicError> {
    assert!(k >= 1 && ell >= 1);
    let q = DyadicProb::one_over_pow2(ell)?;
    let heads_p = q.complement();
    let mut b = PfaBuilder::new();
    let start = b.add_state(GridAction::Origin);
    let counters: Vec<StateId> = (0..k).map(|_| b.add_state(GridAction::None)).collect();
    let heads = b.add_state(GridAction::None); // absorbing: outcome heads
    let tails = b.add_state(GridAction::None); // absorbing: outcome tails
    b.add_transition(start, counters[0], DyadicProb::ONE);
    for (i, &c) in counters.iter().enumerate() {
        b.add_transition(c, heads, heads_p);
        let next = if i + 1 < k as usize { counters[i + 1] } else { tails };
        b.add_transition(c, next, q);
    }
    b.add_transition(heads, heads, DyadicProb::ONE);
    b.add_transition(tails, tails, DyadicProb::ONE);
    Ok(b.build().expect("gadget is stochastic by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov;
    use crate::walker::Walker;
    use ants_rng::derive_rng;

    #[test]
    fn compiled_machine_shape() {
        // D = 2^12, ell = 1: k = 12, 72 states, b = 7 = log log D + ~3.4.
        let pfa = non_uniform_search(12, 1).unwrap();
        assert_eq!(pfa.num_states(), 72);
        assert_eq!(pfa.memory_bits(), 7);
        assert!(pfa.ell() <= 2, "machine resolution {} exceeds ell + 1", pfa.ell());
        // chi = b + log ell <= log log D + O(1).
        let loglog = 12f64.log2();
        assert!(pfa.chi() <= loglog + 5.0);
    }

    #[test]
    fn compiled_machine_is_irreducible() {
        let pfa = non_uniform_search(4, 2).unwrap();
        let a = markov::analyze(&pfa);
        assert!(a.transient.is_empty(), "every state recurs in the iteration loop");
        assert_eq!(a.recurrent_classes.len(), 1);
        assert!(a.recurrent_classes[0].has_origin);
        // Zero drift by symmetry.
        let (dx, dy) = a.recurrent_classes[0].drift;
        assert!(dx.abs() < 1e-9 && dy.abs() < 1e-9, "drift ({dx}, {dy})");
    }

    #[test]
    fn compiled_walk_lengths_are_geometric_with_p_one_over_d() {
        // Mean sojourn in the `up` role should be ~D = 2^{k ell}.
        let (d_exp, ell) = (4u32, 1u32); // D = 16
        let pfa = non_uniform_search(d_exp, ell).unwrap();
        let mut rng = derive_rng(11, 0);
        let mut w = Walker::new(&pfa);
        let k = d_exp.div_ceil(ell) as usize;
        // Layout: ret, vpend (k-1), up (k), down (k), hwait (k), l, r.
        let up_start = k; // 1 + (k - 1)
        let is_up = |s: StateId| (up_start..up_start + k).contains(&s.0);
        let mut runs = Vec::new();
        let mut current = 0u64;
        for _ in 0..400_000 {
            let out = w.step(&mut rng);
            if is_up(out.state) {
                if out.action.is_move() {
                    current += 1;
                }
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        let mean = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        // Moves per vertical walk, conditioned on >= 1 move: 1 + Geom
        // with composite-tails probability 1/16 -> mean 16.
        assert!((mean - 16.0).abs() < 1.0, "mean vertical run {mean}");
    }

    #[test]
    fn gadget_outcome_probability_is_exact() {
        // Absorption probability in `tails` = 1/2^{k ell}.
        let (k, ell) = (3u32, 2u32);
        let pfa = composite_coin_gadget(k, ell).unwrap();
        let tails_state = StateId(pfa.num_states() - 1);
        let mut absorbed = 0u64;
        let trials = 1_000_000u64;
        let mut rng = derive_rng(12, 0);
        for _ in 0..trials {
            let mut s = pfa.start();
            // Walk until absorbed (at most k + 2 steps).
            for _ in 0..(k + 3) {
                s = pfa.step(s, &mut rng);
            }
            if s == tails_state {
                absorbed += 1;
            }
        }
        let f = absorbed as f64 / trials as f64;
        let expect = 1.0 / 64.0;
        assert!((f - expect).abs() < 0.002, "absorption {f} vs {expect}");
    }

    #[test]
    fn gadget_memory_matches_lemma_3_6() {
        // k + 3 states total: counter of ceil(log k) bits plus O(1).
        for k in [1u32, 2, 4, 8, 16] {
            let pfa = composite_coin_gadget(k, 1).unwrap();
            assert_eq!(pfa.num_states() as u32, k + 3);
        }
    }

    #[test]
    fn chi_matches_procedural_strategy() {
        // chi - log log D stays O(1) as D grows. The cross-crate pin
        // against CoinNonUniformSearch's declared chi is
        // `compiled_chi_tracks_procedural_chi` in tests/integration.rs.
        let chi_at = |d_exp: u32| non_uniform_search(d_exp, 1).unwrap().chi();
        let gaps: Vec<f64> =
            [8u32, 16, 32].iter().map(|&e| chi_at(e) - (e as f64).log2()).collect();
        let spread = gaps.iter().cloned().fold(f64::MIN, f64::max)
            - gaps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 1.5, "chi - log log D drifts: {gaps:?}");
    }

    #[test]
    fn compiled_machine_covers_plane_quadrants() {
        let pfa = non_uniform_search(4, 2).unwrap();
        let mut quadrants = std::collections::HashSet::new();
        for seed in 0..40 {
            let mut rng = derive_rng(100 + seed, 0);
            let mut w = Walker::new(&pfa);
            for _ in 0..2000 {
                let out = w.step(&mut rng);
                let p = out.position;
                if p.x != 0 && p.y != 0 {
                    quadrants.insert((p.x > 0, p.y > 0));
                }
            }
        }
        assert_eq!(quadrants.len(), 4, "machine must reach all quadrants");
    }

    #[test]
    fn mean_iteration_length_bounded_by_2d() {
        // Lemma 3.1 for the compiled machine: E[moves per iteration] <= 2D.
        let (d_exp, ell) = (4u32, 1u32);
        let d = 1u64 << d_exp;
        let pfa = non_uniform_search(d_exp, ell).unwrap();
        let mut rng = derive_rng(13, 0);
        let mut w = Walker::new(&pfa);
        let mut iters = 0u64;
        while iters < 20_000 {
            let out = w.step(&mut rng);
            if out.action == GridAction::Origin {
                iters += 1;
            }
        }
        let mean = w.moves() as f64 / iters as f64;
        assert!(mean <= 2.0 * d as f64 * 1.05, "iteration mean {mean}");
    }
}
