//! Cross-crate integration tests: the whole pipeline, end to end.

use ants::automaton::{compile, library, markov, GridAction, Walker};
use ants::core::baselines::{AutomatonStrategy, RandomWalk};
use ants::core::{
    apply_action, CoinNonUniformSearch, NonUniformSearch, SearchStrategy, UniformSearch,
};
use ants::grid::{Point, Rect, TargetPlacement};
use ants::rng::{derive_rng, Rng64};
use ants::sim::{coverage, run_trial, run_trials, Scenario};

/// The procedural Algorithm 1 and the paper's five-state PFA realise the
/// same process: equal iteration-length distributions (statistically).
#[test]
fn algorithm1_procedural_matches_compiled_pfa() {
    let d_exp = 4u32; // D = 16
    let d = 1u64 << d_exp;

    // Mean moves per iteration from the procedural strategy.
    let mut agent = NonUniformSearch::new(d).unwrap();
    let mut rng = derive_rng(1, 0);
    let (mut moves, mut iters) = (0u64, 0u64);
    while iters < 30_000 {
        let a = agent.step(&mut rng);
        if a.is_move() {
            moves += 1;
        }
        if a == GridAction::Origin {
            iters += 1;
        }
    }
    let procedural_mean = moves as f64 / iters as f64;

    // Mean moves per iteration from the compiled PFA (origin-state visits
    // delimit iterations).
    let pfa = library::algorithm1(d_exp).unwrap();
    let mut w = Walker::new(&pfa);
    let mut rng = derive_rng(2, 0);
    let mut iters = 0u64;
    while iters < 30_000 {
        let out = w.step(&mut rng);
        if out.action == GridAction::Origin {
            iters += 1;
        }
    }
    let pfa_mean = w.moves() as f64 / iters as f64;

    let rel = (procedural_mean - pfa_mean).abs() / pfa_mean;
    assert!(rel < 0.05, "iteration lengths disagree: procedural {procedural_mean}, pfa {pfa_mean}");
}

/// Full upper-bound pipeline: the facade's types compose, the engine finds
/// targets, the metrics make sense.
#[test]
fn pipeline_upper_bound() {
    let d = 16u64;
    let scenario = Scenario::builder()
        .agents(8)
        .target(TargetPlacement::UniformInBall { distance: d })
        .move_budget(2_000_000)
        .strategy(move |_| Box::new(NonUniformSearch::new(d).unwrap()))
        .build();
    let outcome = run_trials(&scenario, 30, 42);
    let s = outcome.summary();
    assert_eq!(s.trials(), 30);
    assert!(s.success_rate() > 0.95, "success {}", s.success_rate());
    assert!(s.mean_moves() > 0.0);
    assert!(s.median_moves() <= s.mean_moves() * 3.0);
    // chi footprint: plain Alg 1 at D = 16 has ell = 4, b = 3.
    assert_eq!(s.chi_footprint().ell(), 4);
}

/// Full lower-bound pipeline: a low-chi automaton leaves adversarial
/// cells, and placing the target there defeats it.
#[test]
fn pipeline_lower_bound() {
    let d = 32u64;
    let pfa = library::drift_walk(3).unwrap();
    let factory: ants::sim::StrategyFactory = {
        let pfa = pfa.clone();
        Box::new(move |_| Box::new(AutomatonStrategy::new(pfa.clone())))
    };
    let report = coverage::measure(&factory, 4, d * d, Rect::ball(d), 7);
    assert!(report.coverage() < 0.5, "low-chi coverage {}", report.coverage());
    let adversarial = report.adversarial_target().expect("cells must remain");

    // The same automaton fails to find the adversarial target in D^2 moves.
    let pfa2 = pfa.clone();
    let scenario = Scenario::builder()
        .agents(4)
        .target(TargetPlacement::Fixed(adversarial))
        .move_budget(d * d)
        .strategy(move |_| Box::new(AutomatonStrategy::new(pfa2.clone())))
        .build();
    let outcome = run_trials(&scenario, 20, 99);
    assert_eq!(
        outcome.summary().found(),
        0,
        "adversarial target was found — placement not adversarial enough"
    );

    // Algorithm 1 (above the threshold) finds that exact target.
    let scenario = Scenario::builder()
        .agents(4)
        .target(TargetPlacement::Fixed(adversarial))
        .move_budget(d * d * 3000)
        .strategy(move |_| Box::new(NonUniformSearch::new(d).unwrap()))
        .build();
    let outcome = run_trials(&scenario, 10, 100);
    assert!(
        outcome.summary().success_rate() > 0.8,
        "Algorithm 1 should find the adversarial cell: {}",
        outcome.summary().success_rate()
    );
}

/// Drift analysis agrees between the markov module and the simulator.
#[test]
fn drift_prediction_matches_simulation() {
    let pfa = library::drift_walk(2).unwrap();
    let analysis = markov::analyze(&pfa);
    let class = &analysis.recurrent_classes[0];
    let (dx, dy) = class.drift;
    // Simulate and compare the empirical mean displacement per step.
    let steps = 20_000u64;
    let mut w = Walker::new(&pfa);
    let mut rng = derive_rng(5, 0);
    for _ in 0..steps {
        w.step(&mut rng);
    }
    let p = w.position();
    let ex = p.x as f64 / steps as f64;
    let ey = p.y as f64 / steps as f64;
    assert!((ex - dx).abs() < 0.02, "x drift {ex} vs predicted {dx}");
    assert!((ey - dy).abs() < 0.02, "y drift {ey} vs predicted {dy}");
}

/// Determinism across the whole stack: a trial is a pure function of its
/// seed, even through the facade.
#[test]
fn end_to_end_determinism() {
    let scenario = Scenario::builder()
        .agents(3)
        .target(TargetPlacement::UniformInBall { distance: 10 })
        .move_budget(100_000)
        .strategy(|_| Box::new(RandomWalk::new()))
        .build();
    let a = run_trial(&scenario, 0xABCD);
    let b = run_trial(&scenario, 0xABCD);
    assert_eq!(a, b);
}

/// The uniform algorithm is genuinely uniform in D: the same agent
/// construction finds both near and far targets.
#[test]
fn uniform_algorithm_is_distance_oblivious() {
    for (d, budget) in [(4u64, 2_000_000u64), (24, 40_000_000)] {
        let scenario = Scenario::builder()
            .agents(8)
            .target(TargetPlacement::Ring { distance: d })
            .move_budget(budget)
            .strategy(|_| Box::new(UniformSearch::new(1, 8, 2).unwrap()))
            .build();
        let s = run_trials(&scenario, 10, d).summary();
        assert!(
            s.success_rate() > 0.85,
            "uniform agent failed at distance {d}: {}",
            s.success_rate()
        );
    }
}

/// Near targets are found faster than far ones by the uniform algorithm
/// (the phase structure at work).
#[test]
fn uniform_algorithm_graceful_degradation() {
    let time_at = |d: u64, seed: u64| {
        let scenario = Scenario::builder()
            .agents(4)
            .target(TargetPlacement::Ring { distance: d })
            .move_budget(100_000_000)
            .strategy(|_| Box::new(UniformSearch::new(1, 4, 2).unwrap()))
            .build();
        run_trials(&scenario, 12, seed).summary().median_moves()
    };
    let near = time_at(4, 1);
    let far = time_at(32, 2);
    assert!(near < far, "nearer food should be found sooner: near {near} vs far {far}");
}

/// Theorem 3.7's footprint measured from the compiled state machine
/// (`compile::non_uniform_search`) against the procedural
/// `CoinNonUniformSearch`'s declared one. Both need the same
/// `b = ⌈log₂ 6k⌉` bits; the machine's finest probability is
/// `min(1/2^ℓ, (1 − 1/2^ℓ)/2)`, so its resolution is `max(ℓ, 2)`: the
/// fair direction choice costs one extra χ bit at `ℓ = 1` and none above.
#[test]
fn compiled_chi_tracks_procedural_chi() {
    for d_exp in [8u32, 16, 32] {
        for ell in [1u32, 2] {
            let pfa = compile::non_uniform_search(d_exp, ell).unwrap();
            let sc = CoinNonUniformSearch::new(1u64 << d_exp, ell).unwrap().selection_complexity();
            let k = d_exp.div_ceil(ell);
            assert_eq!(pfa.memory_bits(), (6 * k).next_power_of_two().trailing_zeros());
            assert_eq!(pfa.memory_bits(), sc.memory_bits(), "d_exp={d_exp} ell={ell}");
            assert_eq!(pfa.ell(), ell.max(2));
            assert_eq!(sc.ell(), ell);
            let gap = if ell == 1 { 1.0 } else { 0.0 };
            assert_eq!(pfa.chi() - sc.chi(), gap, "d_exp={d_exp} ell={ell}");
        }
    }
}

/// Facade sanity: all re-exports resolve and basic types interoperate.
#[test]
fn facade_surface() {
    let p = Point::new(3, 4);
    assert_eq!(p.norm_max(), 4);
    let mut rng = derive_rng(0, 0);
    let _ = rng.next_u64();
    let pfa = library::random_walk();
    assert_eq!(pfa.chi(), 4.0);
    let strat = AutomatonStrategy::new(pfa);
    assert_eq!(strat.selection_complexity().chi(), 4.0);
    assert_eq!(apply_action(p, GridAction::Origin), Point::ORIGIN);
}
