//! The determinism battery for the chunked engine.
//!
//! The contract under test: every execution plan — any chunk size, any
//! thread count, any granularity — produces *byte-identical* results to
//! the serial reference. The scenarios are randomized over the strategy
//! zoo, deliberately including phase-based strategies (`UniformSearch`)
//! whose selection-complexity footprint grows over time: those are the
//! ones that distinguish a sloppy chi reduction from the exact one (a
//! speculative chunk steps an agent further than the serial engine
//! would, so the reduction must rewind its footprint to the serial
//! stop).

use ants_core::baselines::{RandomWalk, SpiralSearch};
use ants_core::{NonUniformSearch, UniformSearch};
use ants_grid::TargetPlacement;
use ants_obs::{Counter, Snapshot, Telemetry};
use ants_sim::{
    run_sweep_with, run_trial, run_trials_serial, Granularity, Scenario, SweepJob, SweepOptions,
    TrialPlan,
};
use proptest::prelude::*;

/// A randomized scenario over the strategy zoo. `kind % 4` selects the
/// strategy; the uniform searcher gets a guess ceiling so its geometric
/// overshoot tails stay bounded (and its abort path — which shrinks the
/// footprint mid-run — is exercised).
fn rand_scenario(kind: u8, n: usize, d: u64, ceiling: bool) -> Scenario {
    let d = d.max(1);
    let mut b = Scenario::builder()
        .agents(n)
        .target(TargetPlacement::UniformInBall { distance: d })
        .move_budget(6_000);
    if ceiling || kind % 4 == 3 {
        b = b.guess_move_ceiling(400);
    }
    match kind % 4 {
        0 => b.strategy(|_| Box::new(RandomWalk::new())).build(),
        1 => b.strategy(|_| Box::new(SpiralSearch::new())).build(),
        2 => b.strategy(move |_| Box::new(NonUniformSearch::new(d.max(2)).expect("valid"))).build(),
        _ => b.strategy(|_| Box::new(UniformSearch::new(1, 2, 2).expect("valid"))).build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole contract: `TrialPlan(chunk = k).run()` equals `run_trial`
    /// for every chunk size, including one agent per chunk, uneven
    /// splits, exactly the agent count, and past the agent count.
    #[test]
    fn trial_plan_equals_run_trial_at_every_chunk(
        kind in any::<u8>(),
        n in 1usize..9,
        d in 1u64..10,
        seed in any::<u64>(),
        ceiling in any::<bool>(),
    ) {
        let s = rand_scenario(kind, n, d, ceiling);
        let reference = run_trial(&s, seed);
        for chunk in [1usize, 3, 7, n, n + 1] {
            let got = TrialPlan::new(&s, seed, chunk).run();
            prop_assert_eq!(
                &got, &reference,
                "chunk size {} diverged from run_trial (kind {}, n {}, d {})",
                chunk, kind, n, d
            );
        }
    }

    /// `run_sweep_with` equality across threads x granularity x chunk on
    /// randomized job batches: every combination must reproduce the
    /// serial per-job reference byte for byte.
    #[test]
    fn sweep_equal_across_threads_and_granularity(
        kind in any::<u8>(),
        n in 1usize..7,
        d in 1u64..8,
        trials in 1u64..5,
        seed in any::<u64>(),
    ) {
        let mk_jobs = || -> Vec<SweepJob> {
            vec![
                SweepJob::new(rand_scenario(kind, n, d, false), trials, seed),
                SweepJob::new(rand_scenario(kind.wrapping_add(1), n, d, true), trials + 1, seed ^ 0xA5),
                SweepJob::new(rand_scenario(kind.wrapping_add(2), (n % 3) + 1, d, false), trials, seed ^ 0x5A),
            ]
        };
        let jobs = mk_jobs();
        let reference: Vec<_> = jobs
            .iter()
            .map(|j| run_trials_serial(&j.scenario, j.trials, j.seed))
            .collect();
        for threads in [1usize, 2, 4] {
            for granularity in [Granularity::Trial, Granularity::Agent] {
                for chunk in [1usize, 3] {
                    let opts = SweepOptions::with_threads(Some(threads))
                        .granularity(granularity)
                        .chunk(chunk);
                    let outcomes = run_sweep_with(&jobs, &opts);
                    prop_assert_eq!(outcomes.len(), reference.len());
                    for (job_idx, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                        prop_assert_eq!(
                            got.trials(), want.trials(),
                            "job {} diverged at threads {}, granularity {:?}, chunk {}",
                            job_idx, threads, granularity, chunk
                        );
                    }
                }
            }
        }
    }

    /// The cap hint is monotone: a published find never *raises* any
    /// chunk's hinted cap, never touches the publisher's own chunk or
    /// earlier ones, and always bounds later chunks by `moves - 1`.
    #[test]
    fn cap_hint_is_monotone(
        publishes in proptest::collection::vec((0usize..6, 1u64..500), 0..24),
    ) {
        use ants_sim::CapHint;

        let hint = CapHint::new(6);
        for c in 0..6 {
            prop_assert_eq!(hint.cap_for(c), u64::MAX, "fresh hints must not cap anything");
        }
        for (chunk, moves) in publishes {
            let before: Vec<u64> = (0..6).map(|c| hint.cap_for(c)).collect();
            hint.publish(chunk, moves);
            for (c, &prev) in before.iter().enumerate() {
                let now = hint.cap_for(c);
                prop_assert!(now <= prev, "publish raised chunk {}'s cap", c);
                if c <= chunk {
                    prop_assert_eq!(now, prev, "publish leaked into chunk {}", c);
                } else {
                    prop_assert!(now < moves, "chunk {} not bounded by the find", c);
                }
            }
        }
    }

    /// Hinted agent-level sweeps stay byte-identical to the serial
    /// reference across threads {1, 2, 4} × chunk {1, 3, 8} — agent
    /// counts above 8 so chunk 8 genuinely splits, and a single worker
    /// included so the forced-granularity path is exercised end to end.
    #[test]
    fn hinted_agent_sweeps_match_serial_across_threads_and_chunks(
        kind in any::<u8>(),
        n in 9usize..14,
        d in 1u64..8,
        seed in any::<u64>(),
    ) {
        let jobs = vec![
            SweepJob::new(rand_scenario(kind, n, d, false), 2, seed),
            SweepJob::new(rand_scenario(kind.wrapping_add(1), n - 4, d, true), 3, seed ^ 0x33),
        ];
        let reference: Vec<_> = jobs
            .iter()
            .map(|j| run_trials_serial(&j.scenario, j.trials, j.seed))
            .collect();
        for threads in [1usize, 2, 4] {
            for chunk in [1usize, 3, 8] {
                let opts = SweepOptions::with_threads(Some(threads))
                    .granularity(Granularity::Agent)
                    .chunk(chunk);
                let outcomes = run_sweep_with(&jobs, &opts);
                for (job_idx, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got.trials(), want.trials(),
                        "job {} diverged at threads {}, chunk {}",
                        job_idx, threads, chunk
                    );
                }
            }
        }
    }
}

/// Run `jobs` under `opts` with a fresh telemetry handle attached, check
/// every outcome against the serial reference, and return the counters.
fn counted_sweep(jobs: &[SweepJob], opts: SweepOptions) -> Snapshot {
    let tele = Telemetry::new();
    let outcomes = run_sweep_with(jobs, &opts.with_telemetry(tele));
    assert_eq!(outcomes.len(), jobs.len());
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        let reference = run_trials_serial(&job.scenario, job.trials, job.seed);
        assert_eq!(outcome.trials(), reference.trials(), "sweep diverged from serial");
    }
    let snap = tele.snapshot();
    assert_eq!(
        snap.counter(Counter::PoolUnits),
        snap.worker_units.iter().sum::<u64>(),
        "per-worker unit shards must sum to the total"
    );
    snap
}

/// Scheduling invariant: under agent-level scheduling every
/// (cell, trial, chunk) unit executes exactly once, and every trial that
/// splits into more than one chunk is reduced exactly once (a one-chunk
/// trial is reduced inside its unit).
#[test]
fn agent_units_execute_exactly_once() {
    for case in 0u64..12 {
        let kind = (case % 4) as u8;
        let n = (case % 5) as usize + 1;
        let trials = case % 3 + 1;
        let chunk = (case % 2) as usize + 1;
        let threads = [2usize, 4][(case % 2) as usize];
        let jobs = vec![
            SweepJob::new(rand_scenario(kind, n, 4, false), trials, case),
            SweepJob::new(rand_scenario(kind.wrapping_add(1), n + 1, 5, true), trials + 1, !case),
        ];
        let opts =
            SweepOptions::with_threads(Some(threads)).granularity(Granularity::Agent).chunk(chunk);
        let snap = counted_sweep(&jobs, opts);

        let (mut units, mut reduces) = (0, 0);
        for job in &jobs {
            let n_chunks = job.scenario.n_agents().div_ceil(chunk) as u64;
            units += job.trials * n_chunks;
            reduces += if n_chunks > 1 { job.trials } else { 0 };
        }
        assert_eq!(snap.counter(Counter::PoolUnits), units, "case {case}: unit count");
        assert_eq!(snap.counter(Counter::PoolReduces), reduces, "case {case}: reduction count");
    }
}

/// Trial-level scheduling executes exactly one whole-trial unit per
/// (cell, trial) and performs no chunk reductions.
#[test]
fn trial_units_execute_exactly_once() {
    let jobs = vec![
        SweepJob::new(rand_scenario(0, 3, 4, false), 3, 7),
        SweepJob::new(rand_scenario(2, 2, 5, false), 2, 8),
    ];
    let snap =
        counted_sweep(&jobs, SweepOptions::with_threads(Some(4)).granularity(Granularity::Trial));
    assert_eq!(snap.counter(Counter::PoolUnits), 5);
    assert_eq!(snap.counter(Counter::PoolReduces), 0);
}

/// The flagship case — a single trial with many agents — fans out into
/// agent chunks (the unit count, not the trial count, decides).
#[test]
fn single_trial_many_agents_fans_out() {
    let jobs = vec![SweepJob::new(rand_scenario(2, 9, 6, false), 1, 42)];
    let opts = SweepOptions::with_threads(Some(4)).granularity(Granularity::Agent).chunk(2);
    let snap = counted_sweep(&jobs, opts);
    assert_eq!(snap.counter(Counter::PoolUnits), 5, "1-trial/9-agent job must split into 5 chunks");
    assert_eq!(snap.counter(Counter::PoolReduces), 1);
}

/// One worker under auto granularity runs every trial as one inline unit
/// — and the pool and engine counters still count that work.
#[test]
fn one_worker_auto_sweep_counts_its_work() {
    let jobs = vec![SweepJob::new(rand_scenario(1, 2, 3, false), 2, 1)];
    let snap = counted_sweep(&jobs, SweepOptions::with_threads(Some(1)));
    assert_eq!(snap.counter(Counter::PoolUnits), 2);
    assert_eq!(snap.counter(Counter::PoolReduces), 0);
    assert!(snap.counter(Counter::EngineSteps) > 0, "inline units must count their steps");
    assert_eq!(snap.plans.len(), 1, "each job is planned and logged once");
    assert_eq!(snap.plans[0].granularity, "trial");
}

/// Regression for the forced-granularity bug: `--granularity agent` on a
/// single worker must still run chunked (it used to fall back to the
/// serial path, ignoring the explicit request) — and stay byte-identical
/// to the serial reference.
#[test]
fn forced_agent_granularity_runs_chunked_on_one_worker() {
    let jobs = vec![SweepJob::new(rand_scenario(3, 5, 4, false), 2, 17)];
    let opts = SweepOptions::with_threads(Some(1)).granularity(Granularity::Agent).chunk(2);
    let snap = counted_sweep(&jobs, opts);
    assert_eq!(snap.counter(Counter::PoolUnits), 6, "two trials of three chunks each");
    assert_eq!(snap.counter(Counter::PoolReduces), 2);
    assert!(snap.counter(Counter::EngineSteps) > 0, "chunk units must report their work");
}
