//! The observability acceptance contract: telemetry is strictly
//! observational. Attaching a handle never changes a single report
//! byte, at any thread count or scheduling granularity — and the
//! instrumentation it feeds actually observes the run (counters move).

use ants_bench::experiments::{Experiment, RunConfig};
use ants_bench::WorkloadExperiment;
use ants_obs::{Counter, Phase, Telemetry};
use ants_sim::Granularity;
use std::path::PathBuf;

fn bundled(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads").join(name)
}

fn chi_zoo() -> WorkloadExperiment {
    WorkloadExperiment::from_file(&bundled("chi_tradeoff_zoo.toml")).expect("bundled spec loads")
}

/// The ISSUE's headline pin: a chi-zoo smoke run with `--telemetry`
/// (4 threads, agent granularity, chunk 3) is byte-identical to the
/// same run without it — CSV and text rendering both (the JSON envelope
/// differs only in `wall_ms`, which is excluded from both renderings).
#[test]
fn telemetry_never_changes_report_bytes() {
    let exp = chi_zoo();
    let cfg = RunConfig::smoke()
        .with_threads(Some(4))
        .with_granularity(Granularity::Agent)
        .with_chunk(Some(3));
    let bare = exp.run(&cfg);
    let observed = exp.run(&cfg.with_telemetry(Some(Telemetry::new())));
    assert_eq!(observed.to_csv(), bare.to_csv());
    assert_eq!(observed.to_string(), bare.to_string());
}

/// The same identity across the full scheduling matrix: threads {1, 4}
/// × granularity {trial, agent}. Whatever the pool does — serial
/// fallback, trial units, chunked agents with cap hints — the observed
/// run's bytes match the unobserved reference.
#[test]
fn telemetry_is_invariant_across_schedulers() {
    let exp = chi_zoo();
    let reference = exp.run(&RunConfig::smoke().with_threads(Some(1)));
    for threads in [1usize, 4] {
        for granularity in [Granularity::Trial, Granularity::Agent] {
            let cfg = RunConfig::smoke()
                .with_threads(Some(threads))
                .with_granularity(granularity)
                .with_telemetry(Some(Telemetry::new()));
            let got = exp.run(&cfg);
            assert_eq!(
                got.to_csv(),
                reference.to_csv(),
                "telemetry moved bytes at threads {threads}, {granularity:?}"
            );
        }
    }
}

/// The handle attached through [`RunConfig`] really observes the sweep:
/// pool units, engine steps, and phase spans are all nonzero after an
/// agent-granularity run — with or without the `parallel` feature, since
/// units count on the inline path too.
#[test]
fn attached_telemetry_observes_the_sweep() {
    let tele = Telemetry::new();
    let cfg = RunConfig::smoke()
        .with_threads(Some(4))
        .with_granularity(Granularity::Agent)
        .with_chunk(Some(3))
        .with_telemetry(Some(tele));
    chi_zoo().run(&cfg);
    let snap = tele.snapshot();
    assert!(snap.counter(Counter::PoolUnits) > 0, "no units counted");
    assert!(snap.counter(Counter::EngineSteps) > 0, "no engine steps counted");
    assert!(snap.counter(Counter::HintPolls) > 0, "no cap-hint polls counted");
    assert!(snap.phase_total_ns(Phase::Execute) > 0, "no execute span recorded");
    assert_eq!(
        snap.counter(Counter::PoolUnits),
        snap.worker_units.iter().sum::<u64>(),
        "per-worker shards must sum to the total"
    );
    assert!(!snap.plans.is_empty(), "no plan decisions recorded");
    assert!(snap.plans.iter().all(|p| p.granularity == "agent"), "forced granularity not echoed");
}
