//! Workload-experiment integration: the bundled χ-zoo spec's report is
//! pinned to a golden, and — the subsystem's acceptance contract — its
//! rows are byte-identical across `--threads 1` and
//! `--threads 4 --granularity agent --chunk 3`.

use ants_bench::experiments::{Effort, Experiment, RunConfig};
use ants_bench::WorkloadExperiment;
use ants_sim::Granularity;
use std::path::PathBuf;

fn bundled(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads").join(name)
}

fn chi_zoo() -> WorkloadExperiment {
    WorkloadExperiment::from_file(&bundled("chi_tradeoff_zoo.toml")).expect("bundled spec loads")
}

/// The golden: the bundled χ-zoo spec at smoke effort, seed 0. Rendered
/// CSV is pinned byte for byte — a change here is a change to the
/// engine's numeric output (seeding, assignment, reduction) or to the
/// spec file, and must be deliberate.
#[test]
fn chi_zoo_smoke_report_matches_golden() {
    let report = chi_zoo().run(&RunConfig::smoke());
    let golden = "\
cell,population,target,n,trials,found,success,median moves,mean moves,max chi,exact
race/n4/d8,\"2:nonuniform(8) + 2:coin(8, 1) + 2:uniform(1, 4, 2) + 1:harmonic(4) + 1:automaton(alg1, 4) + 2:randomwalk\",ball(8),4,4,4,1.000,41.0,89.8,15.0,false
race/n4/d16,\"2:nonuniform(16) + 2:coin(16, 1) + 2:uniform(1, 4, 2) + 1:harmonic(4) + 1:automaton(alg1, 4) + 2:randomwalk\",ball(16),4,4,4,1.000,166.5,436.0,27.0,false
race/n16/d8,\"2:nonuniform(8) + 2:coin(8, 1) + 2:uniform(1, 16, 2) + 1:harmonic(16) + 1:automaton(alg1, 4) + 2:randomwalk\",ball(8),16,4,4,1.000,38.0,37.5,38.0,false
race/n16/d16,\"2:nonuniform(16) + 2:coin(16, 1) + 2:uniform(1, 16, 2) + 1:harmonic(16) + 1:automaton(alg1, 4) + 2:randomwalk\",ball(16),16,4,4,1.000,204.5,250.5,46.0,false
";
    assert_eq!(report.to_csv(), golden);
}

/// Acceptance pin: the mixed-population workload's data output is
/// byte-identical across `--threads 1` and
/// `--threads 4 --granularity agent --chunk 3` (and a trial-granularity
/// control). Only the `threads`/`wall_ms` stamps in the JSON envelope
/// may differ between the runs.
#[test]
fn chi_zoo_rows_are_byte_identical_across_schedulers() {
    let exp = chi_zoo();
    let reference = exp.run(&RunConfig::smoke().with_threads(Some(1)));
    let configs = [
        RunConfig::smoke()
            .with_threads(Some(4))
            .with_granularity(Granularity::Agent)
            .with_chunk(Some(3)),
        RunConfig::smoke().with_threads(Some(4)).with_granularity(Granularity::Trial),
        RunConfig::smoke().with_threads(Some(2)).with_granularity(Granularity::Agent),
    ];
    for cfg in configs {
        let got = exp.run(&cfg);
        assert_eq!(
            got.to_csv(),
            reference.to_csv(),
            "rows diverged at threads {:?}, {:?}, chunk {:?}",
            cfg.threads,
            cfg.granularity,
            cfg.chunk
        );
        assert_eq!(got.records(), reference.records(), "typed records must agree too");
    }
}

/// Every bundled spec runs end-to-end at smoke effort and produces a
/// validating report document.
#[test]
fn every_bundled_spec_smoke_runs() {
    for name in [
        "chi_tradeoff_zoo.toml",
        "mixed_targets.toml",
        "adversarial_battery.toml",
        "speculation_stress.toml",
        "dp_crosscheck.toml",
    ] {
        let exp = WorkloadExperiment::from_file(&bundled(name)).expect("spec loads");
        let report = exp.run(&RunConfig::smoke());
        assert!(!report.is_empty(), "{name}: no rows");
        assert_eq!(report.len(), exp.config(Effort::Smoke).cells, "{name}: row/cell mismatch");
        let parsed = ants_sim::json::Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some("ants-report/v1"), "{name}");
    }
}

/// A nested `mortal(mortal(..), ..)` entry runs to a report: once the
/// inner wrapper expires the outer one must report halted too, or the
/// move-bounded agent loop spins forever on an agent that never moves.
/// The run happens on a helper thread so a regression fails the test
/// instead of hanging the suite.
#[test]
fn nested_mortal_spec_runs_to_a_report() {
    const SPEC: &str = r#"
name = "nested-mortal"

[[cells]]
name = "nested"
agents = 2
trials = 2
move_budget = 5000
target = { model = "ball", dist = 6 }
population = [{ strategy = "mortal(mortal(randomwalk, 3), 100)", weight = 1 }]
"#;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = ants_workload::WorkloadSpec::parse(SPEC).expect("spec parses");
        let plan = ants_workload::WorkloadPlan::expand(&spec).expect("plan expands");
        let report = WorkloadExperiment::new(plan).run(&RunConfig::smoke());
        let _ = tx.send(report.to_csv());
    });
    let csv = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the nested mortal spec must finish");
    assert!(csv.contains("nested"), "{csv}");
}

/// The adversarial battery's claim actually holds in the data: the
/// above-threshold comparator cell beats the low-χ zoo's success rate
/// on the adversarial corner at standard effort.
#[test]
fn adversarial_battery_separates_low_chi_from_comparator() {
    let exp = WorkloadExperiment::from_file(&bundled("adversarial_battery.toml")).expect("loads");
    let report = exp.run(&RunConfig::standard());
    // Rows: lowchi/corner, lowchi/ring, comparator/corner, comparator/ring.
    let low_corner = report.num(0, "success");
    let cmp_corner = report.num(2, "success");
    assert!(
        cmp_corner > low_corner,
        "comparator ({cmp_corner}) must beat the low-chi zoo ({low_corner}) on the corner"
    );
    assert!(cmp_corner > 0.9, "comparator should nearly always find the corner: {cmp_corner}");
}
