//! Byte pins for the exact backend: the rendered `--backend dp` CSV of
//! two specs, under several table representations, is hashed and pinned.
//! The CSV rounds every number, so each run also pins a digest of its
//! full-precision records (`Debug` prints the shortest round-trip form
//! of every f64): any change to the forward DP's summation order,
//! pruning, folding or absorption shows up there as a changed digest.
//! A third digest covers the whole JSON report (wall clock stamped to
//! zero), so the report writer's bytes are pinned on real records too.
//!
//! The two specs:
//!
//! * the bundled `dp_crosscheck.toml`, under `Auto` (its over-budget
//!   cell pins `dp_mode = "sparse"`) and under a forced sparse frontier;
//! * a test-owned spec with `coverage` and `found_round` metrics, so both
//!   clocks run: targets sit on an axis, on both diagonals and off-axis,
//!   the population covers coin flips (`None` steps), oracle returns
//!   (`Origin` steps), truncation states and a mortal kernel's dead
//!   state, and cells pin dense and sparse storage. Every bounds cell of
//!   the coverage sweep is its own solve, so folded and unfolded
//!   step-clock solves run in every cell. It runs with its own
//!   `dp_mode` keys, forced dense and forced sparse.

use ants_bench::experiments::{Effort, RunConfig};
use ants_bench::WorkloadExperiment;
use ants_dp::{Backend, DpMode};
use ants_workload::Fnv128;
use std::path::{Path, PathBuf};

const OWN_SPEC: &str = r#"
name = "dp-bytes"
description = "exact-backend byte pin: both clocks, both storages, folded and unfolded solves"
metrics = ["coverage", "found_round"]

[defaults]
trials = 100
smoke_trials = 10
seed = 5

[[cells]]
name = "walk/axis"
agents = 2
move_budget = 32
target = { model = "fixed", x = 3, y = 0 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "walk/diagonal"
agents = 2
move_budget = 32
dp_mode = "sparse"
target = { model = "fixed", x = 2, y = 2 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "walk/off-axis"
agents = 3
move_budget = 32
dp_mode = "sparse"
target = { model = "fixed", x = 2, y = 1 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "nonuniform/off-axis"
agents = 2
move_budget = 40
dp_mode = "sparse"
target = { model = "fixed", x = 1, y = -2 }
population = [ { strategy = "nonuniform(4)" } ]

[[cells]]
name = "uniform/axis"
agents = 2
move_budget = 24
dp_mode = "dense"
target = { model = "fixed", x = 0, y = 2 }
population = [ { strategy = "uniform(1, agents, 2)" } ]

[[cells]]
name = "mortal/ring"
agents = 3
move_budget = 24
dp_mode = "sparse"
target = { model = "ring", dist = 1 }
population = [ { strategy = "mortal(randomwalk, 6)" } ]

[[cells]]
name = "mixed/anti-diagonal"
agents = 2
move_budget = 32
target = { model = "fixed", x = -2, y = 2 }
population = [
  { strategy = "coin(4, 1)", weight = 1 },
  { strategy = "randomwalk", weight = 1 },
]
"#;

fn bundled(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads").join(name)
}

fn fnv(text: &str) -> String {
    let mut h = Fnv128::new();
    h.write(text.as_bytes());
    h.finish_hex()
}

/// The Fnv128 digests of `spec`'s exact-backend report under `mode`:
/// its CSV, its full-precision records, and its JSON document.
fn dp_hashes(spec: &Path, mode: Option<DpMode>) -> (String, String, String) {
    let exp = WorkloadExperiment::from_file(spec).expect("spec loads");
    let cfg = RunConfig::new(Effort::Standard).with_backend(Some(Backend::Dp)).with_dp_mode(mode);
    let mut report = exp.try_run(&cfg).expect("exact run succeeds");
    report.set_wall_ms(0.0);
    (fnv(&report.to_csv()), fnv(&format!("{:?}", report.records())), fnv(&report.to_json()))
}

#[test]
fn dp_csv_bytes_are_pinned() {
    let own = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dp_bytes.toml");
    std::fs::write(&own, OWN_SPEC).expect("write the test spec");
    let crosscheck = bundled("dp_crosscheck.toml");
    let got = [
        ("dp_crosscheck/auto", dp_hashes(&crosscheck, None)),
        ("dp_crosscheck/sparse", dp_hashes(&crosscheck, Some(DpMode::Sparse))),
        ("dp_bytes/spec", dp_hashes(&own, None)),
        ("dp_bytes/dense", dp_hashes(&own, Some(DpMode::Dense))),
        ("dp_bytes/sparse", dp_hashes(&own, Some(DpMode::Sparse))),
    ];
    // (run, CSV digest, full-precision records digest, JSON digest).
    // Folding moves last ulps only, so the rounded CSV is the same in
    // every mode.
    const CROSSCHECK_CSV: &str = "124f330fcb0ed110aa34b1be5e8d2ea6";
    const OWN_CSV: &str = "5144ee3285ba50190ac0c7455697c5e4";
    let pinned = [
        (
            "dp_crosscheck/auto",
            CROSSCHECK_CSV,
            "7cfb501c574f25038b64efe4d604666c",
            "15bf58b3882ccc9fa8d1d3e848e7c672",
        ),
        (
            "dp_crosscheck/sparse",
            CROSSCHECK_CSV,
            "b24e859fb7af1a84b312d20978e6921b",
            "9d2752473d45c6b306a59a83ce413a23",
        ),
        (
            "dp_bytes/spec",
            OWN_CSV,
            "957e488a230a2a195e3921c8a4bf5a69",
            "7731ddb2250c606d2f3520dcd7f8665f",
        ),
        (
            "dp_bytes/dense",
            OWN_CSV,
            "dc92841c1f94dee3d69367c2978fa50f",
            "62dea66d77595909a7999dd4b9d78e63",
        ),
        (
            "dp_bytes/sparse",
            OWN_CSV,
            "957e488a230a2a195e3921c8a4bf5a69",
            "7731ddb2250c606d2f3520dcd7f8665f",
        ),
    ];
    for ((name, (csv, records, json)), (_, want_csv, want_records, want_json)) in
        got.iter().zip(pinned)
    {
        assert_eq!(csv, want_csv, "{name}: CSV bytes changed (all digests: {got:?})");
        assert_eq!(records, want_records, "{name}: records changed (all digests: {got:?})");
        assert_eq!(json, want_json, "{name}: JSON bytes changed (all digests: {got:?})");
    }
}
