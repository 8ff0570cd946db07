//! End-to-end tests of the `ants` binary: exit codes and the flag
//! surface, driven through the real executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ants(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ants"))
        .args(args)
        .current_dir(cwd)
        // An ambient ANTS_COMMIT (a developer shell, a CI job) would
        // hijack the trend --record content-hash assertions.
        .env_remove("ANTS_COMMIT")
        .output()
        .expect("spawn ants")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ants-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `ants validate` must exit non-zero when the report directory is
/// missing entirely — a battery run that wrote nothing can never
/// validate vacuously.
#[test]
fn validate_missing_directory_fails() {
    let cwd = temp_dir("validate-missing");
    // Default directory (target/reports relative to cwd): absent.
    let out = ants(&["validate"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("does not exist"), "stderr: {}", stderr(&out));
    // Explicit missing directory: same contract.
    let out = ants(&["validate", "no/such/dir"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&cwd).ok();
}

/// An existing directory with no reports is a failure too.
#[test]
fn validate_empty_directory_fails() {
    let cwd = temp_dir("validate-empty");
    let reports = cwd.join("reports");
    std::fs::create_dir_all(&reports).unwrap();
    let out = ants(&["validate", "reports"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no .json reports"), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// A well-formed report validates; a malformed one flips the exit code.
#[test]
fn validate_checks_report_schema() {
    let cwd = temp_dir("validate-schema");
    let reports = cwd.join("reports");
    std::fs::create_dir_all(&reports).unwrap();
    std::fs::write(
        reports.join("e0.json"),
        r#"{"schema":"ants-report/v1","id":"e0","columns":["x"],"rows":[[1]]}"#,
    )
    .unwrap();
    let out = ants(&["validate", "reports"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    std::fs::write(reports.join("bad.json"), r#"{"schema":"wrong/v0","rows":[[1]]}"#).unwrap();
    let out = ants(&["validate", "reports"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unexpected schema"), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants validate` reads reports through the shared reader, so a report
/// without a column list, or with a row wider than its columns, fails
/// (the gate would refuse either later).
#[test]
fn validate_rejects_missing_columns_and_ragged_rows() {
    let cwd = temp_dir("validate-shape");
    let reports = cwd.join("reports");
    std::fs::create_dir_all(&reports).unwrap();
    for (bad, why) in [
        (r#"{"schema":"ants-report/v1","id":"e0","rows":[[1]]}"#, "no columns"),
        (r#"{"schema":"ants-report/v1","id":"e0","columns":["x"],"rows":[[1,2]]}"#, "2 cells"),
    ] {
        std::fs::write(reports.join("e0.json"), bad).unwrap();
        let out = ants(&["validate", "reports"], &cwd);
        assert_eq!(out.status.code(), Some(1), "accepted {bad}");
        assert!(stderr(&out).contains(why), "stderr: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// The scheduling flag surface is accepted on a real run and the output
/// is identical across granularities (the CLI-level determinism
/// contract).
#[test]
fn granularity_flags_round_trip() {
    let cwd = temp_dir("granularity");
    let base = ants(&["run", "e4", "--smoke", "--threads", "2"], &cwd);
    assert_eq!(base.status.code(), Some(0), "stderr: {}", stderr(&base));
    for extra in [&["--granularity", "trial"][..], &["--granularity", "agent", "--chunk", "3"][..]]
    {
        let mut args = vec!["run", "e4", "--smoke", "--threads", "2"];
        args.extend_from_slice(extra);
        let out = ants(&args, &cwd);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert_eq!(
            out.stdout, base.stdout,
            "stdout drifted under {extra:?} — scheduling leaked into results"
        );
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// Bad scheduling flags are rejected with the usage exit code.
#[test]
fn bad_granularity_flags_are_rejected() {
    let cwd = temp_dir("bad-flags");
    for args in [
        &["list", "--granularity", "cell"][..],
        &["list", "--granularity"][..],
        &["list", "--chunk", "0"][..],
        &["run", "e4", "--chunk", "x"][..],
    ] {
        let out = ants(args, &cwd);
        assert_eq!(out.status.code(), Some(2), "args {args:?} stderr: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// A spec the workload CLI tests write into their temp cwd.
const TEST_SPEC: &str = r#"
name = "cli demo"

[defaults]
trials = 4
smoke_trials = 2
seed = 31

[[cells]]
name = "mixed"
agents = 5
target = { model = "ball", dist = 6 }
move_budget = 8000
population = [
  { strategy = "nonuniform(dist)", weight = 2 },
  { strategy = "randomwalk", weight = 1 },
  { strategy = "spiral", weight = 1 },
]
"#;

/// `ants workload validate` accepts a good spec, rejects a broken one
/// (naming the failing key), and exits non-zero.
#[test]
fn workload_validate_exit_codes() {
    let cwd = temp_dir("wl-validate");
    std::fs::write(cwd.join("good.toml"), TEST_SPEC).unwrap();
    std::fs::write(cwd.join("bad.toml"), TEST_SPEC.replace("nonuniform(dist)", "warpdrive(9)"))
        .unwrap();
    let out = ants(&["workload", "validate", "good.toml"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("key cli-demo"), "stdout: {stdout}");
    let out = ants(&["workload", "validate", "good.toml", "bad.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown strategy"), "stderr: {}", stderr(&out));
    // A missing file fails too.
    let out = ants(&["workload", "validate", "no-such.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants workload run --json` writes a report keyed by the spec name
/// that `ants validate` accepts, and the stdout is byte-identical
/// across granularities at a fixed thread count.
#[test]
fn workload_run_writes_report_and_is_schedule_invariant() {
    let cwd = temp_dir("wl-run");
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    let base = ants(&["workload", "run", "spec.toml", "--smoke", "--threads", "2", "--json"], &cwd);
    assert_eq!(base.status.code(), Some(0), "stderr: {}", stderr(&base));
    assert!(cwd.join("target/reports/cli-demo.json").is_file());
    let out = ants(&["validate", "target/reports"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    for extra in [&["--granularity", "trial"][..], &["--granularity", "agent", "--chunk", "2"][..]]
    {
        let mut args = vec!["workload", "run", "spec.toml", "--smoke", "--threads", "2", "--json"];
        args.extend_from_slice(extra);
        let out = ants(&args, &cwd);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert_eq!(
            out.stdout, base.stdout,
            "workload stdout drifted under {extra:?} — scheduling leaked into results"
        );
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants workload list` prints the expanded plan; a broken file exits 1.
#[test]
fn workload_list_prints_the_plan() {
    let cwd = temp_dir("wl-list");
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    let out = ants(&["workload", "list", "spec.toml"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("2:nonuniform(6) + 1:randomwalk + 1:spiral"), "stdout: {stdout}");
    assert!(stdout.contains("ball(6)"), "stdout: {stdout}");
    std::fs::write(cwd.join("broken.toml"), "name = \n").unwrap();
    let out = ants(&["workload", "list", "broken.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants workload run --metrics coverage` on a metric-less spec appends
/// the coverage columns to the report, and a spec-declared `metrics`
/// key does the same without any flag.
#[test]
fn workload_metrics_flag_and_spec_key_add_columns() {
    let cwd = temp_dir("wl-metrics");
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    let out = ants(
        &["workload", "run", "spec.toml", "--smoke", "--metrics", "coverage,found_round", "--json"],
        &cwd,
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("coverage"), "stdout: {stdout}");
    assert!(stdout.contains("found@R"), "stdout: {stdout}");
    let report = std::fs::read_to_string(cwd.join("target/reports/cli-demo.json")).unwrap();
    assert!(report.contains("\"adversarial left\""), "report: {report}");
    assert!(report.contains("\"metrics\":\"coverage,found_round\""), "report: {report}");

    // The spec-level key needs no flag.
    let spec_with_metrics = TEST_SPEC
        .replace("name = \"cli demo\"", "name = \"cli demo keyed\"\nmetrics = [\"coverage\"]");
    std::fs::write(cwd.join("keyed.toml"), spec_with_metrics).unwrap();
    let out = ants(&["workload", "run", "keyed.toml", "--smoke"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("adversarial left"), "stdout: {stdout}");

    // Bad metric names are rejected with the usage exit code.
    let out = ants(&["workload", "run", "spec.toml", "--metrics", "warp"], &cwd);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown metric"), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// A fully Markovian spec: every cell is exactly evaluable by the DP
/// backend.
const DP_SPEC: &str = r#"
name = "cli dp"

[defaults]
trials = 64
smoke_trials = 16

[[cells]]
name = "walk"
agents = 2
move_budget = 16
target = { model = "fixed", x = 1, y = 1 }
population = [ { strategy = "randomwalk" } ]
"#;

/// A heavy-tailed cell the exact backend must refuse.
const LEVY_SPEC: &str = r#"
name = "cli levy"

[defaults]
trials = 8

[[cells]]
name = "heavy"
agents = 1
move_budget = 32
target = { model = "fixed", x = 2, y = 0 }
population = [ { strategy = "levy(2.0, 64)" } ]
"#;

/// `--backend dp` routes a Markovian workload onto the exact backend
/// (the `exact` column flips to true) and is rejected — naming the
/// strategy — when any cell is not Markovian.
#[test]
fn workload_backend_flag_routes_and_validates() {
    let cwd = temp_dir("wl-backend");
    std::fs::write(cwd.join("dp.toml"), DP_SPEC).unwrap();
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    let out = ants(&["workload", "run", "dp.toml", "--smoke", "--backend", "dp", "--csv"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("exact"), "stdout: {stdout}");
    assert!(stdout.contains(",true"), "stdout: {stdout}");
    // The same spec on the sampler: exact stays false.
    let out = ants(&["workload", "run", "dp.toml", "--smoke", "--backend", "mc", "--csv"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains(",false"));
    // TEST_SPEC carries a spiral walker: a forced dp backend must fail
    // validation before any trial runs, naming the strategy.
    let out = ants(&["workload", "run", "spec.toml", "--smoke", "--backend", "dp"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("spiral"), "stderr: {}", stderr(&out));
    // Unknown backend names get the usage exit code.
    let out = ants(&["workload", "run", "dp.toml", "--backend", "exact"], &cwd);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown backend"), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// A forced dense table past its guard is refused mid-run with an
/// `error:` line and exit 1, not a panic; sparse storage solves the
/// same cell.
#[test]
fn workload_run_reports_a_forced_dense_guard_as_an_error() {
    let cwd = temp_dir("wl-dense-guard");
    // mortal(randomwalk, 1000) at budget 64 wants 1001 x 129^2 dense
    // entries, past MAX_TABLE_ENTRIES.
    let spec = DP_SPEC
        .replace("move_budget = 16", "move_budget = 64")
        .replace("\"randomwalk\"", "\"mortal(randomwalk, 1000)\"");
    std::fs::write(cwd.join("big.toml"), spec).unwrap();
    let run = |mode: &str| {
        ants(
            &["workload", "run", "big.toml", "--smoke", "--backend", "dp", "--dp-mode", mode],
            &cwd,
        )
    };
    let out = run("dense");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("error: "), "stderr: {err}");
    assert!(err.contains("--dp-mode sparse"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    let out = run("sparse");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// A spec-level `backend = "dp"` on a non-Markovian cell fails
/// `ants workload validate` with a spec-path error naming the strategy.
#[test]
fn workload_validate_rejects_dp_on_non_markovian_cells() {
    let cwd = temp_dir("wl-backend-validate");
    let spec = LEVY_SPEC.replace("move_budget = 32", "move_budget = 32\nbackend = \"dp\"");
    std::fs::write(cwd.join("levy.toml"), spec).unwrap();
    let out = ants(&["workload", "validate", "levy.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("'levy"), "stderr: {err}");
    assert!(err.contains("not Markovian"), "stderr: {err}");
    assert!(err.contains("population[0]"), "stderr: {err}");
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants workload crosscheck`: a Markovian spec passes (exit 0), a spec
/// with nothing the DP can evaluate is vacuous (exit 1), and a missing
/// file fails.
#[test]
fn workload_crosscheck_exit_codes() {
    let cwd = temp_dir("wl-crosscheck");
    std::fs::write(cwd.join("dp.toml"), DP_SPEC).unwrap();
    std::fs::write(cwd.join("levy.toml"), LEVY_SPEC).unwrap();
    let out = ants(&["workload", "crosscheck", "dp.toml", "--threads", "2"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("pass walk"), "stdout: {stdout}");
    assert!(stdout.contains("1 checked, 0 skipped, 0 failed"), "stdout: {stdout}");
    // All cells skipped: the comparison would be vacuous, so it fails.
    let out = ants(&["workload", "crosscheck", "levy.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("no crosscheckable cells"), "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("skip heavy"));
    let out = ants(&["workload", "crosscheck", "no-such.toml"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&cwd).ok();
}

/// The built-in harnesses are Monte Carlo only: `--backend dp` on
/// `ants run`/`ants all` is an error pointing at the workload surface.
#[test]
fn run_rejects_dp_backend_on_builtins() {
    let cwd = temp_dir("run-backend");
    for args in [&["run", "e4", "--smoke", "--backend", "dp"][..], &["all", "--backend", "dp"][..]]
    {
        let out = ants(args, &cwd);
        assert_eq!(out.status.code(), Some(2), "args {args:?} stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("ants workload run"), "stderr: {}", stderr(&out));
    }
    // `--backend mc` is the default engine: accepted everywhere.
    let out = ants(&["run", "e4", "--smoke", "--backend", "mc"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants trend history <dir>` prints oldest-first per-cell timelines
/// across recorded snapshots and fails on an empty or missing root.
#[test]
fn trend_history_prints_timelines() {
    let cwd = temp_dir("trend-history");
    let reports = cwd.join("target/reports");
    std::fs::create_dir_all(&reports).unwrap();
    let report = |x: f64| {
        format!(
            r#"{{"schema":"ants-report/v1","id":"w","columns":["cell","x"],"rows":[["r",{x}]]}}"#
        )
    };
    std::fs::write(reports.join("w.json"), report(2.0)).unwrap();
    let out = ants(&["trend", "--record", "history", "--commit", "aaa"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    std::fs::write(reports.join("w.json"), report(3.5)).unwrap();
    let out = ants(&["trend", "--record", "history", "--commit", "bbb"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    let out = ants(&["trend", "history", "history"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("2 snapshot(s)"), "stdout: {stdout}");
    assert!(stdout.contains("order: aaa -> bbb"), "stdout: {stdout}");
    assert!(stdout.contains("x: 2 -> 3.5"), "stdout: {stdout}");

    // A snapshot that never ran the report shows a gap, not a crash.
    std::fs::create_dir_all(cwd.join("history/ccc")).unwrap();
    std::fs::write(
        cwd.join("history/ccc/other.json"),
        r#"{"schema":"ants-report/v1","id":"o","columns":["cell","y"],"rows":[["q",1]]}"#,
    )
    .unwrap();
    let out = ants(&["trend", "history", "history"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("x: 2 -> 3.5 -> -"), "stdout: {stdout}");
    assert!(stdout.contains("y: - -> - -> 1"), "stdout: {stdout}");

    // Unparseable snapshot contents fail the exit code.
    std::fs::write(cwd.join("history/ccc/bad.json"), "{").unwrap();
    let out = ants(&["trend", "history", "history"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));

    // Empty root and missing root both fail loudly.
    std::fs::create_dir_all(cwd.join("empty")).unwrap();
    for root in ["empty", "no-such-dir"] {
        let out = ants(&["trend", "history", root], &cwd);
        assert_eq!(out.status.code(), Some(1), "root {root:?} stderr: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// An E1-shaped report repeats its first-column labels (16, 16, 32,
/// 32): history prints one timeline per row, keyed `16`, `16#2`, ...
#[test]
fn trend_history_keeps_repeated_labels_apart() {
    let cwd = temp_dir("trend-history-repeats");
    let reports = cwd.join("target/reports");
    std::fs::create_dir_all(&reports).unwrap();
    std::fs::write(
        reports.join("e1.json"),
        r#"{"schema":"ants-report/v1","id":"e1","columns":["D","moves"],
            "rows":[[16,1.5],[16,2.5],[32,3.5],[32,4.5]]}"#,
    )
    .unwrap();
    let out = ants(&["trend", "--record", "history", "--commit", "aaa"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let out = ants(&["trend", "history", "history"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(stdout.matches("    moves: ").count(), 4, "stdout: {stdout}");
    for (key, moves) in [("16", "1.5"), ("16#2", "2.5"), ("32", "3.5"), ("32#2", "4.5")] {
        let row = format!("  D {key}:\n    moves: {moves}\n");
        assert!(stdout.contains(&row), "missing {row:?} in stdout: {stdout}");
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants trend A B` matches rows by key: one new row at the top of B is
/// one changed row, not a shift of every row below it.
#[test]
fn trend_matches_rows_by_key() {
    let cwd = temp_dir("trend-keyed");
    let (a, b) = (cwd.join("a"), cwd.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let report = |rows: &str| {
        format!(
            r#"{{"schema":"ants-report/v1","id":"e1","columns":["D","moves"],"rows":[{rows}]}}"#
        )
    };
    let rows = "[16,1.5],[16,2.5],[32,3.5],[32,4.5]";
    std::fs::write(a.join("e1.json"), report(rows)).unwrap();
    std::fs::write(b.join("e1.json"), report(&format!("[8,0.5],{rows}"))).unwrap();
    let out = ants(&["trend", "a", "b"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("e1.json: 1 changed row(s), 0 changed field(s)"), "stdout: {stdout}");
    assert!(stdout.contains("e1.json row 8: new in B"), "stdout: {stdout}");
    assert!(stdout.contains("0 identical, 1 changed, 0 failure(s)"), "stdout: {stdout}");
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants trend --record <dir>` snapshots the report directory into a
/// per-commit subdirectory: flag, env var, and content-hash addressing.
#[test]
fn trend_record_snapshots_reports() {
    let cwd = temp_dir("trend-record");
    let reports = cwd.join("target/reports");
    std::fs::create_dir_all(&reports).unwrap();
    std::fs::write(
        reports.join("e9.json"),
        r#"{"schema":"ants-report/v1","id":"e9","columns":["x"],"rows":[[1]]}"#,
    )
    .unwrap();

    // Explicit --commit: files land in <dir>/<commit>/.
    let out = ants(&["trend", "--record", "history", "--commit", "abc123"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(cwd.join("history/abc123/e9.json").is_file());

    // The snapshot diffs cleanly against the live reports.
    let out = ants(&["trend", "target/reports", "history/abc123"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("rows identical"), "stdout: {stdout}");

    // No commit anywhere: content addressing kicks in, and recording the
    // same content twice is idempotent (same directory).
    let out = ants(&["trend", "--record", "history"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("history/content-"), "stdout: {stdout}");
    let out2 = ants(&["trend", "--record", "history"], &cwd);
    assert_eq!(String::from_utf8_lossy(&out2.stdout), stdout, "content addressing must be stable");

    // --reports points at a different source directory.
    let out = ants(
        &["trend", "--record", "history", "--commit", "def456", "--reports", "target/reports"],
        &cwd,
    );
    assert_eq!(out.status.code(), Some(0));
    assert!(cwd.join("history/def456/e9.json").is_file());

    // An empty source directory fails loudly.
    std::fs::remove_file(reports.join("e9.json")).unwrap();
    let out = ants(&["trend", "--record", "history", "--commit", "zzz"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no .json reports"), "stderr: {}", stderr(&out));

    // Unsafe commit ids are rejected — including the dot-only names
    // that would escape or collapse into the destination directory.
    std::fs::write(reports.join("e9.json"), "{}").unwrap();
    for bad in ["../escape", "..", ".", "...", "a/b"] {
        let out = ants(&["trend", "--record", "history", "--commit", bad], &cwd);
        assert_eq!(out.status.code(), Some(1), "commit id {bad:?} must be rejected");
        assert!(stderr(&out).contains("not a safe directory name"), "stderr: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&cwd).ok();
}

/// The `ANTS_COMMIT` environment variable names the snapshot when no
/// `--commit` flag is given.
#[test]
fn trend_record_reads_commit_from_env() {
    let cwd = temp_dir("trend-record-env");
    let reports = cwd.join("target/reports");
    std::fs::create_dir_all(&reports).unwrap();
    std::fs::write(
        reports.join("w.json"),
        r#"{"schema":"ants-report/v1","id":"w","columns":["x"],"rows":[[2]]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ants"))
        .args(["trend", "--record", "snaps"])
        .env("ANTS_COMMIT", "envhash9")
        .current_dir(&cwd)
        .output()
        .expect("spawn ants");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(cwd.join("snaps/envhash9/w.json").is_file());
    std::fs::remove_dir_all(&cwd).ok();
}

/// Keeps the `ants serve` child from outliving a failed test.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `ants serve --cache <cwd>/cache` and wait for the discovery
/// file. `--threads 2` pins the pooled scheduler so cache-hit
/// assertions about pool work are not vacuous on single-core machines.
fn spawn_daemon(cwd: &Path) -> DaemonGuard {
    let child = Command::new(env!("CARGO_BIN_EXE_ants"))
        .args(["serve", "--cache", "cache", "--threads", "2", "--commit", "clitest"])
        .current_dir(cwd)
        .env_remove("ANTS_COMMIT")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn ants serve");
    let mut guard = DaemonGuard(child);
    let addr_file = cwd.join("cache/serve.addr");
    for _ in 0..200 {
        if addr_file.is_file() {
            return guard;
        }
        if let Some(status) = guard.0.try_wait().expect("poll daemon") {
            panic!("daemon exited during startup: {status}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("daemon never wrote {}", addr_file.display());
}

/// The full daemon round trip through the real binary: a miss, a
/// byte-identical hit, stats, a failing drift gate, and shutdown.
#[test]
fn serve_and_query_end_to_end() {
    let cwd = temp_dir("serve-e2e");
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    let mut daemon = spawn_daemon(&cwd);

    // First submission is a miss and streams the body to stdout.
    let submit = ["query", "submit", "spec.toml", "--cache", "cache", "--smoke"];
    let miss = ants(&submit, &cwd);
    assert_eq!(miss.status.code(), Some(0), "stderr: {}", stderr(&miss));
    assert!(stderr(&miss).contains("cache miss"), "stderr: {}", stderr(&miss));
    let body = String::from_utf8_lossy(&miss.stdout).into_owned();
    assert!(body.contains("\"event\":\"cell\""), "stdout: {body}");
    assert!(body.contains("\"event\":\"report\""), "stdout: {body}");
    assert!(body.contains("ants-report/v1"), "stdout: {body}");

    // Resubmitting the identical spec is a hit with a byte-identical
    // body — the shell-level statement of the cache contract.
    let hit = ants(&submit, &cwd);
    assert_eq!(hit.status.code(), Some(0), "stderr: {}", stderr(&hit));
    assert!(stderr(&hit).contains("cache hit"), "stderr: {}", stderr(&hit));
    assert_eq!(hit.stdout, miss.stdout, "cache hit body drifted from the original response");

    let stats = ants(&["query", "stats", "--cache", "cache"], &cwd);
    assert_eq!(stats.status.code(), Some(0), "stderr: {}", stderr(&stats));
    let stats_out = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats_out.contains("\"event\":\"stats\""), "stdout: {stats_out}");
    assert!(stats_out.contains("\"hits\":1"), "stdout: {stats_out}");
    assert!(stats_out.contains("\"misses\":1"), "stdout: {stats_out}");

    // A different seed drifts the metrics: the gate runs the cell (a
    // miss under its own key), compares against the seed-31 baseline,
    // and fails loudly.
    let gate =
        ants(&["query", "gate", "spec.toml", "--cache", "cache", "--smoke", "--seed", "99"], &cwd);
    assert_eq!(gate.status.code(), Some(1), "stderr: {}", stderr(&gate));
    let gate_out = String::from_utf8_lossy(&gate.stdout).into_owned();
    assert!(gate_out.contains("\"event\":\"gate\""), "stdout: {gate_out}");
    assert!(gate_out.contains("\"pass\":false"), "stdout: {gate_out}");
    assert!(stderr(&gate).contains("gate: FAIL"), "stderr: {}", stderr(&gate));

    // Shutdown stops the daemon and removes the discovery file.
    let down = ants(&["query", "shutdown", "--cache", "cache"], &cwd);
    assert_eq!(down.status.code(), Some(0), "stderr: {}", stderr(&down));
    let status = daemon.0.wait().expect("join daemon");
    assert!(status.success(), "daemon exit: {status}");
    assert!(!cwd.join("cache/serve.addr").is_file(), "serve.addr must be removed on shutdown");
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants query` argument errors exit non-zero without a daemon: missing
/// op, missing spec file, no address, and a stale cache directory.
#[test]
fn query_argument_errors_fail_loudly() {
    let cwd = temp_dir("query-args");
    std::fs::write(cwd.join("spec.toml"), TEST_SPEC).unwrap();
    std::fs::create_dir_all(cwd.join("stale")).unwrap();
    for args in [
        &["query"][..],
        &["query", "warp"][..],
        &["query", "submit"][..],
        &["query", "submit", "spec.toml"][..],
        &["query", "submit", "no-such.toml", "--cache", "stale"][..],
        &["query", "stats", "--cache", "stale"][..],
        &["query", "stats", "--addr", "x", "--cache", "stale"][..],
    ] {
        let out = ants(args, &cwd);
        assert_eq!(out.status.code(), Some(1), "args {args:?} stderr: {}", stderr(&out));
    }
    // The stale-cache error points at how to start the daemon.
    let out = ants(&["query", "stats", "--cache", "stale"], &cwd);
    assert!(stderr(&out).contains("ants serve"), "stderr: {}", stderr(&out));
    std::fs::remove_dir_all(&cwd).ok();
}

/// `ants trend`: identical reports exit 0, numeric drift is reported
/// per row but still exits 0, schema mismatches exit 1, and one-sided
/// reports are flagged.
#[test]
fn trend_diffs_report_directories() {
    let cwd = temp_dir("trend");
    let (a, b) = (cwd.join("a"), cwd.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let report = |x: f64| {
        format!(
            "{{\"schema\":\"ants-report/v1\",\"id\":\"w\",\"title\":\"t\",\"claim\":\"c\",\
             \"effort\":\"smoke\",\"seed\":0,\"threads\":null,\"wall_ms\":1.5,\"params\":{{}},\
             \"columns\":[\"cell\",\"x\"],\"rows\":[[\"r\",{x}]]}}"
        )
    };
    std::fs::write(a.join("w.json"), report(2.0)).unwrap();
    std::fs::write(b.join("w.json"), report(2.0)).unwrap();
    std::fs::write(a.join("gone.json"), report(1.0)).unwrap();
    let out = ants(&["trend", "a", "b"], &cwd);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("w.json: rows identical"), "stdout: {stdout}");
    assert!(stdout.contains("gone.json: missing in"), "stdout: {stdout}");

    // Numeric drift: reported with a delta, exit stays 0.
    std::fs::write(b.join("w.json"), report(3.5)).unwrap();
    let out = ants(&["trend", "a", "b"], &cwd);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("2 -> 3.5"), "stdout: {stdout}");
    assert!(stdout.contains("+1.5"), "stdout: {stdout}");

    // Schema mismatch: exit 1.
    std::fs::write(b.join("w.json"), report(2.0).replace("ants-report/v1", "other/v9")).unwrap();
    let out = ants(&["trend", "a", "b"], &cwd);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));

    // Column mismatch is a schema failure too.
    std::fs::write(b.join("w.json"), report(2.0).replace("\"x\"", "\"y\"")).unwrap();
    let out = ants(&["trend", "a", "b"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("schema mismatch"), "stderr: {}", stderr(&out));

    // Missing directory: exit 1.
    let out = ants(&["trend", "a", "nope"], &cwd);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&cwd).ok();
}
