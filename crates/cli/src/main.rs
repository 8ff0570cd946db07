//! `ants` — the experiment runner.
//!
//! ```text
//! ants list [--smoke]            # list experiments, claims, workloads
//! ants run <id> [flags]          # run one experiment (e.g. `ants run e7`)
//! ants all [flags]               # run the whole battery
//! ants demo [D]                  # coverage of low- vs high-chi agents
//! ants validate [dir]            # validate emitted JSON reports
//! ants workload run <file>       # run a declarative workload spec
//! ants profile <file>            # run a spec with telemetry forced on:
//!                                #   per-cell wall clock, phase breakdown
//!                                #   (plan -> execute -> reduce -> report),
//!                                #   counters, and plan decisions
//! ants workload validate <f>...  # parse + expand + validate spec files
//! ants workload list <file>      # print a spec's expanded plan
//! ants workload crosscheck <f>   # MC vs exact-DP Wilson cross-validation
//! ants trend <dir-a> <dir-b>     # diff two report directories
//! ants trend --record <dir>      # snapshot target/reports per commit
//!                                #   [--commit H] [--reports DIR]
//!                                #   (commit also read from $ANTS_COMMIT;
//!                                #    falls back to a content hash)
//! ants trend history <dir>       # per-cell timelines across snapshots
//! ants serve --cache <dir>       # content-addressed workload daemon
//!                                #   [--listen H:P] [--commit H]
//!                                #   [--threads K] [--granularity G]
//!                                #   [--chunk N]
//! ants query submit <file>       # submit a spec (body -> stdout)
//! ants query gate <file>         # submit + drift-gate vs newest entry
//!                                #   (exit 1 on drift)
//! ants query stats|shutdown      # daemon counters / stop the daemon
//!                                #   query targets: --addr H:P or
//!                                #   --cache <dir> (discovery file)
//!
//! flags: --smoke | --effort smoke|standard   effort (default standard)
//!        --seed N                            shift every sweep's seeds
//!        --threads K                         pin the sweep thread pool
//!        --granularity auto|trial|agent      sweep unit of work (default auto)
//!        --chunk N                           agents per chunk (agent granularity)
//!        --metrics a,b,...                   observation columns for workload
//!                                            runs (coverage, first_visit,
//!                                            round_trace, chi, found_round)
//!        --backend mc|dp                     force every workload cell onto
//!                                            the Monte Carlo pool or the
//!                                            exact DP backend
//!        --dp-mode dense|sparse|auto         force the exact backend's
//!                                            occupancy representation (dense
//!                                            tables, sparse frontier, or the
//!                                            per-cell size heuristic)
//!        --json                              write target/reports/<id>.json
//!        --csv                               print CSV after the table
//!        --telemetry PATH                    write an NDJSON telemetry
//!                                            snapshot (ants-telemetry/v1)
//!                                            after the run
//! ```
//!
//! Granularity and chunk size change scheduling only: report output is
//! byte-identical across every `--threads`/`--granularity`/`--chunk`
//! combination (pinned by `crates/sim/tests/determinism.rs` and the
//! bench parity test).
//!
//! Experiments come from the `ants_bench::experiments` registry (the
//! [`Experiment`](ants_bench::Experiment) trait); this binary only
//! parses arguments, streams reports, and validates JSON output.

mod profile;
mod serve_cmd;
mod trend;

use ants_bench::experiments;
use ants_bench::runner::{self, emit_for, parse_flags, write_telemetry, Runner};
use ants_bench::{ReportDoc, WorkloadExperiment};
use ants_sim::report::Table;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: ants <list|run <id>|all|demo [D]|validate [dir]|\
         workload run|validate|list|crosscheck <file>...|profile <file>|\
         trend <dir-a> <dir-b>|\
         trend --record <dir> [--commit H] [--reports DIR]|trend history <dir>|\
         serve --cache <dir> [--listen H:P] [--commit H]|\
         query submit|gate <file>|stats|shutdown [--addr H:P | --cache <dir>]> \
         [--smoke | --effort smoke|standard] [--seed N] [--threads K] \
         [--granularity auto|trial|agent] [--chunk N] [--metrics a,b,...] \
         [--backend mc|dp] [--dp-mode dense|sparse|auto] [--csv] [--json] \
         [--telemetry PATH]\n\
         reproduction harness for Lenzen-Lynch-Newport-Radeva, PODC 2014"
    );
    std::process::exit(2);
}

fn list(args: &[String]) {
    // Accept the shared flag surface so `ants list --effort smoke` works
    // and typos are rejected; only the effort matters for the preview.
    let flags = parse_flags(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let effort = flags.cfg.effort;
    let mut t = Table::new(vec!["id", "cells", "trials/cell", "claim"]);
    for exp in experiments::all() {
        let cfg = exp.config(effort);
        t.row(vec![
            exp.meta().key.into(),
            cfg.cells.to_string(),
            cfg.trials_per_cell.to_string(),
            exp.meta().claim.into(),
        ]);
    }
    println!("effort: {}\n\n{t}", effort.as_str());
    list_bundled_specs(effort);
}

/// Default location of the bundled workload specs, relative to the
/// working directory (present when running from a repo checkout).
const BUNDLED_SPEC_DIR: &str = "examples/workloads";

/// Append the bundled workload specs to `ants list` when running from a
/// checkout: workload-backed experiments are part of the battery surface
/// even though they live in data files.
fn list_bundled_specs(effort: ants_bench::Effort) {
    let dir = Path::new(BUNDLED_SPEC_DIR);
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    if paths.is_empty() {
        return;
    }
    paths.sort();
    let mut t = Table::new(vec!["key", "cells", "trials total", "spec"]);
    for path in paths {
        match WorkloadExperiment::from_file(&path) {
            Ok(exp) => {
                let smoke = effort == ants_bench::Effort::Smoke;
                t.row(vec![
                    exp.plan().key.clone(),
                    exp.plan().cells.len().to_string(),
                    exp.plan().total_trials(smoke).to_string(),
                    path.display().to_string(),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    "INVALID".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("{}: {e}", path.display()),
                ]);
            }
        }
    }
    println!(
        "bundled workload specs ({BUNDLED_SPEC_DIR}; run with `ants workload run <file>`):\n\n{t}"
    );
}

/// `ants workload run|validate|list|crosscheck <file>...` — the
/// declarative workload surface. `run` and `crosscheck` accept the
/// shared flag set after the file.
fn workload(args: &[String]) {
    let Some(verb) = args.first().map(String::as_str) else { usage() };
    match verb {
        "run" => {
            // The spec file comes first; everything after it is the
            // shared flag surface (`--threads 4` etc.).
            let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("error: `ants workload run <file> [flags]` needs a spec file first");
                usage()
            };
            let exp = WorkloadExperiment::from_file(Path::new(file)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let flags = parse_flags(&args[2..]).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                usage()
            });
            // Surface backend problems (a forced `--backend dp` on a
            // non-Markovian cell) as a named spec error before any
            // trials run, not as a panic mid-sweep.
            if let Err(e) = exp.validate_backends(&flags.cfg) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            // A cost guard can still trip mid-run (a forced dense table
            // past its cap): report it as an error, not a panic.
            let started = std::time::Instant::now();
            let mut report = exp.try_run(&flags.cfg).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            report.set_wall_ms(started.elapsed().as_secs_f64() * 1e3);
            emit_for(&report, &flags);
            write_telemetry(&flags);
        }
        "crosscheck" => {
            let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "error: `ants workload crosscheck <file> [flags]` needs a spec file first"
                );
                usage()
            };
            let exp = WorkloadExperiment::from_file(Path::new(file)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let flags = parse_flags(&args[2..]).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                usage()
            });
            let report = ants_bench::crosscheck(&exp, &flags.cfg).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            print!("{report}");
            if report.cells.is_empty() {
                eprintln!(
                    "error: no crosscheckable cells in {file} — every cell was skipped, \
                     so the Wilson comparison is vacuous"
                );
                std::process::exit(1);
            }
            if !report.all_pass() {
                std::process::exit(1);
            }
        }
        "validate" => {
            let files = &args[1..];
            if files.is_empty() || files.iter().any(|a| a.starts_with("--")) {
                eprintln!("error: `ants workload validate` takes spec files only (no flags)");
                usage()
            }
            let mut failures = 0usize;
            for file in files {
                match WorkloadExperiment::from_file(Path::new(file)) {
                    Ok(exp) => println!(
                        "ok   {}: key {}, {} cell(s), {} trial(s) standard / {} smoke",
                        file,
                        exp.plan().key,
                        exp.plan().cells.len(),
                        exp.plan().total_trials(false),
                        exp.plan().total_trials(true),
                    ),
                    Err(e) => {
                        eprintln!("FAIL {e}");
                        failures += 1;
                    }
                }
            }
            println!("validated {} spec(s), {failures} failure(s)", files.len());
            if failures > 0 {
                std::process::exit(1);
            }
        }
        "list" => {
            let (Some(file), None) = (args.get(1), args.get(2)) else {
                eprintln!("error: `ants workload list` takes exactly one spec file");
                usage()
            };
            let exp = WorkloadExperiment::from_file(Path::new(file)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let plan = exp.plan();
            println!("workload '{}' (key {}): {} cell(s)", plan.name, plan.key, plan.cells.len());
            if !plan.description.is_empty() {
                println!("claim: {}", plan.description);
            }
            if !plan.metrics.is_empty() {
                let names: Vec<&str> = plan.metrics.iter().map(ants_sim::Metric::as_str).collect();
                println!("metrics: {}", names.join(", "));
            }
            println!();
            let mut t = Table::new(vec![
                "cell",
                "n",
                "target",
                "budget",
                "trials",
                "smoke",
                "seed tag",
                "population",
            ]);
            for c in &plan.cells {
                t.row(vec![
                    c.label.clone(),
                    c.agents.to_string(),
                    c.target_label(),
                    c.move_budget.to_string(),
                    c.trials.to_string(),
                    c.smoke_trials.to_string(),
                    format!("{:#x}", c.seed_tag),
                    c.population_label(),
                ]);
            }
            print!("{t}");
        }
        _ => usage(),
    }
}

/// The built-in experiment harnesses are Monte Carlo by construction;
/// a forced `--backend dp` would be silently meaningless, so reject it
/// with a pointer at the surface that does honour it.
fn reject_dp_on_builtins(cfg: &ants_bench::RunConfig) {
    if cfg.backend == Some(ants_dp::Backend::Dp) {
        eprintln!(
            "error: the built-in experiments are Monte Carlo harnesses; \
             --backend dp only applies to workload cells (`ants workload run <file> --backend dp`)"
        );
        std::process::exit(2);
    }
}

fn run_one(args: &[String]) {
    let Some(id) = args.first().filter(|a| !a.starts_with("--")) else { usage() };
    let Some(exp) = experiments::find(id) else {
        eprintln!("unknown experiment {id}; try `ants list`");
        std::process::exit(2);
    };
    let flags = parse_flags(&args[1..]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    reject_dp_on_builtins(&flags.cfg);
    emit_for(&Runner::new(flags.cfg).run(exp.as_ref()), &flags);
    write_telemetry(&flags);
}

fn run_all(args: &[String]) {
    let flags = parse_flags(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    reject_dp_on_builtins(&flags.cfg);
    let runner = Runner::new(flags.cfg);
    for exp in experiments::all() {
        emit_for(&runner.run(exp.as_ref()), &flags);
        println!();
    }
    // One snapshot covering the whole battery: the handle is shared by
    // every sweep the config induced.
    write_telemetry(&flags);
}

/// Validate every `*.json` report in `dir` through [`ReportDoc`]:
/// parseable, the right schema, a column list, rows exactly as wide as
/// the columns, and at least one data row. Exit code 1 on any failure —
/// including a missing or empty report directory, so a battery run that
/// silently wrote nothing can never validate vacuously.
fn validate(dir: &Path) {
    if !dir.is_dir() {
        eprintln!(
            "error: report directory {} does not exist (run `ants all --json` first)",
            dir.display()
        );
        std::process::exit(1);
    }
    let names = ReportDoc::list(dir).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if names.is_empty() {
        eprintln!("error: no .json reports in {}", dir.display());
        std::process::exit(1);
    }
    let mut failures = 0usize;
    for name in &names {
        let path = dir.join(name);
        match ReportDoc::load(&path) {
            Ok(doc) if doc.rows().is_empty() => {
                eprintln!("FAIL {}: no data rows", path.display());
                failures += 1;
            }
            Ok(doc) => {
                let (id, rows) = (doc.id().unwrap_or(""), doc.rows().len());
                println!("ok   {}: id {id}, {rows} rows", path.display());
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    println!("validated {} report(s), {failures} failure(s)", names.len());
    if failures > 0 {
        std::process::exit(1);
    }
}

fn demo(d: u64) {
    use ants_automaton::library;
    use ants_core::baselines::AutomatonStrategy;
    use ants_core::NonUniformSearch;
    use ants_grid::{render, Rect};
    use ants_sim::coverage;
    use ants_sim::StrategyFactory;

    // Validate both strategies up front: a user-facing subcommand must
    // report a bad parameter, never panic. The validated instances are
    // cloned into the per-agent factories below.
    let drift = library::drift_walk(3).unwrap_or_else(|e| {
        eprintln!("error: cannot build the drift-walk automaton: {e}");
        std::process::exit(1);
    });
    let nonuniform = NonUniformSearch::new(d).unwrap_or_else(|e| {
        eprintln!("error: cannot build Algorithm 1 for D = {d}: {e} (try `ants demo 24`)");
        std::process::exit(1);
    });

    println!("Joint coverage of the radius-{d} ball after D^2 steps per agent (4 agents):\n");
    let chi = drift.chi();
    let low: StrategyFactory = Box::new(move |_| Box::new(AutomatonStrategy::new(drift.clone())));
    let report = coverage::measure(&low, 4, d * d, Rect::ball(d), 7);
    println!("low-chi drift walk (chi = {chi:.1}):");
    println!("{}", render::ascii(&report.grid, report.adversarial_target()));
    println!("{}\n", render::coverage_summary(&report.grid));

    let high: StrategyFactory = Box::new(move |_| Box::new(nonuniform.clone()));
    let report = coverage::measure(&high, 4, 8 * d * d, Rect::ball(d), 7);
    println!("Algorithm 1 (chi = log log D + O(1)):");
    println!("{}", render::ascii(&report.grid, report.adversarial_target()));
    println!("{}", render::coverage_summary(&report.grid));
    println!("\n('X' marks the farthest cell no agent ever visited — Theorem 4.1's adversarial placement.)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(&args[1..]),
        Some("run") => run_one(&args[1..]),
        Some("all") => run_all(&args[1..]),
        Some("demo") => {
            let d = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);
            demo(d);
        }
        Some("validate") => {
            let dir = args.get(1).map_or_else(|| runner::REPORT_DIR.to_string(), Clone::clone);
            validate(Path::new(&dir));
        }
        Some("workload") => workload(&args[1..]),
        Some("profile") => profile::profile(&args[1..]),
        Some("serve") => serve_cmd::serve(&args[1..]),
        Some("query") => serve_cmd::query(&args[1..]),
        Some("trend") => trend_cmd(&args[1..]),
        _ => usage(),
    }
}

/// `ants trend <dir-a> <dir-b>` (diff),
/// `ants trend --record <dir> [--commit H] [--reports DIR]` (snapshot),
/// or `ants trend history <dir>` (per-cell timelines across snapshots).
fn trend_cmd(args: &[String]) {
    if args.first().map(String::as_str) == Some("history") {
        let (Some(dir), None) = (args.get(1).filter(|a| !a.starts_with("--")), args.get(2)) else {
            eprintln!("error: `ants trend history <dir>` takes exactly one snapshot directory");
            usage()
        };
        match trend::history(Path::new(dir)) {
            Ok(0) => {}
            Ok(_) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--record") {
        let Some(dest) = args.get(1).filter(|a| !a.starts_with("--")) else {
            eprintln!("error: `ants trend --record <dir>` needs a destination directory");
            usage()
        };
        let mut commit: Option<&str> = None;
        let mut reports = runner::REPORT_DIR.to_string();
        let mut it = args[2..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--commit" => match it.next() {
                    Some(c) => commit = Some(c),
                    None => {
                        eprintln!("error: --commit needs a value");
                        usage()
                    }
                },
                "--reports" => match it.next() {
                    Some(r) => reports = r.clone(),
                    None => {
                        eprintln!("error: --reports needs a value");
                        usage()
                    }
                },
                other => {
                    eprintln!("error: unknown `trend --record` argument '{other}'");
                    usage()
                }
            }
        }
        if let Err(e) = trend::record(Path::new(dest), Path::new(&reports), commit) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    } else {
        let (Some(a), Some(b), None) = (args.first(), args.get(1), args.get(2)) else { usage() };
        let outcome = trend::trend(Path::new(a), Path::new(b));
        if outcome.failures > 0 {
            std::process::exit(1);
        }
    }
}
