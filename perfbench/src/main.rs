//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. Workloads:
//!
//! * `mc-tradeoff` — the paper's (n, D, target) grid over mixed
//!   populations on the two-worker sweep pool;
//! * `mc-wide` — many-agent, few-trial cells the pool must split into
//!   agent chunks;
//! * `dp-exact` — Markovian cells on the exact backend;
//! * `serve-mix` — an in-process serve daemon under a closed loop of two
//!   clients.
//!
//! Scratch files (serve caches, span logs) go to `.perfbench/` under the
//! working directory. Set-up failures exit 1 without a result line;
//! usage errors exit 2.

use ants_perfbench::{mc, serve, Opts, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["mc-tradeoff", "mc-wide", "dp-exact", "serve-mix"];

/// Hard limit on one run's wall clock.
const WATCHDOG_SECS: u64 = 170;

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let workdir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".perfbench");
    Ok((workload, Opts { seed, seconds, trace, workdir }))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("perfbench: {workload} seed {} ({cores} cores)", opts.seed);
    // A run that overstays (a hung spec, a wedged daemon) exits with an
    // error instead of a result.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: no result after {WATCHDOG_SECS} s, giving up");
        std::process::exit(3);
    });
    let outcome = match workload.as_str() {
        "serve-mix" => serve::run(&opts),
        name => mc::run(name, &opts),
    };
    match outcome {
        Ok(out) => {
            let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
            println!("{}", out.result_line(catalogue));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
