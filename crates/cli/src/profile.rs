//! `ants profile <spec.toml>` — run a workload with telemetry forced on
//! and print where the time and the work went: per-cell wall clock,
//! the plan → execute → reduce → report phase breakdown, the counter
//! catalogue, per-worker pool balance, and every scheduling decision
//! with the inputs that drove it.
//!
//! Profiling never changes what runs: telemetry is observational by
//! construction (report bytes are pinned identical with it on or off),
//! so the numbers printed here describe exactly the run `ants workload
//! run` would have done with the same flags.

use ants_bench::runner::{emit_for, parse_flags, write_telemetry, Flags};
use ants_bench::WorkloadExperiment;
use ants_obs::{Counter, Gauge, Phase, Snapshot, Telemetry};
use ants_sim::report::Table;
use std::path::Path;
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `ants profile <spec.toml> [shared flags]`: the spec file comes
/// first, then the same flag surface as `ants workload run`. With
/// `--telemetry <path>` the snapshot is additionally written as NDJSON.
pub fn profile(args: &[String]) {
    let Some(file) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("error: `ants profile <spec.toml> [flags]` needs a spec file first");
        std::process::exit(2);
    };
    let exp =
        WorkloadExperiment::from_file(Path::new(file)).unwrap_or_else(|e| fail(&e.to_string()));
    let mut flags = parse_flags(&args[1..]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Profiling *is* observing: attach a handle even without
    // `--telemetry` (the flag only adds the NDJSON snapshot file).
    if flags.cfg.telemetry.is_none() {
        flags.cfg.telemetry = Some(Telemetry::new());
    }
    if let Err(e) = exp.validate_backends(&flags.cfg) {
        fail(&e.to_string());
    }

    let opts = flags.cfg.sweep_options();
    let started = Instant::now();
    let mut cells: Vec<(String, f64)> = Vec::new();
    let mut last = started;
    let outcome = exp.try_run_streamed(&flags.cfg, &opts, |_i, cell, _row| {
        // The delta between row callbacks is the cell's wall clock:
        // cells run in order, and the callback fires as each finishes.
        let now = Instant::now();
        cells.push((cell.label.clone(), now.duration_since(last).as_secs_f64() * 1e3));
        last = now;
    });
    let mut report = outcome.unwrap_or_else(|e| fail(&e.to_string()));
    report.set_wall_ms(started.elapsed().as_secs_f64() * 1e3);

    emit_for(&report, &flags);
    let tele = flags.cfg.telemetry.expect("profile always attaches telemetry");
    print_profile(&flags, &cells, &tele.snapshot());
    write_telemetry(&flags);
}

/// Render the profile sections from the frozen snapshot.
fn print_profile(flags: &Flags, cells: &[(String, f64)], snap: &Snapshot) {
    let threads = flags.cfg.threads.map_or_else(|| "auto".to_string(), |t| t.to_string());
    println!(
        "\nprofile: effort {}, seed {}, threads {threads}, granularity {}{}",
        flags.cfg.effort.as_str(),
        flags.cfg.base_seed,
        flags.cfg.granularity.as_str(),
        flags.cfg.chunk.map_or_else(String::new, |c| format!(", chunk {c}")),
    );

    let mut t = Table::new(vec!["cell", "wall_ms"]);
    for (label, ms) in cells {
        t.row(vec![label.clone(), format!("{ms:.1}")]);
    }
    println!("\nper-cell wall clock:\n\n{t}");

    let mut t = Table::new(vec!["phase", "spans", "total_ms"]);
    for phase in Phase::ALL {
        t.row(vec![
            phase.as_str().to_string(),
            snap.phase_count[phase as usize].to_string(),
            format!("{:.1}", snap.phase_ns[phase as usize] as f64 / 1e6),
        ]);
    }
    println!("phases (plan -> execute -> reduce -> report; dp_solve = exact cells):\n\n{t}");

    let mut t = Table::new(vec!["counter", "value"]);
    for counter in Counter::ALL {
        // Serve counters only move inside the daemon, and dp counters
        // only move when a cell ran the exact backend; gauges likewise.
        let value = snap.counter(counter);
        let prefixed =
            counter.as_str().starts_with("serve_") || counter.as_str().starts_with("dp_");
        if value == 0 && prefixed {
            continue;
        }
        t.row(vec![counter.as_str().to_string(), value.to_string()]);
    }
    if snap.gauge(Gauge::CacheEntries) != 0 || snap.gauge(Gauge::CacheBytes) != 0 {
        t.row(vec!["cache_entries".to_string(), snap.gauge(Gauge::CacheEntries).to_string()]);
        t.row(vec!["cache_bytes".to_string(), snap.gauge(Gauge::CacheBytes).to_string()]);
    }
    println!("counters:\n\n{t}");

    if !snap.worker_units.is_empty() {
        let mut t = Table::new(vec!["worker", "units", "stolen", "polls", "busy_ms", "idle_ms"]);
        for w in 0..snap.worker_units.len() {
            let at = |v: &[u64]| v.get(w).copied().unwrap_or(0);
            t.row(vec![
                w.to_string(),
                at(&snap.worker_units).to_string(),
                at(&snap.worker_steals).to_string(),
                at(&snap.worker_polls).to_string(),
                format!("{:.1}", at(&snap.worker_busy_ns) as f64 / 1e6),
                format!("{:.1}", at(&snap.worker_idle_ns) as f64 / 1e6),
            ]);
        }
        println!("pool balance ('stolen' = units run off their home worker):\n\n{t}");
    }

    if let Some((first, _)) = snap.plans.counts().next() {
        let mut t = Table::new(vec![
            "job",
            "granularity",
            "agents",
            "weight",
            "sweep_trials",
            "threads",
            "chunk",
            "count",
        ]);
        for (p, count) in snap.plans.counts() {
            t.row(vec![
                p.job.to_string(),
                p.granularity.clone(),
                p.agents.to_string(),
                p.weight.to_string(),
                p.sweep_trials.to_string(),
                p.threads.to_string(),
                p.chunk.to_string(),
                count.to_string(),
            ]);
        }
        println!(
            "plan decisions (agent split iff agents > chunk and sweep_trials < {}*threads; \
             count = times planned):\n\n{t}",
            first.saturation
        );
    }
}
