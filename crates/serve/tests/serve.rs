//! End-to-end daemon tests over a real loopback socket: hit byte
//! identity with zero pool work, plan-level canonicalization, error
//! resilience, gate drift detection, and trend-snapshot cache layout.

use ants_bench::Effort;
use ants_serve::protocol::{self, Op, Request};
use ants_serve::{request_lines, ServeOptions, Server};
use ants_sim::json::Json;
use std::path::PathBuf;

/// A Monte Carlo spec, so misses do real pool work `pool_work` counts.
const MC_SPEC: &str = "\
name = \"serve e2e\"
description = \"serve integration workload\"
[defaults]
trials = 8
smoke_trials = 4
[[cells]]
name = \"mixed\"
agents = 3
target = { model = \"ball\", dist = 6 }
population = [
  { strategy = \"nonuniform(dist)\", weight = 2 },
  { strategy = \"randomwalk\", weight = 1 },
]
";

/// The same workload, spelled differently: keys reordered, comments and
/// whitespace added, the symbolic `nonuniform(dist)` resolved by hand.
const MC_SPEC_RESPELLED: &str = "\
name = \"serve e2e\"
description = \"serve integration workload\"

[defaults]
smoke_trials = 4   # reordered + commented
trials       = 8

[[cells]]
agents = 3
name   = \"mixed\"
population = [
  { weight = 2, strategy = \"nonuniform(6)\" },
  { weight = 1, strategy = \"randomwalk\" },
]
target = { dist = 6, model = \"ball\" }
";

struct Daemon {
    addr: String,
    cache: PathBuf,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// A daemon whose misses run on two workers, so they exercise the
    /// spawned pool even on a single-core machine.
    fn start(tag: &str) -> Daemon {
        Daemon::with_threads(tag, 2)
    }

    /// A daemon whose misses run on `threads` workers. Results are
    /// byte-identical at every count (the determinism contract).
    fn with_threads(tag: &str, threads: usize) -> Daemon {
        let cache =
            std::env::temp_dir().join(format!("ants-serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let mut opts = ServeOptions::new(&cache);
        opts.threads = Some(threads);
        let server = Server::bind(opts, "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().to_string();
        let thread = Some(std::thread::spawn(move || server.run()));
        Daemon { addr, cache, thread }
    }

    fn send(&self, req: &Request) -> Vec<String> {
        request_lines(&self.addr, req).expect("daemon reachable")
    }

    fn stats(&self) -> Json {
        let lines = self.send(&Request::bare(Op::Stats));
        assert_eq!(lines.len(), 1, "{lines:?}");
        Json::parse(&lines[0]).expect("stats line parses")
    }

    fn stat(&self, field: &str) -> f64 {
        self.stats().get(field).and_then(Json::as_f64).expect("numeric stat")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = request_lines(&self.addr, &Request::bare(Op::Shutdown));
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("clean shutdown");
        }
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

fn smoke_submit(spec: &str) -> Request {
    let mut req = Request::submit(spec);
    req.effort = Effort::Smoke;
    req
}

/// Split a response into (status line, body lines). The status line is
/// excluded from byte-identity comparisons by design: it is the one
/// line that differs between a miss and its replay.
fn split(lines: &[String]) -> (Json, Vec<String>) {
    assert!(!lines.is_empty(), "empty response");
    assert_eq!(protocol::event_of(&lines[0]).as_deref(), Some("status"), "{}", lines[0]);
    (Json::parse(&lines[0]).unwrap(), lines[1..].to_vec())
}

/// Checked on two workers and on one, where misses run inline on the
/// calling thread: the miss counts its work either way, so the hit's
/// unchanged `pool_work` is not vacuous.
#[test]
fn identical_resubmission_is_a_byte_identical_hit_with_zero_pool_work() {
    for threads in [2, 1] {
        resubmission_hits_with_zero_pool_work(threads);
    }
}

fn resubmission_hits_with_zero_pool_work(threads: usize) {
    let d = Daemon::with_threads(&format!("hit{threads}"), threads);
    let first = d.send(&smoke_submit(MC_SPEC));
    let (status, body) = split(&first);
    assert_eq!(status.get("cached"), Some(&Json::Bool(false)), "first submit is a miss");
    let work_after_miss = d.stat("pool_work");
    assert!(
        work_after_miss > 0.0,
        "an MC miss must run agent steps on the pool ({threads} workers)"
    );

    let second = d.send(&smoke_submit(MC_SPEC));
    let (status2, body2) = split(&second);
    assert_eq!(status2.get("cached"), Some(&Json::Bool(true)), "resubmission hits");
    assert_eq!(status2.get("key"), status.get("key"), "same content-addressed key");
    assert_eq!(body2, body, "hit replays the stored body byte for byte");
    assert_eq!(d.stat("pool_work"), work_after_miss, "a hit does zero sweep-pool work");
    assert_eq!(d.stat("hits"), 1.0);
    assert_eq!(d.stat("misses"), 1.0);

    // Body shape: one cell event per plan cell, then the full report.
    assert_eq!(protocol::event_of(&body[0]).as_deref(), Some("cell"));
    let last = Json::parse(body.last().unwrap()).unwrap();
    assert_eq!(last.get("event").and_then(Json::as_str), Some("report"));
    let report = last.get("report").unwrap();
    assert_eq!(report.get("schema").and_then(Json::as_str), Some("ants-report/v1"));
}

#[test]
fn semantically_identical_spellings_share_one_cache_entry() {
    let d = Daemon::start("canon");
    let (status, body) = split(&d.send(&smoke_submit(MC_SPEC)));
    assert_eq!(status.get("cached"), Some(&Json::Bool(false)));

    let (status2, body2) = split(&d.send(&smoke_submit(MC_SPEC_RESPELLED)));
    assert_eq!(
        status2.get("cached"),
        Some(&Json::Bool(true)),
        "reordered keys, comments, and resolved symbolic args are the same workload"
    );
    assert_eq!(status2.get("key"), status.get("key"));
    assert_eq!(body2, body);

    // One-bit semantic change: a different trial count must miss.
    let changed = MC_SPEC.replace("trials = 8", "trials = 9");
    let (status3, _) = split(&d.send(&smoke_submit(&changed)));
    assert_eq!(status3.get("cached"), Some(&Json::Bool(false)), "semantic change misses");
    assert_ne!(status3.get("key"), status.get("key"));

    // A different seed also misses: results are keyed by (spec, seed).
    let mut reseeded = smoke_submit(MC_SPEC);
    reseeded.seed = 1;
    let (status4, _) = split(&d.send(&reseeded));
    assert_eq!(status4.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(d.stat("entries"), 3.0);
}

#[test]
fn malformed_requests_and_specs_do_not_kill_the_daemon() {
    let d = Daemon::start("errors");
    // Malformed spec: the toml/spec layers reject it, daemon survives.
    let lines = d.send(&smoke_submit("cells = \"not a workload\""));
    assert_eq!(protocol::event_of(&lines[0]).as_deref(), Some("error"), "{lines:?}");
    // Unparseable request line entirely.
    let raw = {
        use std::io::{BufRead, BufReader, Write};
        let mut s = std::net::TcpStream::connect(&d.addr).unwrap();
        s.write_all(b"this is not json\n").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        line
    };
    assert_eq!(protocol::event_of(raw.trim()).as_deref(), Some("error"), "{raw}");
    // A DP-incapable cell forced onto the exact backend: error response.
    let mut forced = smoke_submit(MC_SPEC);
    forced.backend = Some(ants_dp::Backend::Dp);
    let lines = d.send(&forced);
    let err = lines.iter().find(|l| protocol::event_of(l).as_deref() == Some("error"));
    assert!(err.is_some(), "{lines:?}");
    // Daemon still answers.
    assert!(d.stat("requests") >= 4.0);
    assert_eq!(d.stat("misses"), 0.0, "no failed submission was cached");
    assert_eq!(d.stat("entries"), 0.0);
}

#[test]
fn gate_passes_against_itself_and_fails_on_injected_drift() {
    let d = Daemon::start("gate");
    // Baseline entry: seed 0.
    let (status, _) = split(&d.send(&smoke_submit(MC_SPEC)));
    assert_eq!(status.get("cached"), Some(&Json::Bool(false)));

    // Gate with no *other* entry: the current key is excluded, so there
    // is no baseline yet and the gate passes vacuously (and says so).
    let mut gate = smoke_submit(MC_SPEC);
    gate.op = Op::Gate;
    let lines = d.send(&gate);
    let ev = lines.last().unwrap();
    let doc = Json::parse(ev).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("gate"));
    assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("baseline"), Some(&Json::Null));

    // Injected drift: the same workload at a different seed produces
    // different metrics; gating it against the seed-0 baseline fails.
    let mut drifted = gate.clone();
    drifted.seed = 42;
    let lines = d.send(&drifted);
    let doc = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("gate"), "{lines:?}");
    assert_eq!(doc.get("pass"), Some(&Json::Bool(false)), "drift must fail the gate");
    assert!(doc.get("baseline").and_then(Json::as_str).is_some());
    let violations = doc.get("violations").unwrap().as_array().unwrap();
    assert!(!violations.is_empty());
    let v = &violations[0];
    for field in ["cell", "column", "baseline", "current", "detail"] {
        assert!(v.get(field).is_some(), "violation missing {field}: {v:?}");
    }

    // Re-gating the drifted entry is a cache hit (the result is stored)
    // but still fails: gating is a comparison, not a computation.
    let lines = d.send(&drifted);
    let (status, _) = split(&lines);
    assert_eq!(status.get("cached"), Some(&Json::Bool(true)));
    let doc = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
}

/// A hit replays `response.ndjson` alone: only `gate` reads the stored
/// report, so deleting it leaves plain submissions hitting byte for byte
/// while a gate on that entry answers with an `error` event.
#[test]
fn hits_replay_without_reading_the_stored_report() {
    let d = Daemon::start("noreport");
    let (status, body) = split(&d.send(&smoke_submit(MC_SPEC)));
    let key = status.get("key").and_then(Json::as_str).unwrap().to_string();
    std::fs::remove_file(d.cache.join(&key).join("serve-e2e.json")).expect("stored report");

    let (status2, body2) = split(&d.send(&smoke_submit(MC_SPEC)));
    assert_eq!(status2.get("cached"), Some(&Json::Bool(true)), "still a hit");
    assert_eq!(body2, body, "the hit replays the stored body byte for byte");

    let mut gate = smoke_submit(MC_SPEC);
    gate.op = Op::Gate;
    let lines = d.send(&gate);
    let (status3, _) = split(&lines);
    assert_eq!(status3.get("cached"), Some(&Json::Bool(true)));
    let last = lines.last().unwrap();
    assert_eq!(protocol::event_of(last).as_deref(), Some("error"), "{lines:?}");
    assert!(last.contains("serve-e2e.json"), "{last}");
}

#[test]
fn cache_entries_are_trend_snapshots() {
    let d = Daemon::start("layout");
    let (status, _) = split(&d.send(&smoke_submit(MC_SPEC)));
    let key = status.get("key").and_then(Json::as_str).unwrap().to_string();
    let entry = d.cache.join(&key);
    // The report file carries the workload key, exactly like a `trend
    // --record` snapshot directory, and parses under the report schema.
    let report_path = entry.join("serve-e2e.json");
    let text = std::fs::read_to_string(&report_path).expect("report in snapshot layout");
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ants-report/v1"));
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("serve-e2e"));
    assert!(doc.get("wall_ms").and_then(Json::as_number).is_some());
    // Auxiliary files are invisible to the trend tooling (non-.json).
    for aux in ["response.ndjson", "spec.toml", "descriptor.txt"] {
        assert!(entry.join(aux).is_file(), "missing {aux}");
        assert!(!aux.ends_with(".json"));
    }
    // The stored descriptor is the audited canonical form.
    let descriptor = std::fs::read_to_string(entry.join("descriptor.txt")).unwrap();
    assert!(descriptor.starts_with("plan-descriptor/v2\n"));
    // The discovery file points at the live daemon.
    assert_eq!(ants_serve::discover_addr(&d.cache).unwrap(), d.addr);
}

#[test]
fn shutdown_stops_the_accept_loop_and_removes_discovery() {
    let cache =
        std::env::temp_dir().join(format!("ants-serve-e2e-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let server = Server::bind(ServeOptions::new(&cache), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    let lines = request_lines(&addr, &Request::bare(Op::Shutdown)).unwrap();
    assert_eq!(protocol::event_of(&lines[0]).as_deref(), Some("ok"), "{lines:?}");
    thread.join().unwrap().unwrap();
    assert!(!cache.join("serve.addr").exists(), "discovery file removed on shutdown");
    let _ = std::fs::remove_dir_all(&cache);
}
