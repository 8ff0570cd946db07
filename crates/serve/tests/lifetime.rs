//! Long-life daemon tests: handler threads are reaped, request lines are
//! bounded in size and time, the plan log in `stats` stays at the
//! distinct decisions, crash leftovers are swept at bind, and one cache
//! root has one daemon.

use ants_bench::Effort;
use ants_serve::protocol::{self, Op, Request};
use ants_serve::server::{MAX_REQUEST_BYTES, REQUEST_TIMEOUT};
use ants_serve::{request_lines, ServeOptions, Server};
use ants_sim::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Daemon {
    addr: String,
    cache: PathBuf,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// A daemon on a fresh cache root named after `tag`.
    fn start(tag: &str) -> Daemon {
        let cache = fresh_root(tag);
        Daemon::on(cache)
    }

    /// A daemon on `cache` as it stands.
    fn on(cache: PathBuf) -> Daemon {
        let server = Server::bind(ServeOptions::new(&cache), "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().to_string();
        let thread = Some(std::thread::spawn(move || server.run()));
        Daemon { addr, cache, thread }
    }

    fn stats(&self) -> Json {
        let lines = request_lines(&self.addr, &Request::bare(Op::Stats)).expect("daemon reachable");
        assert_eq!(lines.len(), 1, "{lines:?}");
        Json::parse(&lines[0]).expect("stats line parses")
    }

    /// Send `raw` as the whole request and return the first response
    /// line.
    fn raw(&self, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(&self.addr).unwrap();
        s.write_all(raw).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        line
    }

    /// Shut down and join, keeping the cache root.
    fn stop(&mut self) {
        let _ = request_lines(&self.addr, &Request::bare(Op::Shutdown));
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("clean shutdown");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

fn fresh_root(tag: &str) -> PathBuf {
    let cache = std::env::temp_dir().join(format!("ants-serve-life-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    cache
}

/// At the parent of this test, each served connection left its exited
/// handler's stack mapped (about two `maps` lines per request) until
/// shutdown. Requests are sequential, so at most a few handlers are
/// alive at once.
#[cfg(target_os = "linux")]
#[test]
fn sequential_requests_do_not_grow_the_address_space() {
    fn maps_lines() -> usize {
        std::fs::read_to_string("/proc/self/maps").expect("procfs").lines().count()
    }
    let d = Daemon::start("maps");
    let malformed = |d: &Daemon| {
        let line = d.raw(b"not a request\n");
        assert_eq!(protocol::event_of(line.trim()).as_deref(), Some("error"), "{line}");
    };
    // Let the allocator and the thread-stack cache settle first.
    for _ in 0..100 {
        malformed(&d);
    }
    let before = maps_lines();
    for _ in 0..2000 {
        malformed(&d);
    }
    let grown = maps_lines().saturating_sub(before);
    assert!(grown < 100, "2000 requests grew /proc/self/maps by {grown} lines");
}

/// Every miss re-plans the same job, and the `stats` reply carries the
/// plan log. The log counts repeats instead of appending them, so after
/// 2,000 requests (1,000 fresh-seed misses, each followed by a hit) the
/// reply's `decisions` array still holds the distinct decisions only.
#[test]
fn repeated_misses_count_plan_decisions_instead_of_appending_them() {
    const SPEC: &str = "\
name = \"plans\"
[defaults]
trials = 2
smoke_trials = 2
[[cells]]
name = \"one\"
agents = 2
target = { model = \"ball\", dist = 3 }
population = [{ strategy = \"randomwalk\", weight = 1 }]
";
    let d = Daemon::start("plans");
    let submit = |seed: u64, cached: bool| {
        let mut req = Request::submit(SPEC);
        req.effort = Effort::Smoke;
        req.seed = seed;
        let lines = request_lines(&d.addr, &req).expect("daemon reachable");
        let status = Json::parse(&lines[0]).expect("status line");
        assert_eq!(status.get("cached"), Some(&Json::Bool(cached)), "seed {seed}");
    };
    let decisions = |d: &Daemon| -> Vec<Json> {
        let stats = d.stats();
        let plans = stats.get("telemetry").and_then(|t| t.get("plans")).expect("plans block");
        plans.get("decisions").and_then(Json::as_array).expect("decisions array").to_vec()
    };
    submit(0, false);
    let distinct = decisions(&d).len();
    assert!(distinct > 0, "a miss records its plan decisions");
    let misses = 1000;
    for seed in 1..misses {
        submit(seed, false);
        submit(0, true);
        if seed % 250 == 0 {
            assert_eq!(decisions(&d).len(), distinct, "the log grew after {seed} misses");
        }
    }
    let after = decisions(&d);
    assert_eq!(after.len(), distinct);
    for decision in &after {
        assert_eq!(decision.get("count").and_then(Json::as_u64), Some(misses), "{decision:?}");
    }
}

#[test]
fn an_oversize_request_line_is_answered_with_an_error() {
    let d = Daemon::start("oversize");
    let mut big = vec![b' '; MAX_REQUEST_BYTES as usize + 64];
    big.push(b'\n');
    let line = d.raw(&big);
    let doc = Json::parse(line.trim()).expect("one event line");
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    // A line just under the cap is read whole (and rejected as JSON).
    let mut fits = vec![b' '; MAX_REQUEST_BYTES as usize - 1];
    fits.push(b'\n');
    let line = d.raw(&fits);
    assert!(line.contains("malformed request"), "{line}");
    assert_eq!(d.stats().get("requests").and_then(Json::as_f64), Some(3.0));
}

/// One client sends nothing; the other trickles bytes without ever
/// ending the line, so a timeout per read would never fire for it. The
/// daemon drops both at the deadline and keeps serving.
#[test]
fn clients_that_never_end_their_line_are_dropped_at_the_deadline() {
    let d = Daemon::start("slow");
    let slack = Duration::from_secs(3);
    let t0 = Instant::now();
    let silent = TcpStream::connect(&d.addr).unwrap();
    let trickling = TcpStream::connect(&d.addr).unwrap();
    let mut writer = trickling.try_clone().unwrap();
    let trickle = std::thread::spawn(move || {
        while t0.elapsed() < REQUEST_TIMEOUT * 2 {
            if writer.write_all(b" ").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(250));
        }
    });
    for mut client in [silent, trickling] {
        client.set_read_timeout(Some(REQUEST_TIMEOUT + slack * 3)).unwrap();
        let read = client.read(&mut [0u8; 64]);
        let disconnected = match &read {
            Ok(n) => *n == 0,
            Err(e) => {
                !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
            }
        };
        assert!(disconnected, "expected a disconnect, got {read:?}");
        assert!(t0.elapsed() < REQUEST_TIMEOUT + slack, "dropped after {:?}", t0.elapsed());
    }
    trickle.join().unwrap();
    assert!(d.stats().get("requests").and_then(Json::as_f64).is_some());
}

#[test]
fn bind_sweeps_crash_leftovers_from_staging() {
    let cache = fresh_root("staging");
    std::fs::create_dir_all(cache.join(".staging-k")).unwrap();
    std::fs::write(cache.join(".staging-k").join("x"), "half-written").unwrap();
    let d = Daemon::on(cache);
    assert!(!d.cache.join(".staging-k").exists(), "staging leftover swept at bind");
    let stats = d.stats();
    assert_eq!(stats.get("entries").and_then(Json::as_f64), Some(0.0));
    let serve = stats.get("telemetry").and_then(|t| t.get("serve")).unwrap();
    assert_eq!(serve.get("cache_bytes").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn one_daemon_per_cache_root() {
    let mut d = Daemon::start("exclusive");
    let second = Server::bind(ServeOptions::new(&d.cache), "127.0.0.1:0");
    let err = second.err().expect("a live root refuses a second daemon");
    assert!(err.contains("already served"), "{err}");
    d.stop();
    // A stale discovery file (a crash) does not block a new daemon.
    std::fs::write(d.cache.join("serve.addr"), format!("{}\n", d.addr)).unwrap();
    let again = Daemon::on(d.cache.clone());
    assert!(again.stats().get("entries").is_some());
}
