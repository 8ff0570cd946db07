//! The daemon: accept loop, request handlers, and the shared pool
//! discipline.
//!
//! * **Hits never touch the pool.** A cached entry is replayed straight
//!   off disk — no lock, no scheduling, zero sweep work (the
//!   `pool_work` counter in `stats` proves it).
//! * **Misses serialize on one pool mutex.** The sweep pool already
//!   fans a single workload across every core; running two workloads'
//!   pools concurrently would just fight over the same cores. Connection
//!   handling itself is thread-per-connection, so `stats`, hits, and
//!   `shutdown` stay responsive while a miss computes.
//! * **Errors are responses, not crashes.** A malformed request, a spec
//!   that fails to parse/expand/validate, a DP-incapable cell forced
//!   onto the exact backend, or a panic inside a miss's computation all
//!   come back as `error` events; the daemon keeps serving, and later
//!   misses still get the pool.
//! * **Per-request cost does not grow with uptime.** The accept loop
//!   joins every finished handler thread before it spawns the next, so
//!   exited threads do not keep their stacks mapped. The cache gauges
//!   (`entries`, `cache_entries`, `cache_bytes`) are counted once at
//!   [`Server::bind`], which also deletes staging directories a crash
//!   left behind, and afterwards move only by what each miss's
//!   [`Entry::store`] published; no request walks the cache tree.
//! * **Bounded clients.** A request line may hold at most
//!   [`MAX_REQUEST_BYTES`] and must arrive within [`REQUEST_TIMEOUT`]
//!   of the connection; each response write may block for at most
//!   [`WRITE_TIMEOUT`], after which the connection is written off, so a
//!   client that stops reading mid-miss cannot hold the pool.
//! * **One daemon per cache root.** The in-memory gauges assume this
//!   daemon is the root's only writer, so `bind` refuses a root whose
//!   `serve.addr` names an address that still accepts connections.

use crate::cache::{self, cache_key, Entry, ADDR_FILE};
use crate::protocol::{
    cell_event, error_event, gate_event, ok_event, report_event, stats_event, status_event, Op,
    Request, Stats,
};
use ants_bench::{gate_report, ReportDoc, RunConfig, WorkloadExperiment};
use ants_obs::{Counter, Gauge, LatencyKind, Telemetry};
use ants_sim::{Granularity, SweepOptions};
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The longest request line the daemon reads, newline included. The
/// largest bundled spec is about 3 KB.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;
/// How long a client has, from the accept, to deliver its whole
/// request line.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// How long one response write may block on a client that stopped
/// reading.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long [`Server::bind`] waits on the address a `serve.addr` file
/// names before taking the file as stale.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon configuration: where the cache lives and how misses schedule.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Cache root directory (created if absent).
    pub cache: PathBuf,
    /// Commit id baked into every cache key (`ANTS_COMMIT`-style; must
    /// be a safe directory-name component).
    pub commit: String,
    /// Thread policy for miss sweeps (`None` = all cores).
    pub threads: Option<usize>,
    /// Sweep unit-of-work policy for miss sweeps.
    pub granularity: Granularity,
    /// Agents per chunk for agent-level scheduling.
    pub chunk: Option<usize>,
}

impl ServeOptions {
    /// Options for a cache root, with default scheduling and the
    /// `"local"` commit id.
    pub fn new(cache: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            cache: cache.into(),
            commit: "local".to_string(),
            threads: None,
            granularity: Granularity::Auto,
            chunk: None,
        }
    }
}

struct State {
    opts: ServeOptions,
    addr: SocketAddr,
    /// One telemetry handle for the daemon's lifetime: per-op request
    /// counters, hit/miss latency histograms, cache gauges, plus the
    /// pool/engine counters of every miss sweep (attached via
    /// [`SweepOptions::with_telemetry`]). Surfaced as the `telemetry`
    /// block of the `stats` event, and as `pool_work`: the counters are
    /// cumulative, so "a hit did zero pool work" is observable as an
    /// unchanged `engine_steps` across the request. Strictly
    /// observational: cache keys, report bytes, and the gate never read
    /// it.
    telemetry: Telemetry,
    /// One DP curve memo for the daemon's lifetime: exact-backend cells
    /// reuse solves *across* submissions (keyed by kernel fingerprint,
    /// target, clock, and mode). Memoized reports are byte-identical to
    /// fresh ones, so cached bodies never depend on request order.
    dp_memo: ants_workload::dp::DpMemo,
    /// Misses serialize here; hits never take it. It guards no data,
    /// so a poisoned lock is taken as it is.
    pool: Mutex<()>,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Entry directories under the cache root: counted at bind, then
    /// moved only by [`State::publish`] (which runs under `pool`).
    cache_entries: AtomicU64,
    /// File bytes under those entries, kept the same way.
    cache_bytes: AtomicU64,
    shutdown: AtomicBool,
}

impl State {
    /// Add `entries` and `bytes` to the cache gauges, here and in the
    /// telemetry block.
    fn count_into_cache(&self, entries: u64, bytes: u64) {
        let entries = self.cache_entries.fetch_add(entries, Ordering::Relaxed) + entries;
        let bytes = self.cache_bytes.fetch_add(bytes, Ordering::Relaxed).saturating_add(bytes);
        self.telemetry.set_gauge(Gauge::CacheEntries, entries);
        self.telemetry.set_gauge(Gauge::CacheBytes, bytes);
    }

    /// Persist a finished miss and count what it published. A re-store
    /// that finds the entry already in place adds nothing.
    fn publish(
        &self,
        entry: &Entry,
        spec: &WorkloadSpec,
        plan: &WorkloadPlan,
        report_json: &str,
        body: &str,
    ) -> Result<(), String> {
        if let Some(bytes) = entry.store(spec, plan, report_json, body)? {
            self.count_into_cache(1, bytes);
        }
        Ok(())
    }

    fn stats(&self) -> Stats {
        Stats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pool_work: self.telemetry.counter(Counter::EngineSteps),
            entries: self.cache_entries.load(Ordering::Relaxed),
        }
    }
}

/// The address in a `serve.addr` file, if a daemon still accepts
/// connections there. A file a crashed daemon left behind names none.
fn live_daemon(addr_file: &Path) -> Option<SocketAddr> {
    let addr: SocketAddr = std::fs::read_to_string(addr_file).ok()?.trim().parse().ok()?;
    TcpStream::connect_timeout(&addr, PROBE_TIMEOUT).ok().map(|_| addr)
}

/// The serve daemon: bound socket plus shared state.
///
/// ```no_run
/// let server = ants_serve::Server::bind(
///     ants_serve::ServeOptions::new("target/serve-cache"),
///     "127.0.0.1:0",
/// ).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind `listen` (e.g. `"127.0.0.1:0"`), create the cache root,
    /// count its entries (deleting staging directories a crash left
    /// behind), and write the `serve.addr` discovery file clients read
    /// via `--cache`.
    ///
    /// # Errors
    ///
    /// Unsafe commit ids, a root another live daemon serves, bind
    /// failures, and cache-root I/O failures.
    pub fn bind(opts: ServeOptions, listen: &str) -> Result<Server, String> {
        if !cache::safe_commit(&opts.commit) {
            return Err(format!(
                "commit id '{}' is not a safe directory name (use [A-Za-z0-9._-])",
                opts.commit
            ));
        }
        std::fs::create_dir_all(&opts.cache)
            .map_err(|e| format!("cannot create cache root {}: {e}", opts.cache.display()))?;
        let addr_file = opts.cache.join(ADDR_FILE);
        if let Some(live) = live_daemon(&addr_file) {
            return Err(format!(
                "cache root {} is already served by the daemon at {live}",
                opts.cache.display()
            ));
        }
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("no local address: {e}"))?;
        let (entries, bytes) = cache::sweep(&opts.cache);
        std::fs::write(&addr_file, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;
        let state = Arc::new(State {
            opts,
            addr,
            telemetry: Telemetry::new(),
            dp_memo: ants_workload::dp::DpMemo::new(),
            pool: Mutex::new(()),
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cache_entries: AtomicU64::new(0),
            cache_bytes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        state.count_into_cache(entries, bytes);
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serve until a `shutdown` request arrives. Consumes the server;
    /// the discovery file is removed on the way out.
    ///
    /// # Errors
    ///
    /// Accept-loop failures only; per-connection errors are answered on
    /// that connection and logged to stderr.
    pub fn run(self) -> Result<(), String> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(format!("accept failed: {e}"));
                }
            };
            if self.state.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection a shutdown handler makes to
                // unblock this accept; nothing to serve.
                break;
            }
            // An exited thread keeps its stack mapped until it is
            // joined, so reap before spawning: the live set stays the
            // handlers still running, however long the daemon runs.
            for finished in handlers.extract_if(.., |h| h.is_finished()) {
                let _ = finished.join();
            }
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || handle(stream, &state)));
        }
        for h in handlers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(self.state.opts.cache.join(ADDR_FILE));
        Ok(())
    }
}

/// The response side of a connection. The first write that fails (the
/// client hung up, or stopped reading for [`WRITE_TIMEOUT`]) mutes the
/// rest, so a miss streaming to a dead client blocks at most once.
struct Responder {
    stream: TcpStream,
    broken: bool,
}

impl Responder {
    fn send(&mut self, bytes: &[u8]) {
        if !self.broken {
            self.broken = self.stream.write_all(bytes).is_err();
        }
    }

    /// One event line, sent in one write.
    fn line(&mut self, text: &str) {
        self.send(format!("{text}\n").as_bytes());
    }
}

/// A reader that fails with `TimedOut` once `deadline` passes, however
/// slowly the bytes before it trickle in.
struct Deadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Read the request line: `Err` drops the connection unanswered (I/O
/// failure or timeout), `Ok(Err(_))` is answered with an `error` event.
fn read_request(stream: &TcpStream) -> std::io::Result<Result<String, String>> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let mut line = Vec::new();
    BufReader::new(Deadline { stream, deadline })
        .take(MAX_REQUEST_BYTES + 1)
        .read_until(b'\n', &mut line)?;
    if line.len() as u64 > MAX_REQUEST_BYTES {
        return Ok(Err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes")));
    }
    Ok(String::from_utf8(line).map_err(|_| "request line is not UTF-8".to_string()))
}

/// Serve one connection: read the request line, dispatch, respond.
fn handle(stream: TcpStream, state: &State) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let Ok(line) = read_request(&stream) else { return };
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let mut out = Responder { stream, broken: false };
    let req = match line.and_then(|line| Request::parse(line.trim_end())) {
        Ok(r) => r,
        Err(e) => {
            out.line(&error_event(&e));
            return;
        }
    };
    match req.op {
        Op::Stats => {
            state.telemetry.incr(0, Counter::ServeStats);
            out.line(&stats_event(&state.stats(), &state.telemetry.snapshot()));
        }
        Op::Shutdown => {
            state.telemetry.incr(0, Counter::ServeShutdown);
            out.line(&ok_event("shutting down"));
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
        }
        Op::Submit => {
            state.telemetry.incr(0, Counter::ServeSubmit);
            if let Err(e) = submit(&mut out, state, &req) {
                out.line(&error_event(&e));
            }
        }
        Op::Gate => {
            state.telemetry.incr(0, Counter::ServeGate);
            match submit(&mut out, state, &req) {
                Ok(outcome) => gate(&mut out, state, &req, &outcome),
                Err(e) => out.line(&error_event(&e)),
            }
        }
    }
}

/// What a finished submission hands the gate: where the current report
/// lives and under which keys.
struct SubmitOutcome {
    /// Cache key of the current entry.
    key: String,
    /// Workload key (`<wkey>.json` is the report file name).
    wkey: String,
    /// The current report document text.
    report_json: String,
}

/// The `submit` flow: resolve the cache key, replay a hit or compute,
/// stream, and persist a miss.
fn submit(out: &mut Responder, state: &State, req: &Request) -> Result<SubmitOutcome, String> {
    let t0 = Instant::now();
    let spec = WorkloadSpec::parse(&req.spec).map_err(|e| e.to_string())?;
    let plan = WorkloadPlan::expand(&spec).map_err(|e| e.to_string())?;
    let cfg = RunConfig::new(req.effort)
        .with_seed(req.seed)
        .with_metrics(req.metrics)
        .with_backend(req.backend)
        .with_dp_mode(req.dp_mode)
        .with_threads(state.opts.threads)
        .with_granularity(state.opts.granularity)
        .with_chunk(state.opts.chunk)
        // Attaches the dp_solve span and memo counters to exact rows;
        // cache keys never read the telemetry field, so this cannot
        // fragment the cache.
        .with_telemetry(Some(state.telemetry));
    let key = cache_key(&plan, &cfg, &state.opts.commit);
    let wkey = plan.key.clone();
    let entry = Entry::at(&state.opts.cache, &key);
    if entry.is_hit() {
        let body = entry.response()?;
        let report_json = entry.report_text(&wkey)?;
        out.line(&status_event(&key, true));
        out.send(body.as_bytes());
        state.hits.fetch_add(1, Ordering::Relaxed);
        state.telemetry.incr(0, Counter::ServeHits);
        state.telemetry.record_latency(LatencyKind::Hit, t0.elapsed());
        return Ok(SubmitOutcome { key, wkey, report_json });
    }
    // Announce the miss before queueing for the pool, so the client
    // knows it is waiting on compute rather than a slow replay.
    out.line(&status_event(&key, false));
    let _pool = state.pool.lock().unwrap_or_else(PoisonError::into_inner);
    if entry.is_hit() {
        // A concurrent miss for the same key finished while this one
        // queued: replay its (byte-identical) body instead of redoing
        // the work. The status line already said `cached:false`, which
        // is truthful about this request's wait, and the body bytes are
        // the contract.
        let body = entry.response()?;
        let report_json = entry.report_text(&wkey)?;
        out.send(body.as_bytes());
        state.hits.fetch_add(1, Ordering::Relaxed);
        state.telemetry.incr(0, Counter::ServeHits);
        state.telemetry.record_latency(LatencyKind::Hit, t0.elapsed());
        return Ok(SubmitOutcome { key, wkey, report_json });
    }
    let exp = WorkloadExperiment::new(plan);
    let (report_json, body) =
        panic::catch_unwind(AssertUnwindSafe(|| compute(out, state, &exp, &cfg)))
            .unwrap_or_else(|payload| Err(format!("miss panicked: {}", panic_text(&*payload))))?;
    state.publish(&entry, &spec, exp.plan(), &report_json, &body)?;
    state.misses.fetch_add(1, Ordering::Relaxed);
    state.telemetry.incr(0, Counter::ServeMisses);
    state.telemetry.record_latency(LatencyKind::Miss, t0.elapsed());
    Ok(SubmitOutcome { key, wkey, report_json })
}

/// Run a miss on the pool, streaming each cell's event as it lands.
/// Returns the report document and the response body to store.
fn compute(
    out: &mut Responder,
    state: &State,
    exp: &WorkloadExperiment,
    cfg: &RunConfig,
) -> Result<(String, String), String> {
    exp.validate_backends(cfg).map_err(|e| e.to_string())?;
    let mut sweep = SweepOptions::with_threads(cfg.threads)
        .granularity(cfg.granularity)
        .with_telemetry(state.telemetry);
    if let Some(chunk) = cfg.chunk {
        sweep = sweep.chunk(chunk);
    }
    let started = Instant::now();
    let mut body = String::new();
    let mut report = exp
        .try_run_streamed_with(cfg, &sweep, &state.dp_memo, |i, cell, row| {
            let line = cell_event(i, &cell.label, row);
            // A client that hung up mid-stream must not abort the run:
            // the work is already scheduled and the entry is worth
            // caching either way.
            out.line(&line);
            body.push_str(&line);
            body.push('\n');
        })
        .map_err(|e| e.to_string())?;
    report.set_wall_ms(started.elapsed().as_secs_f64() * 1e3);
    let report_json = report.to_json();
    let line = report_event(&report_json);
    out.line(&line);
    body.push_str(&line);
    body.push('\n');
    Ok((report_json, body))
}

/// The message a panic carried, for its `error` event.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(text), _) => text,
        (_, Some(text)) => text,
        _ => "non-text panic payload",
    }
}

/// The `gate` tail: compare the current report against the newest other
/// cache entry for the same workload and emit a `gate` event.
fn gate(out: &mut Responder, state: &State, req: &Request, outcome: &SubmitOutcome) {
    let thresholds = req.thresholds.unwrap_or_default();
    let line = match cache::latest_baseline(&state.opts.cache, &outcome.wkey, &outcome.key) {
        None => gate_event(None),
        Some(baseline) => {
            let compared = baseline.report_text(&outcome.wkey).and_then(|base_text| {
                let base = ReportDoc::parse(&base_text).map_err(|e| format!("baseline: {e}"))?;
                let cur = ReportDoc::parse(&outcome.report_json)
                    .map_err(|e| format!("current report: {e}"))?;
                gate_report(&base, &cur, &thresholds)
            });
            gate_event(Some((&baseline.key, compared.as_deref().map_err(String::as_str))))
        }
    };
    out.line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request_lines;
    use crate::protocol::event_of;
    use ants_sim::json::Json;

    const SPEC: &str = "\
name = \"server unit\"
[defaults]
trials = 4
[[cells]]
name = \"c\"
agents = 2
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"randomwalk\" } ]
";

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ants-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Bind a daemon on `root` and run it; the state stays reachable.
    fn start(root: &Path) -> (Arc<State>, String, std::thread::JoinHandle<Result<(), String>>) {
        let server = Server::bind(ServeOptions::new(root), "127.0.0.1:0").unwrap();
        let state = Arc::clone(&server.state);
        let addr = server.local_addr().to_string();
        (state, addr, std::thread::spawn(move || server.run()))
    }

    fn stop(addr: &str, thread: std::thread::JoinHandle<Result<(), String>>) {
        request_lines(addr, &Request::bare(Op::Shutdown)).unwrap();
        thread.join().unwrap().unwrap();
    }

    fn smoke_submit(addr: &str, seed: u64) -> Vec<String> {
        let mut req = Request::submit(SPEC);
        req.effort = ants_bench::Effort::Smoke;
        req.seed = seed;
        request_lines(addr, &req).unwrap()
    }

    /// `entries`, telemetry `cache_entries` and `cache_bytes`.
    fn gauges(addr: &str) -> [f64; 3] {
        let lines = request_lines(addr, &Request::bare(Op::Stats)).unwrap();
        let doc = Json::parse(&lines[0]).unwrap();
        let serve = doc.get("telemetry").and_then(|t| t.get("serve")).unwrap();
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap();
        [num(doc.get("entries")), num(serve.get("cache_entries")), num(serve.get("cache_bytes"))]
    }

    #[test]
    fn in_memory_gauges_equal_a_full_recount() {
        let root = temp_root("gauges");
        let (state, addr, thread) = start(&root);
        for seed in [0, 1, 2, 0] {
            smoke_submit(&addr, seed);
        }
        // A duplicate store of a published entry finds it in place and
        // adds nothing.
        let spec = WorkloadSpec::parse(SPEC).unwrap();
        let plan = WorkloadPlan::expand(&spec).unwrap();
        let entry = Entry::at(&root, &cache_key(&plan, &RunConfig::smoke(), "local"));
        assert!(entry.is_hit());
        let (report, body) = (entry.report_text(&plan.key).unwrap(), entry.response().unwrap());
        state.publish(&entry, &spec, &plan, &report, &body).unwrap();
        let live = gauges(&addr);
        assert_eq!(live[0], 3.0, "three distinct seeds, one repeat");
        assert_eq!(live[0], live[1]);
        assert!(live[2] > 0.0);
        stop(&addr, thread);
        let (_, addr, thread) = start(&root);
        assert_eq!(gauges(&addr), live, "a fresh daemon's bind-time walk agrees");
        stop(&addr, thread);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_poisoned_pool_lock_does_not_disable_misses() {
        let root = temp_root("poison");
        let (state, addr, thread) = start(&root);
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.pool.lock().unwrap();
            panic!("poisoning the pool lock on purpose");
        })
        .join();
        assert!(state.pool.is_poisoned());
        let lines = smoke_submit(&addr, 0);
        assert!(lines.iter().all(|l| event_of(l).as_deref() != Some("error")), "{lines:?}");
        assert_eq!(event_of(lines.last().unwrap()).as_deref(), Some("report"));
        stop(&addr, thread);
        let _ = std::fs::remove_dir_all(&root);
    }
}
