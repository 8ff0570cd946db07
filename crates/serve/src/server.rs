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
//!   that fails to parse/expand/validate, or a DP-incapable cell forced
//!   onto the exact backend all come back as `error` events; the daemon
//!   keeps serving.

use crate::cache::{self, cache_key, Entry, ADDR_FILE};
use crate::protocol::{cell_event, error_event, status_event, Op, Request};
use ants_bench::{gate_report, RunConfig, WorkloadExperiment};
use ants_obs::{Counter, Gauge, LatencyKind, Telemetry};
use ants_sim::json::{escape, Json};
use ants_sim::{Granularity, SweepOptions};
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// A point-in-time counter snapshot (`stats` responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Requests accepted (any op).
    pub requests: u64,
    /// Submissions served from cache.
    pub hits: u64,
    /// Submissions computed on the pool.
    pub misses: u64,
    /// Cumulative agent steps the sweep pool executed: the daemon
    /// telemetry's `engine_steps` counter, which every Monte-Carlo work
    /// unit adds to at any thread count. A hit leaves it unchanged.
    pub pool_work: u64,
    /// Cache entries on disk.
    pub entries: u64,
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
    /// Misses serialize here; hits never take it.
    pool: Mutex<()>,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    shutdown: AtomicBool,
}

impl State {
    /// Re-measure the cache gauges: entry count and bytes on disk.
    /// Called where the cache can have changed (stats requests, after a
    /// miss persists) rather than on every request.
    fn refresh_cache_gauges(&self) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        if let Ok(rd) = std::fs::read_dir(&self.opts.cache) {
            for e in rd.filter_map(Result::ok) {
                let path = e.path();
                if path.is_dir() {
                    entries += 1;
                    bytes = bytes.saturating_add(dir_bytes(&path));
                }
            }
        }
        self.telemetry.set_gauge(Gauge::CacheEntries, entries);
        self.telemetry.set_gauge(Gauge::CacheBytes, bytes);
    }

    fn stats(&self) -> Stats {
        let entries = std::fs::read_dir(&self.opts.cache)
            .map(|rd| rd.filter_map(Result::ok).filter(|e| e.path().is_dir()).count() as u64)
            .unwrap_or(0);
        Stats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pool_work: self.telemetry.counter(Counter::EngineSteps),
            entries,
        }
    }
}

/// Total file bytes under `dir`, recursively.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0u64;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.filter_map(Result::ok) {
            let path = e.path();
            if path.is_dir() {
                total = total.saturating_add(dir_bytes(&path));
            } else if let Ok(md) = path.metadata() {
                total = total.saturating_add(md.len());
            }
        }
    }
    total
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
    /// Bind `listen` (e.g. `"127.0.0.1:0"`), create the cache root, and
    /// write the `serve.addr` discovery file clients read via
    /// `--cache`.
    ///
    /// # Errors
    ///
    /// Unsafe commit ids, bind failures, and cache-root I/O failures.
    pub fn bind(opts: ServeOptions, listen: &str) -> Result<Server, String> {
        if !cache::safe_commit(&opts.commit) {
            return Err(format!(
                "commit id '{}' is not a safe directory name (use [A-Za-z0-9._-])",
                opts.commit
            ));
        }
        std::fs::create_dir_all(&opts.cache)
            .map_err(|e| format!("cannot create cache root {}: {e}", opts.cache.display()))?;
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("no local address: {e}"))?;
        let addr_file = opts.cache.join(ADDR_FILE);
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
            shutdown: AtomicBool::new(false),
        });
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
        let mut handlers = Vec::new();
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

/// Serve one connection: read the request line, dispatch, respond.
fn handle(stream: TcpStream, state: &State) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut out = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let req = match Request::parse(line.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "{}", error_event(&e));
            return;
        }
    };
    match req.op {
        Op::Stats => {
            state.telemetry.incr(0, Counter::ServeStats);
            state.refresh_cache_gauges();
            let s = state.stats();
            // One line, existing fields first: CI's serve-smoke parses
            // `pool_work` off this line, and the `telemetry` block rides
            // behind it as a nested single-line object.
            let _ = writeln!(
                out,
                "{{\"event\":\"stats\",\"requests\":{},\"hits\":{},\"misses\":{},\
                 \"pool_work\":{},\"entries\":{},\"telemetry\":{}}}",
                s.requests,
                s.hits,
                s.misses,
                s.pool_work,
                s.entries,
                state.telemetry.snapshot().to_inline_json()
            );
        }
        Op::Shutdown => {
            state.telemetry.incr(0, Counter::ServeShutdown);
            let _ = writeln!(out, "{{\"event\":\"ok\",\"message\":\"shutting down\"}}");
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
        }
        Op::Submit => {
            state.telemetry.incr(0, Counter::ServeSubmit);
            if let Err(e) = submit(&mut out, state, &req) {
                let _ = writeln!(out, "{}", error_event(&e));
            }
        }
        Op::Gate => {
            state.telemetry.incr(0, Counter::ServeGate);
            match submit(&mut out, state, &req) {
                Ok(outcome) => gate(&mut out, state, &req, &outcome),
                Err(e) => {
                    let _ = writeln!(out, "{}", error_event(&e));
                }
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
fn submit(out: &mut TcpStream, state: &State, req: &Request) -> Result<SubmitOutcome, String> {
    let t0 = std::time::Instant::now();
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
        let _ = writeln!(out, "{}", status_event(&key, true));
        let _ = out.write_all(body.as_bytes());
        state.hits.fetch_add(1, Ordering::Relaxed);
        state.telemetry.incr(0, Counter::ServeHits);
        state.telemetry.record_latency(LatencyKind::Hit, t0.elapsed());
        return Ok(SubmitOutcome { key, wkey, report_json });
    }
    // Announce the miss before queueing for the pool, so the client
    // knows it is waiting on compute rather than a slow replay.
    let _ = writeln!(out, "{}", status_event(&key, false));
    let _ = out.flush();
    let _pool = state.pool.lock().map_err(|_| "pool mutex poisoned".to_string())?;
    if entry.is_hit() {
        // A concurrent miss for the same key finished while this one
        // queued: replay its (byte-identical) body instead of redoing
        // the work. The status line already said `cached:false`, which
        // is truthful about this request's wait, and the body bytes are
        // the contract.
        let body = entry.response()?;
        let report_json = entry.report_text(&wkey)?;
        let _ = out.write_all(body.as_bytes());
        state.hits.fetch_add(1, Ordering::Relaxed);
        state.telemetry.incr(0, Counter::ServeHits);
        state.telemetry.record_latency(LatencyKind::Hit, t0.elapsed());
        return Ok(SubmitOutcome { key, wkey, report_json });
    }
    let exp = WorkloadExperiment::new(plan);
    exp.validate_backends(&cfg).map_err(|e| e.to_string())?;
    let mut sweep = SweepOptions::with_threads(cfg.threads)
        .granularity(cfg.granularity)
        .with_telemetry(state.telemetry);
    if let Some(chunk) = cfg.chunk {
        sweep = sweep.chunk(chunk);
    }
    let started = std::time::Instant::now();
    let mut body = String::new();
    let mut report = exp
        .try_run_streamed_with(&cfg, &sweep, &state.dp_memo, |i, cell, row| {
            let line = cell_event(i, &cell.label, row);
            // A client that hung up mid-stream must not abort the run:
            // the work is already scheduled and the entry is worth
            // caching either way.
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
            body.push_str(&line);
            body.push('\n');
        })
        .map_err(|e| e.to_string())?;
    report.set_wall_ms(started.elapsed().as_secs_f64() * 1e3);
    let report_json = report.to_json();
    let line = format!("{{\"event\":\"report\",\"report\":{report_json}}}");
    let _ = writeln!(out, "{line}");
    body.push_str(&line);
    body.push('\n');
    entry.store(&spec, exp.plan(), &report_json, &body)?;
    state.misses.fetch_add(1, Ordering::Relaxed);
    state.telemetry.incr(0, Counter::ServeMisses);
    state.telemetry.record_latency(LatencyKind::Miss, t0.elapsed());
    state.refresh_cache_gauges();
    Ok(SubmitOutcome { key, wkey, report_json })
}

/// The `gate` tail: compare the current report against the newest other
/// cache entry for the same workload and emit a `gate` event.
fn gate(out: &mut TcpStream, state: &State, req: &Request, outcome: &SubmitOutcome) {
    let thresholds = req.thresholds.unwrap_or_default();
    let Some(baseline) = cache::latest_baseline(&state.opts.cache, &outcome.wkey, &outcome.key)
    else {
        let _ = writeln!(
            out,
            "{{\"event\":\"gate\",\"baseline\":null,\"pass\":true,\"violations\":[],\
             \"note\":\"no baseline entry for this workload yet\"}}"
        );
        return;
    };
    let compared = baseline.report_text(&outcome.wkey).and_then(|base_text| {
        let base = Json::parse(&base_text).map_err(|e| format!("baseline unparsable: {e}"))?;
        let cur = Json::parse(&outcome.report_json)
            .map_err(|e| format!("current report unparsable: {e}"))?;
        gate_report(&base, &cur, &thresholds)
    });
    match compared {
        Ok(violations) => {
            let rendered: Vec<String> = violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"cell\":\"{}\",\"column\":\"{}\",\"baseline\":\"{}\",\
                         \"current\":\"{}\",\"detail\":\"{}\"}}",
                        escape(&v.cell),
                        escape(&v.column),
                        escape(&v.baseline),
                        escape(&v.current),
                        escape(&v.detail)
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"event\":\"gate\",\"baseline\":\"{}\",\"pass\":{},\"violations\":[{}]}}",
                escape(&baseline.key),
                violations.is_empty(),
                rendered.join(",")
            );
        }
        Err(e) => {
            // Apples-to-oranges comparisons fail the gate loudly rather
            // than passing vacuously.
            let _ = writeln!(
                out,
                "{{\"event\":\"gate\",\"baseline\":\"{}\",\"pass\":false,\"violations\":[],\
                 \"note\":\"{}\"}}",
                escape(&baseline.key),
                escape(&e)
            );
        }
    }
}
