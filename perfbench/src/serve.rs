//! The `serve-mix` workload: an in-process `ants_serve::Server` on a
//! fresh cache, warmed in set-up with [`gen::SERVE_WARM`] entries, then
//! a closed loop of [`CLIENTS`] client threads that each send their next
//! request only after the previous one's last line arrived.
//!
//! Checks: a resubmitted (plain or respelled) warmed spec must come back
//! `cached:true` with a body byte-identical to the body its set-up miss
//! streamed; a fresh-seed submission must come back `cached:false`, with
//! one `cell` event per planned cell and a closing `report`; a sample of
//! those is resubmitted after the loop and must replay byte-identically.
//! Any `error` event or I/O error is a failure.

use crate::gen::{self, ServeMix, ServeReq};
use crate::trace::{median, quantile, ratio, Tracer};
use crate::{layers, latency_metrics, Opts, Outcome, SETUP_REPS, THREADS};
use ants_bench::{RunConfig, WorkloadExperiment};
use ants_serve::protocol::Op;
use ants_serve::{
    cache_key, request_lines, request_streamed, Entry, Request, ServeOptions, Server,
};
use ants_sim::json::Json;
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Concurrent client connections of the closed loop.
pub const CLIENTS: usize = 2;

/// `wall_s` on serve-mix is the loop's time per this many requests.
const BLOCK: f64 = 1536.0;

/// `peak_rss_mb` is read when this request of the stream completes, so
/// every run reports the memory of the same amount of served traffic
/// (the daemon keeps every handler thread until shutdown, so memory
/// grows with requests served).
const RSS_AT_REQUEST: u64 = 2000;

/// Fresh submissions replayed after the loop to check their bodies.
const REPLAY_CHECKS: usize = 16;

/// A daemon running on its own thread.
struct Daemon {
    addr: String,
    cache: PathBuf,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(cache: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&cache);
        let mut opts = ServeOptions::new(&cache);
        opts.threads = Some(THREADS);
        opts.commit = "perfbench".to_string();
        let server = Server::bind(opts, "127.0.0.1:0")?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, cache, thread })
    }

    /// Shut the daemon down, join its thread and delete its cache.
    fn stop(self) -> Result<(), String> {
        let sent = request_lines(&self.addr, &Request::bare(Op::Shutdown));
        let joined = self.thread.join().map_err(|_| "serve thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.cache);
        sent.map_err(|e| format!("shutdown failed: {e}"))?;
        joined
    }
}

/// One response as the client saw it.
struct Reply {
    cached: Option<bool>,
    /// Every line after the `status` line, newline-terminated.
    body: String,
    cells: usize,
    report: bool,
    error: bool,
    first_ms: f64,
    total_ms: f64,
}

fn submit(addr: &str, text: &str, seed: u64) -> std::io::Result<Reply> {
    let req = Request { seed, ..Request::submit(text) };
    let t0 = Instant::now();
    let mut reply = Reply {
        cached: None,
        body: String::new(),
        cells: 0,
        report: false,
        error: false,
        first_ms: f64::NAN,
        total_ms: 0.0,
    };
    request_streamed(addr, &req, |line| {
        if reply.first_ms.is_nan() {
            reply.first_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        let event = Json::parse(line).ok();
        let kind = event.as_ref().and_then(|e| e.get("event")).and_then(Json::as_str);
        match kind {
            Some("status") => {
                reply.cached = match event.as_ref().and_then(|e| e.get("cached")) {
                    Some(Json::Bool(b)) => Some(*b),
                    _ => None,
                };
                return;
            }
            Some("cell") => reply.cells += 1,
            Some("report") => reply.report = true,
            _ => reply.error = true,
        }
        reply.body.push_str(line);
        reply.body.push('\n');
    })?;
    reply.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(reply)
}

/// Operation classes of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Stats,
}

/// One completed operation.
struct Done {
    class: Class,
    ok: bool,
    latency_ms: f64,
    first_ms: f64,
    finished_s: f64,
    fresh: Option<(usize, u64, String)>,
}

/// Set-up state: the inputs, the running daemon and the warmed bodies.
struct Warmed {
    mix: ServeMix,
    warm_texts: Vec<String>,
    fresh_texts: Vec<String>,
    fresh_cells: Vec<usize>,
    bodies: Vec<String>,
    daemon: Daemon,
}

fn warm_up(opts: &Opts, rep: usize) -> Result<Warmed, String> {
    let mix = gen::serve_mix(opts.seed);
    let warm_texts: Vec<String> = mix.warm.iter().map(gen::Spec::text).collect();
    let fresh_texts: Vec<String> = mix.fresh.iter().map(gen::Spec::text).collect();
    let fresh_cells = fresh_texts
        .iter()
        .map(|t| {
            let spec = WorkloadSpec::parse(t).map_err(|e| e.to_string())?;
            Ok(WorkloadPlan::expand(&spec).map_err(|e| e.to_string())?.cells.len())
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let cache = opts.workdir.join(format!("serve-{}-{rep}", std::process::id()));
    let daemon = Daemon::start(cache)?;
    let mut bodies = Vec::with_capacity(warm_texts.len());
    for (i, text) in warm_texts.iter().enumerate() {
        let reply = submit(&daemon.addr, text, 0).map_err(|e| format!("warm-up {i}: {e}"))?;
        if reply.cached != Some(false) || reply.error || !reply.report {
            let _ = daemon.stop();
            return Err(format!("warm-up {i} did not compute cleanly: {}", reply.body));
        }
        bodies.push(reply.body);
    }
    Ok(Warmed { mix, warm_texts, fresh_texts, fresh_cells, bodies, daemon })
}

/// Run `serve-mix`.
///
/// # Errors
///
/// Set-up failures (bind, warm-up) and a daemon that fails to stop.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut warmed: Option<Warmed> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = warmed.take() {
            previous.daemon.stop()?;
        }
        let t0 = Instant::now();
        warmed = Some(warm_up(opts, rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    let w = warmed.expect("at least one set-up");
    let next = AtomicU64::new(0);
    let rss_mb = AtomicU64::new(f64::NAN.to_bits());
    if opts.trace {
        traced(&w, &next, &rss_mb, opts, &mut out);
    } else {
        let ((done, elapsed), _) = closed_loop(&w, &next, &rss_mb, opts.seconds, false);
        summarize(&done, elapsed, &mut out);
        replay_fresh(&w, &done, &mut out);
        let at = f64::from_bits(rss_mb.load(Ordering::Relaxed));
        out.set("peak_rss_mb", if at.is_nan() { crate::trace::peak_rss_mb() } else { at });
        out.set("ok_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    }
    w.daemon.stop()?;
    Ok(out)
}

/// The closed loop: [`CLIENTS`] threads claim stream indices from `next`
/// until `seconds` have passed. Returns the completed operations in
/// completion order, the loop's wall time, and each client's spans;
/// stores the peak RSS (MB, as `f64` bits) into `rss_mb` when request
/// [`RSS_AT_REQUEST`] completes.
fn closed_loop(
    w: &Warmed,
    next: &AtomicU64,
    rss_mb: &AtomicU64,
    seconds: f64,
    trace: bool,
) -> ((Vec<Done>, f64), Vec<Tracer>) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Done>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, started);
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        done.push(one_request(w, w.mix.request(i), &mut tracer, started));
                        if i == RSS_AT_REQUEST {
                            rss_mb.store(crate::trace::peak_rss_mb().to_bits(), Ordering::Relaxed);
                        }
                    }
                    (done, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut done = Vec::new();
    let mut tracers = Vec::new();
    for (d, t) in per_client {
        done.extend(d);
        tracers.push(t);
    }
    done.sort_by(|a, b| a.finished_s.total_cmp(&b.finished_s));
    ((done, elapsed), tracers)
}

fn one_request(w: &Warmed, req: ServeReq, tracer: &mut Tracer, started: Instant) -> Done {
    let addr = w.daemon.addr.as_str();
    let finish = |class, ok, latency_ms, first_ms, fresh| Done {
        class,
        ok,
        latency_ms,
        first_ms,
        finished_s: started.elapsed().as_secs_f64(),
        fresh,
    };
    match req {
        ServeReq::Hit(i) | ServeReq::Respelled(i, _) => {
            let text = match req {
                ServeReq::Respelled(_, v) => w.mix.warm[i].respelled(v),
                _ => w.warm_texts[i].clone(),
            };
            match tracer.span("serve.submit.hit", |_| submit(addr, &text, 0)) {
                Ok(r) => {
                    let ok = r.cached == Some(true) && !r.error && r.body == w.bodies[i];
                    finish(Class::Hit, ok, r.total_ms, r.first_ms, None)
                }
                Err(_) => finish(Class::Hit, false, f64::NAN, f64::NAN, None),
            }
        }
        ServeReq::Fresh(k, seed) => {
            match tracer.span("serve.submit.miss", |_| submit(addr, &w.fresh_texts[k], seed)) {
                Ok(r) => {
                    let ok = r.cached == Some(false)
                        && !r.error
                        && r.report
                        && r.cells == w.fresh_cells[k];
                    let (latency, first) = (r.total_ms, r.first_ms);
                    finish(Class::Miss, ok, latency, first, Some((k, seed, r.body)))
                }
                Err(_) => finish(Class::Miss, false, f64::NAN, f64::NAN, None),
            }
        }
        ServeReq::Stats => {
            let t0 = Instant::now();
            let lines =
                tracer.span("serve.stats", |_| request_lines(addr, &Request::bare(Op::Stats)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let ok = lines.is_ok_and(|l| l.len() == 1 && l[0].starts_with("{\"event\":\"stats\""));
            finish(Class::Stats, ok, ms, ms, None)
        }
    }
}

/// End-to-end metrics of a loop, over the whole loop: later requests
/// meet a larger cache than earlier ones, so no part of the loop stands
/// for the rest. `req_per_s` is completions per second, `wall_s` the time
/// per [`BLOCK`] requests, and `p50_ms` / `p90_ms` span every request.
fn summarize(done: &[Done], elapsed: f64, out: &mut Outcome) {
    for d in done {
        out.check(d.ok);
    }
    let rate = done.len() as f64 / elapsed;
    out.set("req_per_s", rate);
    out.set("wall_s", BLOCK / rate);
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_ms).filter(|x| x.is_finite()).collect();
    latency_metrics(out, &latencies);
    let count = |c: Class| done.iter().filter(|d| d.class == c).count();
    let miss_p50 = |part: &[Done]| {
        let ms: Vec<f64> =
            part.iter().filter(|d| d.class == Class::Miss).map(|d| d.latency_ms).collect();
        median(&ms)
    };
    let quarter = done.len() / 4;
    eprintln!(
        "perfbench: serve-mix {} hits, {} misses, {} stats; miss p50 {:.2} ms in the first quarter, {:.2} ms in the last",
        count(Class::Hit),
        count(Class::Miss),
        count(Class::Stats),
        miss_p50(&done[..quarter]),
        miss_p50(&done[done.len() - quarter..])
    );
}

/// Resubmit up to [`REPLAY_CHECKS`] fresh submissions: each must now be
/// a hit whose body equals the body its miss streamed.
fn replay_fresh(w: &Warmed, done: &[Done], out: &mut Outcome) {
    for (k, seed, body) in done.iter().filter_map(|d| d.fresh.as_ref()).take(REPLAY_CHECKS) {
        let ok = submit(&w.daemon.addr, &w.fresh_texts[*k], *seed)
            .is_ok_and(|r| r.cached == Some(true) && !r.error && r.body == *body);
        out.check(ok);
    }
}

/// The traced run: a plain loop, then a traced loop (half the time
/// each; their median hit latencies give `obs.overhead_frac`), then the
/// cache, workload, report and engine layers over the same inputs.
fn traced(w: &Warmed, next: &AtomicU64, rss_mb: &AtomicU64, opts: &Opts, out: &mut Outcome) {
    let ((plain, _), _) = closed_loop(w, next, rss_mb, opts.seconds / 2.0, false);
    let ((done, elapsed), tracers) = closed_loop(w, next, rss_mb, opts.seconds / 2.0, true);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    for t in tracers {
        tracer.absorb(t);
    }
    for d in plain.iter().chain(&done) {
        out.check(d.ok);
    }
    let of = |set: &[Done], c: Class| -> Vec<f64> {
        set.iter().filter(|d| d.class == c).map(|d| d.latency_ms).collect()
    };
    let (hits, misses) = (of(&done, Class::Hit), of(&done, Class::Miss));
    out.set("obs.overhead_frac", median(&hits) / median(&of(&plain, Class::Hit)) - 1.0);
    out.set("serve.hit_p50_ms", quantile(&hits, 0.5));
    out.set("serve.hit_p99_ms", quantile(&hits, 0.99));
    out.set("serve.miss_p50_ms", quantile(&misses, 0.5));
    out.set("serve.miss_p90_ms", quantile(&misses, 0.9));
    out.set("serve.stats_ms", median(&of(&done, Class::Stats)));
    let firsts: Vec<f64> =
        done.iter().filter(|d| d.class == Class::Miss).map(|d| d.first_ms).collect();
    out.set("serve.first_event_ms", median(&firsts));
    out.set("serve.hit_frac", ratio(hits.len() as f64, (hits.len() + misses.len()) as f64));
    eprintln!(
        "perfbench: traced loop {} ops in {elapsed:.2} s ({} hits, {} misses)",
        done.len(),
        hits.len(),
        misses.len()
    );

    cache_layers(w, opts, &mut tracer, out);
    daemon_pool(w, out);
    let owned: Vec<WorkloadPlan> = w.fresh_texts.iter().map(|t| plan_of(t)).collect();
    let fresh_plans: Vec<&WorkloadPlan> = owned.iter().collect();
    layers::rng_and_steps(&fresh_plans, opts.seed, out);
    layers::serial_trials(&fresh_plans, &mut tracer, out);
    crate::dp::layers(&fresh_plans, &mut tracer, out);
    layers::parse_expand_key(&w.warm_texts[..50], 4, &mut tracer, out);
    let cfg = RunConfig::standard().with_threads(Some(THREADS));
    let reports: Vec<_> = w
        .fresh_texts
        .iter()
        .map(|t| WorkloadExperiment::new(plan_of(t)).try_run(&cfg).expect("fresh specs run"))
        .collect();
    layers::render(&reports, 20, &mut tracer, out);
    crate::mc::write_trace(&tracer, "serve-mix", opts);
}

/// Parse and expand a generated spec (they were validated in set-up).
fn plan_of(text: &str) -> WorkloadPlan {
    WorkloadPlan::expand(&WorkloadSpec::parse(text).expect("parsed in set-up"))
        .expect("expanded in set-up")
}

/// `serve.probe_us` (`Entry::at` + `is_hit`), `serve.replay_us`
/// (`Entry::response`) over every warmed key, and `serve.store_ms`
/// (`Entry::store` of warmed bodies into a scratch root).
fn cache_layers(w: &Warmed, opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let cfg = RunConfig::standard();
    let store_root = opts.workdir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    for (i, text) in w.warm_texts.iter().enumerate() {
        let spec = WorkloadSpec::parse(text).expect("parsed in set-up");
        let plan = plan_of(text);
        let key = cache_key(&plan, &cfg, "perfbench");
        let entry = tracer.span("serve.probe", |_| {
            let e = Entry::at(&w.daemon.cache, &key);
            let hit = e.is_hit();
            (e, hit)
        });
        out.check(entry.1);
        let body = tracer.span("serve.replay", |_| entry.0.response());
        out.check(body.as_ref().is_ok_and(|b| *b == w.bodies[i]));
        if i % 4 == 0 {
            let report = entry.0.report_text(&plan.key).unwrap_or_default();
            let body = body.unwrap_or_default();
            let copy = Entry::at(&store_root, &format!("{key}-copy"));
            let stored = tracer.span("serve.store", |_| copy.store(&spec, &plan, &report, &body));
            out.check(stored.is_ok());
        }
    }
    let _ = std::fs::remove_dir_all(&store_root);
    out.set("serve.probe_us", crate::trace::mean(&tracer.durations("serve.probe")) / 1e3);
    out.set("serve.replay_us", crate::trace::mean(&tracer.durations("serve.replay")) / 1e3);
    out.set("serve.store_ms", crate::trace::mean(&tracer.durations("serve.store")) / 1e6);
}

/// Pool and decision metrics of the daemon's own miss sweeps, read from
/// the telemetry block of a `stats` response (units per miss).
fn daemon_pool(w: &Warmed, out: &mut Outcome) {
    let Ok(lines) = request_lines(&w.daemon.addr, &Request::bare(Op::Stats)) else { return };
    let Some(doc) = lines.first().and_then(|l| Json::parse(l).ok()) else { return };
    let misses = doc.get("misses").and_then(Json::as_f64).unwrap_or(1.0) as u64;
    let Some(tele) = doc.get("telemetry") else { return };
    let schema = tele.get("schema").and_then(Json::as_str).unwrap_or_default();
    let mut ndjson = String::new();
    for sub in ["pool", "engine", "phases", "serve", "dp", "plans"] {
        if let Some(body) = tele.get(sub) {
            let object = body.serialize();
            let fields = object.strip_prefix('{').and_then(|f| f.strip_suffix('}')).unwrap_or("");
            ndjson.push_str(&format!(
                "{{\"schema\":\"{schema}\",\"subsystem\":\"{sub}\",{fields}}}\n"
            ));
        }
    }
    match ants_obs::Snapshot::parse_ndjson(&ndjson) {
        Ok(snap) => layers::pool_and_decisions(&snap, misses, out),
        Err(e) => eprintln!("perfbench: daemon telemetry unreadable: {e}"),
    }
}
