//! # ants-obs — zero-cost telemetry for the simulation stack
//!
//! A [`Telemetry`] handle aggregates per-worker sharded counters,
//! monotonic span timers, log2 latency histograms, gauges, and a
//! scheduling-decision log — strictly off the determinism path: nothing
//! here touches an RNG, feeds a reduction, or appears in a report, so
//! results are byte-identical with telemetry attached or not (pinned by
//! `crates/bench/tests/telemetry.rs`).
//!
//! Design constraints, in order:
//!
//! * **Zero cost when absent.** Producers hold an `Option<Telemetry>`;
//!   the hot path pays one branch per *work unit*, never per step.
//! * **No contention when present.** Counters are sharded per worker
//!   into `align(64)`-padded cache lines, so two workers never
//!   bounce a line; increments are relaxed `fetch_add`s on the worker's
//!   own shard.
//! * **Copyable handle.** [`Telemetry`] is `Copy` (a `&'static` to
//!   leaked state), so it threads through `Copy` config structs and
//!   `move` closures without `Arc` plumbing. Construction leaks ~10 KB
//!   for the process lifetime: create one handle per long-lived context
//!   (a CLI invocation, a daemon), not per request.
//!
//! Aggregates freeze into a [`Snapshot`] — plain mergeable data with a
//! schema-versioned NDJSON serialization (see [`snapshot`](Snapshot)).
//!
//! The crate also holds the workspace's one JSON module, [`json`]: a
//! value model with exact `u64` integers, a strict parser, and a compact
//! writer. It sits here because `ants-obs` has no dependencies, so every
//! crate above can share it; `ants-sim` re-exports it as `ants_sim::json`.

#![forbid(unsafe_code)]

pub mod json;
mod snapshot;

pub use snapshot::{PlanDecision, PlanLog, Snapshot, SNAPSHOT_SCHEMA};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on distinguishable worker shards; workers at or past this
/// index share the last shard. Matches the scheduler's thread clamp.
pub const MAX_WORKERS: usize = 64;

/// Buckets per latency histogram: bucket `b` counts durations in
/// `[2^b, 2^(b+1))` nanoseconds, so 40 buckets span ~1 ns to ~9 minutes.
pub const HIST_BUCKETS: usize = 40;

/// The counter catalogue. Every counter is a monotone event count (or
/// nanosecond total) summed across worker shards; none feeds back into
/// any computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Work units executed by the sweep pool (trials + agent chunks).
    PoolUnits,
    /// Units executed off their home worker (`unit % workers`): work the
    /// atomic cursor dynamically rebalanced relative to a static split.
    PoolSteals,
    /// Cursor claims attempted (successful claims + the final miss each
    /// worker exits on).
    PoolPolls,
    /// Nanoseconds workers spent executing units.
    PoolBusyNs,
    /// Nanoseconds workers spent in the drain loop *not* executing units.
    PoolIdleNs,
    /// Agent-level trial reductions performed (wave 2).
    PoolReduces,
    /// Agent steps simulated by the engine.
    EngineSteps,
    /// Shared cap-hint reads (one per agent start).
    HintPolls,
    /// Agent starts whose cap the hint lowered.
    HintClamps,
    /// Moves the hint cut off speculative agents, vs the unhinted local
    /// bound — a lower bound on steps saved (every move is >= 1 step).
    HintStepsSaved,
    /// `submit` requests served.
    ServeSubmit,
    /// `gate` requests served.
    ServeGate,
    /// `stats` requests served.
    ServeStats,
    /// `shutdown` requests served.
    ServeShutdown,
    /// Submissions answered from the content-addressed cache.
    ServeHits,
    /// Submissions that ran the pool.
    ServeMisses,
    /// Exact-backend cell evaluations (one per DP row solved).
    DpSolves,
    /// DP curve lookups answered by a cross-cell memo.
    DpMemoHits,
    /// DP curve lookups that ran a fresh solve.
    DpMemoMisses,
}

impl Counter {
    /// Number of counters in the catalogue.
    pub const COUNT: usize = 19;

    /// Every counter, in discriminant order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PoolUnits,
        Counter::PoolSteals,
        Counter::PoolPolls,
        Counter::PoolBusyNs,
        Counter::PoolIdleNs,
        Counter::PoolReduces,
        Counter::EngineSteps,
        Counter::HintPolls,
        Counter::HintClamps,
        Counter::HintStepsSaved,
        Counter::ServeSubmit,
        Counter::ServeGate,
        Counter::ServeStats,
        Counter::ServeShutdown,
        Counter::ServeHits,
        Counter::ServeMisses,
        Counter::DpSolves,
        Counter::DpMemoHits,
        Counter::DpMemoMisses,
    ];

    /// Stable snake_case name (the NDJSON field name family).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::PoolUnits => "pool_units",
            Counter::PoolSteals => "pool_steals",
            Counter::PoolPolls => "pool_polls",
            Counter::PoolBusyNs => "pool_busy_ns",
            Counter::PoolIdleNs => "pool_idle_ns",
            Counter::PoolReduces => "pool_reduces",
            Counter::EngineSteps => "engine_steps",
            Counter::HintPolls => "hint_polls",
            Counter::HintClamps => "hint_clamps",
            Counter::HintStepsSaved => "hint_steps_saved",
            Counter::ServeSubmit => "serve_submit",
            Counter::ServeGate => "serve_gate",
            Counter::ServeStats => "serve_stats",
            Counter::ServeShutdown => "serve_shutdown",
            Counter::ServeHits => "serve_hits",
            Counter::ServeMisses => "serve_misses",
            Counter::DpSolves => "dp_solves",
            Counter::DpMemoHits => "dp_memo_hits",
            Counter::DpMemoMisses => "dp_memo_misses",
        }
    }
}

/// The sweep phases a span timer can attribute wall-clock to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Flattening jobs into work units and choosing schedulers.
    Plan,
    /// Wave 1: draining trial/chunk units through the pool.
    Execute,
    /// Wave 2: canonical-order reductions.
    Reduce,
    /// Rendering and writing reports.
    Report,
    /// Exact-backend cell evaluations (dense or sparse DP solves).
    DpSolve,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Plan, Phase::Execute, Phase::Reduce, Phase::Report, Phase::DpSolve];

    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Reduce => "reduce",
            Phase::Report => "report",
            Phase::DpSolve => "dp_solve",
        }
    }
}

/// Which latency histogram a duration lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// Serve submissions answered from cache.
    Hit,
    /// Serve submissions that ran the pool.
    Miss,
}

/// Level (not flow) quantities: set, not accumulated; merged by max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Entries in the serve cache.
    CacheEntries,
    /// Bytes on disk under the serve cache directory.
    CacheBytes,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 2;
}

/// One worker's counter shard, padded to its own cache line so relaxed
/// increments from different workers never cause false sharing. (The
/// workspace forbids `unsafe`, so padding is pure `repr(align)`.)
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
}

impl Shard {
    fn new() -> Shard {
        Shard { counters: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

struct Inner {
    shards: Vec<Shard>,
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_count: [AtomicU64; Phase::COUNT],
    hit_hist: [AtomicU64; HIST_BUCKETS],
    miss_hist: [AtomicU64; HIST_BUCKETS],
    gauges: [AtomicU64; Gauge::COUNT],
    plans: Mutex<PlanLog>,
    epoch: Instant,
}

/// The telemetry handle: `Copy`, thread-safe, and strictly observational.
///
/// See the crate docs for the design constraints. All methods take `self`
/// by value — the handle is two words and freely copyable into worker
/// closures.
#[derive(Clone, Copy)]
pub struct Telemetry {
    inner: &'static Inner,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh handle with all aggregates zero.
    ///
    /// Leaks its state (~10 KB) for the process lifetime — that is what
    /// makes the handle `Copy`. Create one per long-lived context.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Telemetry {
        let inner = Inner {
            shards: (0..MAX_WORKERS).map(|_| Shard::new()).collect(),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_count: std::array::from_fn(|_| AtomicU64::new(0)),
            hit_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            miss_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            plans: Mutex::new(PlanLog::default()),
            epoch: Instant::now(),
        };
        Telemetry { inner: Box::leak(Box::new(inner)) }
    }

    /// Add `n` to `counter` on `worker`'s shard (relaxed; workers at or
    /// past [`MAX_WORKERS`] share the last shard).
    pub fn add(self, worker: usize, counter: Counter, n: u64) {
        let shard = &self.inner.shards[worker.min(MAX_WORKERS - 1)];
        shard.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// [`Telemetry::add`] by one.
    pub fn incr(self, worker: usize, counter: Counter) {
        self.add(worker, counter, 1);
    }

    /// Current total for `counter` across all shards.
    pub fn counter(self, counter: Counter) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.counters[counter as usize].load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// Record `elapsed` wall-clock against `phase`.
    pub fn record_span(self, phase: Phase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.inner.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
        self.inner.phase_count[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one latency observation in the `kind` histogram.
    pub fn record_latency(self, kind: LatencyKind, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        let hist = match kind {
            LatencyKind::Hit => &self.inner.hit_hist,
            LatencyKind::Miss => &self.inner.miss_hist,
        };
        hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Set a gauge to its current level.
    pub fn set_gauge(self, gauge: Gauge, value: u64) {
        self.inner.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Record one scheduling decision (cold path: once per job per sweep).
    /// Repeats of a decision only bump its count.
    pub fn record_plan(self, decision: PlanDecision) {
        self.inner.plans.lock().expect("plan log poisoned").push(decision);
    }

    /// Nanoseconds since this handle was created.
    pub fn uptime_ns(self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Freeze every aggregate into a mergeable, serializable [`Snapshot`].
    ///
    /// Concurrent writers may land increments during the copy; each
    /// counter is individually consistent (relaxed loads), which is all
    /// an observability snapshot promises.
    pub fn snapshot(self) -> Snapshot {
        let mut snap = Snapshot { uptime_ns: self.uptime_ns(), ..Snapshot::default() };
        for counter in Counter::ALL {
            snap.counters[counter as usize] = self.counter(counter);
        }
        // Per-worker pool detail, trailing idle workers trimmed.
        let per = |c: Counter| -> Vec<u64> {
            self.inner
                .shards
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
                .collect()
        };
        let mut units = per(Counter::PoolUnits);
        let mut steals = per(Counter::PoolSteals);
        let mut polls = per(Counter::PoolPolls);
        let mut busy = per(Counter::PoolBusyNs);
        let mut idle = per(Counter::PoolIdleNs);
        let live = (0..MAX_WORKERS)
            .rev()
            .find(|&w| {
                units[w] != 0 || steals[w] != 0 || polls[w] != 0 || busy[w] != 0 || idle[w] != 0
            })
            .map_or(0, |w| w + 1);
        for v in [&mut units, &mut steals, &mut polls, &mut busy, &mut idle] {
            v.truncate(live);
        }
        snap.worker_units = units;
        snap.worker_steals = steals;
        snap.worker_polls = polls;
        snap.worker_busy_ns = busy;
        snap.worker_idle_ns = idle;
        for phase in Phase::ALL {
            snap.phase_ns[phase as usize] =
                self.inner.phase_ns[phase as usize].load(Ordering::Relaxed);
            snap.phase_count[phase as usize] =
                self.inner.phase_count[phase as usize].load(Ordering::Relaxed);
        }
        for b in 0..HIST_BUCKETS {
            snap.hit_latency[b] = self.inner.hit_hist[b].load(Ordering::Relaxed);
            snap.miss_latency[b] = self.inner.miss_hist[b].load(Ordering::Relaxed);
        }
        for g in 0..Gauge::COUNT {
            snap.gauges[g] = self.inner.gauges[g].load(Ordering::Relaxed);
        }
        snap.plans = self.inner.plans.lock().expect("plan log poisoned").clone();
        snap
    }
}

/// A scoped span timer: measures from construction to drop and records
/// against `phase` — if a telemetry handle is attached. With `None` the
/// guard never reads the clock, keeping the disabled path free.
#[must_use = "a span guard records on drop"]
pub struct SpanGuard {
    telemetry: Option<Telemetry>,
    phase: Phase,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Start timing `phase` (a no-op guard when `telemetry` is `None`).
    pub fn new(telemetry: Option<Telemetry>, phase: Phase) -> SpanGuard {
        SpanGuard { telemetry, phase, start: telemetry.map(|_| Instant::now()) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(t), Some(start)) = (self.telemetry, self.start) {
            t.record_span(self.phase, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let t = Telemetry::new();
        t.add(0, Counter::PoolUnits, 3);
        t.add(1, Counter::PoolUnits, 4);
        t.incr(200, Counter::PoolUnits); // clamped to the last shard
        assert_eq!(t.counter(Counter::PoolUnits), 8);
        assert_eq!(t.counter(Counter::PoolSteals), 0);
        let snap = t.snapshot();
        assert_eq!(snap.counter(Counter::PoolUnits), 8);
        // Workers 0, 1, and the clamped 63 are live; trimming keeps 64.
        assert_eq!(snap.worker_units.len(), MAX_WORKERS);
        assert_eq!(snap.worker_units[0], 3);
        assert_eq!(snap.worker_units[MAX_WORKERS - 1], 1);
    }

    #[test]
    fn shards_are_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert!(std::mem::size_of::<Shard>() >= Counter::COUNT * 8);
    }

    #[test]
    fn counters_are_safe_across_threads() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        t.incr(w, Counter::EngineSteps);
                    }
                });
            }
        });
        assert_eq!(t.counter(Counter::EngineSteps), 4_000);
    }

    #[test]
    fn spans_accumulate_per_phase() {
        let t = Telemetry::new();
        t.record_span(Phase::Execute, Duration::from_nanos(500));
        t.record_span(Phase::Execute, Duration::from_nanos(250));
        t.record_span(Phase::Reduce, Duration::from_nanos(10));
        let snap = t.snapshot();
        assert_eq!(snap.phase_total_ns(Phase::Execute), 750);
        assert_eq!(snap.phase_count[Phase::Execute as usize], 2);
        assert_eq!(snap.phase_total_ns(Phase::Reduce), 10);
        assert_eq!(snap.phase_total_ns(Phase::Plan), 0);
    }

    #[test]
    fn span_guard_records_only_when_attached() {
        let t = Telemetry::new();
        {
            let _g = SpanGuard::new(Some(t), Phase::Plan);
        }
        {
            let _g = SpanGuard::new(None, Phase::Plan);
        }
        assert_eq!(t.snapshot().phase_count[Phase::Plan as usize], 1);
    }

    #[test]
    fn latency_lands_in_log2_buckets() {
        let t = Telemetry::new();
        t.record_latency(LatencyKind::Hit, Duration::from_nanos(0)); // bucket 0
        t.record_latency(LatencyKind::Hit, Duration::from_nanos(1024)); // bucket 10
        t.record_latency(LatencyKind::Hit, Duration::from_nanos(1025)); // bucket 10
        t.record_latency(LatencyKind::Miss, Duration::from_secs(40_000)); // clamped
        let snap = t.snapshot();
        assert_eq!(snap.hit_latency[0], 1);
        assert_eq!(snap.hit_latency[10], 2);
        assert_eq!(snap.miss_latency[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn gauges_hold_levels_and_plans_append() {
        let t = Telemetry::new();
        t.set_gauge(Gauge::CacheEntries, 5);
        t.set_gauge(Gauge::CacheEntries, 3);
        t.record_plan(PlanDecision {
            job: 1,
            granularity: "trial".to_string(),
            agents: 2,
            weight: 100,
            sweep_trials: 50,
            threads: 4,
            chunk: 8,
            split_weight: 1 << 12,
            saturation: 4,
        });
        let snap = t.snapshot();
        assert_eq!(snap.gauge(Gauge::CacheEntries), 3);
        assert_eq!(snap.plans.len(), 1);
        assert_eq!(snap.plans.iter().next().unwrap().granularity, "trial");
    }

    #[test]
    fn repeated_plans_are_counted_not_appended() {
        let t = Telemetry::new();
        let decision = |job| PlanDecision {
            job,
            granularity: "agent".to_string(),
            agents: 64,
            weight: 1 << 20,
            sweep_trials: 4,
            threads: 2,
            chunk: 8,
            split_weight: 0,
            saturation: 4,
        };
        for _ in 0..1000 {
            t.record_plan(decision(0));
        }
        t.record_plan(decision(1));
        let snap = t.snapshot();
        assert_eq!(snap.plans.len(), 1001, "len counts repeats");
        let counts: Vec<(u64, u64)> = snap.plans.counts().map(|(d, n)| (d.job, n)).collect();
        assert_eq!(counts, vec![(0, 1000), (1, 1)], "one entry per distinct decision");
        assert_eq!(snap.plans.iter().filter(|d| d.job == 0).count(), 1000);
        let text = snap.to_ndjson();
        let plans_line = text.lines().find(|l| l.contains("\"subsystem\":\"plans\"")).unwrap();
        assert_eq!(plans_line.matches("\"job\"").count(), 2, "{plans_line}");
        assert!(plans_line.contains("\"count\":1000"), "{plans_line}");
        assert_eq!(plans_line.matches("\"count\"").count(), 1, "count only on repeats");
        assert_eq!(Snapshot::parse_ndjson(&text).unwrap(), snap);
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminant order broken at {}", c.as_str());
        }
    }
}
