//! The frozen form of a [`Telemetry`](crate::Telemetry) handle: plain
//! data, mergeable, and round-trippable through the schema-versioned
//! NDJSON snapshot format.
//!
//! One snapshot serializes to [`SNAPSHOT_SCHEMA`]-stamped NDJSON — one
//! line per subsystem (`pool`, `engine`, `phases`, `serve`, `dp`,
//! `plans`) — so
//! a `--telemetry <path>` file can be grepped per layer and a consumer
//! can parse any single line without reading the rest. [`Snapshot::merge`]
//! is a commutative, associative fold (counters add with saturation,
//! gauges take the max, plan logs union as multisets), which is what lets
//! shards, runs, and processes aggregate in any order.

use crate::json::Json;
use crate::{Counter, Gauge, Phase, HIST_BUCKETS};
use std::collections::BTreeMap;

/// Schema tag stamped on every NDJSON snapshot line.
///
/// The tag stayed at `v1` when the `plans` line gained `"count"`: a
/// current reader reads files written before counts (each listed
/// decision counts once), but a reader built before counts ignores the
/// field and undercounts repeated decisions in a current file.
pub const SNAPSHOT_SCHEMA: &str = "ants-telemetry/v1";

/// One scheduling decision, recorded when a sweep plans a job: the
/// granularity chosen plus every input the heuristic weighed, so a
/// profile can answer *why* a job split (or did not) without re-deriving
/// the policy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanDecision {
    /// Job index within the sweep.
    pub job: u64,
    /// Chosen granularity: `trial` or `agent`.
    pub granularity: String,
    /// Agents in the job's scenario.
    pub agents: u64,
    /// The per-trial work proxy (agents × budget or agents × rounds),
    /// recorded for profiles; the heuristic does not read it.
    pub weight: u64,
    /// Total trial units in the whole sweep (the pool is shared).
    pub sweep_trials: u64,
    /// Resolved worker count.
    pub threads: u64,
    /// Agents per chunk the plan would use.
    pub chunk: u64,
    /// A per-trial weight floor for splitting. Always 0 now (no floor);
    /// kept so the `ants-telemetry/v1` `plans` line is unchanged.
    pub split_weight: u64,
    /// The pool-saturation threshold the heuristic compared against.
    pub saturation: u64,
}

impl PlanDecision {
    /// The decision's wire object; `"count"` appears only for repeats.
    fn to_json(&self, count: u64) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("job", self.job.into()),
            ("granularity", self.granularity.as_str().into()),
            ("agents", self.agents.into()),
            ("weight", self.weight.into()),
            ("sweep_trials", self.sweep_trials.into()),
            ("threads", self.threads.into()),
            ("chunk", self.chunk.into()),
            ("split_weight", self.split_weight.into()),
            ("saturation", self.saturation.into()),
        ];
        if count > 1 {
            fields.push(("count", count.into()));
        }
        Json::obj(fields)
    }

    /// Parse one wire object into the decision and its count (a missing
    /// count reads as 1).
    fn from_json(v: &Json) -> Result<(PlanDecision, u64), String> {
        let field = |k: &str| {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("plan decision missing '{k}'"))
        };
        let count = match v.get("count") {
            None => 1,
            Some(c) => match c.as_u64() {
                Some(0) => return Err("plan decision 'count' is 0".into()),
                Some(n) => n,
                None => return Err("plan decision 'count' is not an integer".into()),
            },
        };
        let decision = PlanDecision {
            job: field("job")?,
            granularity: v
                .get("granularity")
                .and_then(Json::as_str)
                .ok_or("plan decision missing 'granularity'")?
                .to_string(),
            agents: field("agents")?,
            weight: field("weight")?,
            sweep_trials: field("sweep_trials")?,
            threads: field("threads")?,
            chunk: field("chunk")?,
            split_weight: field("split_weight")?,
            saturation: field("saturation")?,
        };
        Ok((decision, count))
    }
}

/// The plan-decision log as a counted multiset: each distinct decision
/// once, with how many times it was recorded. A daemon re-plans the same
/// jobs on every submission, so the log's size follows the distinct
/// decisions, not the uptime.
///
/// [`PlanLog::len`], [`PlanLog::is_empty`] and [`PlanLog::iter`] count
/// repeats, so consumers see the multiset they would see in a flat list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanLog(BTreeMap<PlanDecision, u64>);

impl PlanLog {
    /// Record `decision` once.
    pub fn push(&mut self, decision: PlanDecision) {
        self.add(decision, 1);
    }

    /// Record `decision` `count` times (saturating).
    pub fn add(&mut self, decision: PlanDecision, count: u64) {
        if count > 0 {
            let n = self.0.entry(decision).or_insert(0);
            *n = n.saturating_add(count);
        }
    }

    /// Recorded decisions, repeats counted.
    pub fn len(&self) -> usize {
        self.0.values().fold(0usize, |n, &c| n.saturating_add(c as usize))
    }

    /// No decision recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every recorded decision in sorted order, each repeated as often as
    /// it was recorded.
    pub fn iter(&self) -> impl Iterator<Item = &PlanDecision> {
        self.0.iter().flat_map(|(d, &n)| std::iter::repeat_n(d, n as usize))
    }

    /// Each distinct decision once, in sorted order, with its count.
    pub fn counts(&self) -> impl Iterator<Item = (&PlanDecision, u64)> {
        self.0.iter().map(|(d, &n)| (d, n))
    }

    /// The multiset union: counts add (saturating).
    #[must_use]
    pub fn merge(&self, other: &PlanLog) -> PlanLog {
        let mut out = self.clone();
        for (d, n) in other.counts() {
            out.add(d.clone(), n);
        }
        out
    }
}

/// A point-in-time copy of every telemetry aggregate: totals per counter,
/// per-worker pool detail, per-phase span sums, latency histograms,
/// gauges, and the plan-decision log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Nanoseconds since the telemetry handle was created.
    pub uptime_ns: u64,
    /// Totals, indexed by [`Counter`] discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Per-worker units executed (trailing idle workers trimmed).
    pub worker_units: Vec<u64>,
    /// Per-worker units stolen off their home worker.
    pub worker_steals: Vec<u64>,
    /// Per-worker cursor polls.
    pub worker_polls: Vec<u64>,
    /// Per-worker nanoseconds spent executing units.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker nanoseconds spent claiming work or waiting to exit.
    pub worker_idle_ns: Vec<u64>,
    /// Total nanoseconds per [`Phase`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Spans recorded per [`Phase`].
    pub phase_count: [u64; Phase::COUNT],
    /// Cache-hit latency, log2 nanosecond buckets.
    pub hit_latency: [u64; HIST_BUCKETS],
    /// Cache-miss latency, log2 nanosecond buckets.
    pub miss_latency: [u64; HIST_BUCKETS],
    /// Last-set gauge values, indexed by [`Gauge`] discriminant.
    pub gauges: [u64; Gauge::COUNT],
    /// Every recorded scheduling decision, as a counted multiset.
    pub plans: PlanLog,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            uptime_ns: 0,
            counters: [0; Counter::COUNT],
            worker_units: Vec::new(),
            worker_steals: Vec::new(),
            worker_polls: Vec::new(),
            worker_busy_ns: Vec::new(),
            worker_idle_ns: Vec::new(),
            phase_ns: [0; Phase::COUNT],
            phase_count: [0; Phase::COUNT],
            hit_latency: [0; HIST_BUCKETS],
            miss_latency: [0; HIST_BUCKETS],
            gauges: [0; Gauge::COUNT],
            plans: PlanLog::default(),
        }
    }
}

/// Saturating elementwise sum of two per-worker vectors (result as long
/// as the longer input).
fn merge_vec(a: &[u64], b: &[u64]) -> Vec<u64> {
    (0..a.len().max(b.len()))
        .map(|i| a.get(i).copied().unwrap_or(0).saturating_add(b.get(i).copied().unwrap_or(0)))
        .collect()
}

impl Snapshot {
    /// One counter total by name-safe index.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One gauge value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Total nanoseconds recorded for `phase`.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Combine two snapshots: counters, spans, per-worker vectors, and
    /// histograms add (saturating); gauges and uptime take the max (they
    /// are levels, not flows); plan logs union as multisets (counts add).
    ///
    /// The operation is commutative and associative (pinned by the obs
    /// proptest battery), so aggregation order never matters.
    #[must_use]
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut out =
            Snapshot { uptime_ns: self.uptime_ns.max(other.uptime_ns), ..Snapshot::default() };
        for i in 0..Counter::COUNT {
            out.counters[i] = self.counters[i].saturating_add(other.counters[i]);
        }
        out.worker_units = merge_vec(&self.worker_units, &other.worker_units);
        out.worker_steals = merge_vec(&self.worker_steals, &other.worker_steals);
        out.worker_polls = merge_vec(&self.worker_polls, &other.worker_polls);
        out.worker_busy_ns = merge_vec(&self.worker_busy_ns, &other.worker_busy_ns);
        out.worker_idle_ns = merge_vec(&self.worker_idle_ns, &other.worker_idle_ns);
        for i in 0..Phase::COUNT {
            out.phase_ns[i] = self.phase_ns[i].saturating_add(other.phase_ns[i]);
            out.phase_count[i] = self.phase_count[i].saturating_add(other.phase_count[i]);
        }
        for i in 0..HIST_BUCKETS {
            out.hit_latency[i] = self.hit_latency[i].saturating_add(other.hit_latency[i]);
            out.miss_latency[i] = self.miss_latency[i].saturating_add(other.miss_latency[i]);
        }
        for i in 0..Gauge::COUNT {
            out.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
        out.plans = self.plans.merge(&other.plans);
        out
    }

    /// Every subsystem's fields, in wire order: the body of one NDJSON
    /// line each, and of one nested object each in [`Snapshot::to_json`].
    fn subsystems(&self) -> [(&'static str, Vec<(String, Json)>); 6] {
        let c = |counter: Counter| Json::from(self.counter(counter));
        let fields = |pairs: Vec<(&str, Json)>| -> Vec<(String, Json)> {
            pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
        };
        let pool = fields(vec![
            ("units", c(Counter::PoolUnits)),
            ("steals", c(Counter::PoolSteals)),
            ("polls", c(Counter::PoolPolls)),
            ("busy_ns", c(Counter::PoolBusyNs)),
            ("idle_ns", c(Counter::PoolIdleNs)),
            ("reduces", c(Counter::PoolReduces)),
            ("worker_units", self.worker_units.as_slice().into()),
            ("worker_steals", self.worker_steals.as_slice().into()),
            ("worker_polls", self.worker_polls.as_slice().into()),
            ("worker_busy_ns", self.worker_busy_ns.as_slice().into()),
            ("worker_idle_ns", self.worker_idle_ns.as_slice().into()),
        ]);
        let engine = fields(vec![
            ("steps", c(Counter::EngineSteps)),
            ("hint_polls", c(Counter::HintPolls)),
            ("hint_clamps", c(Counter::HintClamps)),
            ("hint_steps_saved", c(Counter::HintStepsSaved)),
        ]);
        let phases = Phase::ALL
            .iter()
            .flat_map(|&p| {
                [
                    (format!("{}_ns", p.as_str()), self.phase_ns[p as usize].into()),
                    (format!("{}_spans", p.as_str()), self.phase_count[p as usize].into()),
                ]
            })
            .collect();
        let serve = fields(vec![
            ("uptime_ns", self.uptime_ns.into()),
            ("submit", c(Counter::ServeSubmit)),
            ("gate", c(Counter::ServeGate)),
            ("stats", c(Counter::ServeStats)),
            ("shutdown", c(Counter::ServeShutdown)),
            ("hits", c(Counter::ServeHits)),
            ("misses", c(Counter::ServeMisses)),
            ("cache_entries", self.gauge(Gauge::CacheEntries).into()),
            ("cache_bytes", self.gauge(Gauge::CacheBytes).into()),
            ("hit_latency_ns", self.hit_latency.as_slice().into()),
            ("miss_latency_ns", self.miss_latency.as_slice().into()),
        ]);
        let dp = fields(vec![
            ("solves", c(Counter::DpSolves)),
            ("memo_hits", c(Counter::DpMemoHits)),
            ("memo_misses", c(Counter::DpMemoMisses)),
        ]);
        let decisions = Json::Arr(self.plans.counts().map(|(d, n)| d.to_json(n)).collect());
        let plans = fields(vec![("decisions", decisions)]);
        [
            ("pool", pool),
            ("engine", engine),
            ("phases", phases),
            ("serve", serve),
            ("dp", dp),
            ("plans", plans),
        ]
    }

    /// The NDJSON snapshot: one schema-stamped line per subsystem
    /// (`pool`, `engine`, `phases`, `serve`, `dp`, `plans`), each a
    /// complete JSON object, newline-terminated.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (subsystem, body) in self.subsystems() {
            let head = [("schema", SNAPSHOT_SCHEMA), ("subsystem", subsystem)];
            let line = head.into_iter().map(|(k, v)| (k.to_string(), Json::from(v))).chain(body);
            out.push_str(&Json::Obj(line.collect()).serialize());
            out.push('\n');
        }
        out
    }

    /// The snapshot as one JSON tree (the `telemetry` block of the serve
    /// `stats` event): the schema, then each subsystem's fields nested
    /// under its name.
    pub fn to_json(&self) -> Json {
        let subsystems = self.subsystems().map(|(name, body)| (name, Json::Obj(body)));
        Json::obj([("schema", Json::from(SNAPSHOT_SCHEMA))].into_iter().chain(subsystems))
    }

    /// [`Snapshot::to_json`] serialized on one line.
    pub fn to_inline_json(&self) -> String {
        self.to_json().serialize()
    }

    /// Parse an NDJSON snapshot written by [`Snapshot::to_ndjson`].
    ///
    /// Unknown subsystems are ignored (forward compatibility); missing
    /// subsystem lines leave their fields zero.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a line whose `schema` is not [`SNAPSHOT_SCHEMA`],
    /// or a subsystem line missing one of its fields.
    pub fn parse_ndjson(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        let mut lines = 0usize;
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema != SNAPSHOT_SCHEMA {
                return Err(format!(
                    "line {}: schema '{schema}' is not '{SNAPSHOT_SCHEMA}'",
                    idx + 1
                ));
            }
            lines += 1;
            let subsystem = doc.get("subsystem").and_then(Json::as_str).unwrap_or("");
            match subsystem {
                "pool" => snap.parse_pool(&doc)?,
                "engine" => snap.parse_engine(&doc)?,
                "phases" => snap.parse_phases(&doc),
                "serve" => snap.parse_serve(&doc)?,
                "dp" => snap.parse_dp(&doc),
                "plans" => snap.parse_plans(&doc)?,
                _ => {}
            }
        }
        if lines == 0 {
            return Err("empty snapshot".to_string());
        }
        Ok(snap)
    }

    fn parse_pool(&mut self, doc: &Json) -> Result<(), String> {
        self.counters[Counter::PoolUnits as usize] = req_u64(doc, "pool", "units")?;
        self.counters[Counter::PoolSteals as usize] = req_u64(doc, "pool", "steals")?;
        self.counters[Counter::PoolPolls as usize] = req_u64(doc, "pool", "polls")?;
        self.counters[Counter::PoolBusyNs as usize] = req_u64(doc, "pool", "busy_ns")?;
        self.counters[Counter::PoolIdleNs as usize] = req_u64(doc, "pool", "idle_ns")?;
        self.counters[Counter::PoolReduces as usize] = req_u64(doc, "pool", "reduces")?;
        self.worker_units = req_vec(doc, "pool", "worker_units")?;
        self.worker_steals = req_vec(doc, "pool", "worker_steals")?;
        self.worker_polls = req_vec(doc, "pool", "worker_polls")?;
        self.worker_busy_ns = req_vec(doc, "pool", "worker_busy_ns")?;
        self.worker_idle_ns = req_vec(doc, "pool", "worker_idle_ns")?;
        Ok(())
    }

    fn parse_engine(&mut self, doc: &Json) -> Result<(), String> {
        self.counters[Counter::EngineSteps as usize] = req_u64(doc, "engine", "steps")?;
        self.counters[Counter::HintPolls as usize] = req_u64(doc, "engine", "hint_polls")?;
        self.counters[Counter::HintClamps as usize] = req_u64(doc, "engine", "hint_clamps")?;
        self.counters[Counter::HintStepsSaved as usize] =
            req_u64(doc, "engine", "hint_steps_saved")?;
        Ok(())
    }

    fn parse_phases(&mut self, doc: &Json) {
        // Lenient on purpose: a snapshot written before a phase existed
        // simply has no field for it, and parses as zero. (The `dp_solve`
        // fields are absent from pre-dp files.)
        for phase in Phase::ALL {
            self.phase_ns[phase as usize] = opt_u64(doc, &format!("{}_ns", phase.as_str()));
            self.phase_count[phase as usize] = opt_u64(doc, &format!("{}_spans", phase.as_str()));
        }
    }

    fn parse_serve(&mut self, doc: &Json) -> Result<(), String> {
        self.uptime_ns = req_u64(doc, "serve", "uptime_ns")?;
        self.counters[Counter::ServeSubmit as usize] = req_u64(doc, "serve", "submit")?;
        self.counters[Counter::ServeGate as usize] = req_u64(doc, "serve", "gate")?;
        self.counters[Counter::ServeStats as usize] = req_u64(doc, "serve", "stats")?;
        self.counters[Counter::ServeShutdown as usize] = req_u64(doc, "serve", "shutdown")?;
        self.counters[Counter::ServeHits as usize] = req_u64(doc, "serve", "hits")?;
        self.counters[Counter::ServeMisses as usize] = req_u64(doc, "serve", "misses")?;
        self.gauges[Gauge::CacheEntries as usize] = req_u64(doc, "serve", "cache_entries")?;
        self.gauges[Gauge::CacheBytes as usize] = req_u64(doc, "serve", "cache_bytes")?;
        self.hit_latency = req_hist(doc, "serve", "hit_latency_ns")?;
        self.miss_latency = req_hist(doc, "serve", "miss_latency_ns")?;
        Ok(())
    }

    fn parse_dp(&mut self, doc: &Json) {
        // Lenient like `parse_phases`: the whole line is absent from
        // pre-dp snapshots, and fields default to zero.
        self.counters[Counter::DpSolves as usize] = opt_u64(doc, "solves");
        self.counters[Counter::DpMemoHits as usize] = opt_u64(doc, "memo_hits");
        self.counters[Counter::DpMemoMisses as usize] = opt_u64(doc, "memo_misses");
    }

    fn parse_plans(&mut self, doc: &Json) -> Result<(), String> {
        let items = doc
            .get("decisions")
            .and_then(Json::as_array)
            .ok_or("plans line missing 'decisions'")?;
        self.plans = PlanLog::default();
        for item in items {
            let (decision, count) = PlanDecision::from_json(item)?;
            self.plans.add(decision, count);
        }
        Ok(())
    }
}

fn opt_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn req_u64(doc: &Json, subsystem: &str, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{subsystem} line missing integer '{key}'"))
}

fn req_vec(doc: &Json, subsystem: &str, key: &str) -> Result<Vec<u64>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{subsystem} line missing array '{key}'"))?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("{subsystem} '{key}' has a non-integer")))
        .collect()
}

fn req_hist(doc: &Json, subsystem: &str, key: &str) -> Result<[u64; HIST_BUCKETS], String> {
    let values = req_vec(doc, subsystem, key)?;
    if values.len() > HIST_BUCKETS {
        return Err(format!(
            "{subsystem} '{key}' has {} buckets (max {HIST_BUCKETS})",
            values.len()
        ));
    }
    let mut out = [0u64; HIST_BUCKETS];
    out[..values.len()].copy_from_slice(&values);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot { uptime_ns: 12_345, ..Snapshot::default() };
        s.counters[Counter::PoolUnits as usize] = 28;
        s.counters[Counter::PoolSteals as usize] = 19;
        s.counters[Counter::HintStepsSaved as usize] = 7_000;
        s.counters[Counter::ServeHits as usize] = 3;
        s.worker_units = vec![9, 8, 6, 5];
        s.worker_steals = vec![0, 8, 6, 5];
        s.worker_polls = vec![10, 9, 7, 6];
        s.worker_busy_ns = vec![100, 90, 70, 60];
        s.worker_idle_ns = vec![1, 2, 3, 4];
        s.phase_ns[Phase::Execute as usize] = 500;
        s.phase_count[Phase::Execute as usize] = 1;
        s.hit_latency[12] = 3;
        s.gauges[Gauge::CacheEntries as usize] = 2;
        s.plans.push(PlanDecision {
            job: 0,
            granularity: "agent".to_string(),
            agents: 64,
            weight: 1 << 20,
            sweep_trials: 4,
            threads: 4,
            chunk: 8,
            split_weight: 1 << 12,
            saturation: 4,
        });
        s
    }

    #[test]
    fn ndjson_round_trips() {
        let s = sample();
        let text = s.to_ndjson();
        assert_eq!(text.lines().count(), 6, "one line per subsystem:\n{text}");
        for line in text.lines() {
            assert!(line.contains(SNAPSHOT_SCHEMA), "unstamped line: {line}");
        }
        assert_eq!(Snapshot::parse_ndjson(&text).unwrap(), s);
    }

    #[test]
    fn inline_json_is_one_parseable_line() {
        let s = sample();
        let line = s.to_inline_json();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("pool").and_then(|p| p.get("steals")).and_then(Json::as_u64), Some(19));
        assert_eq!(
            doc.get("engine").and_then(|e| e.get("hint_steps_saved")).and_then(Json::as_u64),
            Some(7_000)
        );
    }

    #[test]
    fn merge_adds_counters_and_unions_plans() {
        let s = sample();
        let m = s.merge(&s);
        assert_eq!(m.counter(Counter::PoolUnits), 56);
        assert_eq!(m.worker_units, vec![18, 16, 12, 10]);
        assert_eq!(m.gauge(Gauge::CacheEntries), 2, "gauges max, not add");
        assert_eq!(m.uptime_ns, 12_345);
        assert_eq!(m.plans.len(), 2);
        assert_eq!(m.phase_total_ns(Phase::Execute), 1_000);
    }

    #[test]
    fn pre_dp_snapshots_still_parse() {
        // A file written before the `dp` subsystem existed: no dp line,
        // and a phases line without the `dp_solve` fields. It must parse,
        // with every dp-era aggregate zero.
        let mut s = sample();
        s.counters[Counter::DpSolves as usize] = 4;
        s.counters[Counter::DpMemoHits as usize] = 9;
        s.phase_ns[Phase::DpSolve as usize] = 77;
        s.phase_count[Phase::DpSolve as usize] = 2;
        let old: String = s
            .to_ndjson()
            .lines()
            .filter(|l| !l.contains("\"subsystem\":\"dp\""))
            .map(|l| {
                let l = l.replace(",\"dp_solve_ns\":77,\"dp_solve_spans\":2", "");
                format!("{l}\n")
            })
            .collect();
        assert!(!old.contains("dp_solve"), "{old}");
        let parsed = Snapshot::parse_ndjson(&old).unwrap();
        assert_eq!(parsed.counter(Counter::DpSolves), 0);
        assert_eq!(parsed.counter(Counter::DpMemoHits), 0);
        assert_eq!(parsed.phase_total_ns(Phase::DpSolve), 0);
        assert_eq!(parsed.phase_count[Phase::DpSolve as usize], 0);
        assert_eq!(parsed.counter(Counter::PoolUnits), 28, "pre-dp fields still load");
    }

    #[test]
    fn dp_line_round_trips_counters() {
        let mut s = sample();
        s.counters[Counter::DpSolves as usize] = 11;
        s.counters[Counter::DpMemoHits as usize] = 5;
        s.counters[Counter::DpMemoMisses as usize] = 6;
        let parsed = Snapshot::parse_ndjson(&s.to_ndjson()).unwrap();
        assert_eq!(parsed, s);
        let doc = Json::parse(&s.to_inline_json()).unwrap();
        assert_eq!(doc.get("dp").and_then(|d| d.get("memo_hits")).and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn plan_counts_round_trip_and_old_flat_logs_still_parse() {
        let mut s = sample();
        let first = s.plans.iter().next().unwrap().clone();
        s.plans.add(first.clone(), 2);
        let text = s.to_ndjson();
        assert!(text.contains(r#""saturation":4,"count":3}"#), "{text}");
        assert_eq!(Snapshot::parse_ndjson(&text).unwrap(), s);
        // A file written before plan counts: the repeats are listed one
        // by one, without a count. Each reads as 1 and they add up.
        let flat = PINNED_NDJSON.replace(
            r#""saturation":4}]}"#,
            r#""saturation":4},{"job":0,"granularity":"agent","agents":64,"weight":1048576,"sweep_trials":4,"threads":4,"chunk":8,"split_weight":4096,"saturation":4}]}"#,
        );
        let parsed = Snapshot::parse_ndjson(&flat).unwrap();
        assert_eq!(parsed.plans.counts().map(|(_, n)| n).collect::<Vec<_>>(), vec![2]);
        assert_eq!(parsed.plans.len(), 2);
        let bad = PINNED_NDJSON.replace(r#""saturation":4}"#, r#""saturation":4,"count":"x"}"#);
        assert!(Snapshot::parse_ndjson(&bad).is_err());
        // The writer never emits a count below 2; a zero would silently
        // drop the decision, so it is rejected.
        let zero = PINNED_NDJSON.replace(r#""saturation":4}"#, r#""saturation":4,"count":0}"#);
        let e = Snapshot::parse_ndjson(&zero).unwrap_err();
        assert!(e.contains("'count' is 0"), "{e}");
    }

    #[test]
    fn parse_rejects_wrong_schema_and_empty_input() {
        let e =
            Snapshot::parse_ndjson("{\"schema\":\"other/v9\",\"subsystem\":\"pool\"}").unwrap_err();
        assert!(e.contains("ants-telemetry/v1"), "{e}");
        assert!(Snapshot::parse_ndjson("").is_err());
        assert!(Snapshot::parse_ndjson("not json").is_err());
    }

    /// The snapshot bytes as the hand-written writer printed them; the
    /// tree-built writer must reproduce them exactly.
    const PINNED_NDJSON: &str = concat!(
        r#"{"schema":"ants-telemetry/v1","subsystem":"pool","units":28,"steals":19,"#,
        r#""polls":0,"busy_ns":0,"idle_ns":0,"reduces":0,"worker_units":[9,8,6,5],"#,
        r#""worker_steals":[0,8,6,5],"worker_polls":[10,9,7,6],"worker_busy_ns":[100,90,"#,
        r#"70,60],"worker_idle_ns":[1,2,3,4]}"#,
        "\n",
        r#"{"schema":"ants-telemetry/v1","subsystem":"engine","steps":0,"hint_polls":0,"#,
        r#""hint_clamps":0,"hint_steps_saved":7000}"#,
        "\n",
        r#"{"schema":"ants-telemetry/v1","subsystem":"phases","plan_ns":0,"plan_spans":0,"#,
        r#""execute_ns":500,"execute_spans":1,"reduce_ns":0,"reduce_spans":0,"#,
        r#""report_ns":0,"report_spans":0,"dp_solve_ns":0,"dp_solve_spans":0}"#,
        "\n",
        r#"{"schema":"ants-telemetry/v1","subsystem":"serve","uptime_ns":12345,"submit":0,"#,
        r#""gate":0,"stats":0,"shutdown":0,"hits":3,"misses":0,"cache_entries":2,"#,
        r#""cache_bytes":0,"hit_latency_ns":[0,0,0,0,0,0,0,0,0,0,0,0,3,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"miss_latency_ns":[0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#,
        "\n",
        r#"{"schema":"ants-telemetry/v1","subsystem":"dp","solves":0,"memo_hits":0,"#,
        r#""memo_misses":0}"#,
        "\n",
        r#"{"schema":"ants-telemetry/v1","subsystem":"plans","decisions":[{"job":0,"#,
        r#""granularity":"agent","agents":64,"weight":1048576,"sweep_trials":4,"#,
        r#""threads":4,"chunk":8,"split_weight":4096,"saturation":4}]}"#,
        "\n",
    );

    const PINNED_INLINE: &str = concat!(
        r#"{"schema":"ants-telemetry/v1","pool":{"units":28,"steals":19,"polls":0,"#,
        r#""busy_ns":0,"idle_ns":0,"reduces":0,"worker_units":[9,8,6,5],"#,
        r#""worker_steals":[0,8,6,5],"worker_polls":[10,9,7,6],"worker_busy_ns":[100,90,"#,
        r#"70,60],"worker_idle_ns":[1,2,3,4]},"engine":{"steps":0,"hint_polls":0,"#,
        r#""hint_clamps":0,"hint_steps_saved":7000},"phases":{"plan_ns":0,"plan_spans":0,"#,
        r#""execute_ns":500,"execute_spans":1,"reduce_ns":0,"reduce_spans":0,"#,
        r#""report_ns":0,"report_spans":0,"dp_solve_ns":0,"dp_solve_spans":0},"#,
        r#""serve":{"uptime_ns":12345,"submit":0,"gate":0,"stats":0,"shutdown":0,"hits":3,"#,
        r#""misses":0,"cache_entries":2,"cache_bytes":0,"hit_latency_ns":[0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
        r#""miss_latency_ns":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,0,0,0,0,0,0]},"dp":{"solves":0,"memo_hits":0,"memo_misses":0},"#,
        r#""plans":{"decisions":[{"job":0,"granularity":"agent","agents":64,"#,
        r#""weight":1048576,"sweep_trials":4,"threads":4,"chunk":8,"split_weight":4096,"#,
        r#""saturation":4}]}}"#,
    );

    #[test]
    fn snapshot_bytes_are_pinned() {
        assert_eq!(sample().to_ndjson(), PINNED_NDJSON);
        assert_eq!(sample().to_inline_json(), PINNED_INLINE);
    }
}
