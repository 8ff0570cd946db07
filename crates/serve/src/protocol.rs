//! The wire format: NDJSON over a local TCP socket.
//!
//! One request per connection. The client sends a single JSON object on
//! one line; the server answers with a stream of single-line JSON
//! events and closes the connection. Events:
//!
//! * `status` — always first on `submit`/`gate`: the cache key and
//!   whether the entry was served from cache. Deliberately *not* part of
//!   the cached body, so a hit's body bytes equal the original miss's.
//! * `cell` — one per workload cell, in plan order, emitted the moment
//!   the row exists (misses stream incrementally; hits replay the stored
//!   lines verbatim).
//! * `report` — the full `ants-report/v1` document, last body line.
//! * `gate` — `gate` requests only, after the body: baseline key,
//!   violations, pass/fail.
//! * `stats` / `ok` / `error` — operational responses.
//!
//! Every line is built here, as a [`Json`] tree printed by
//! [`Json::serialize`] (the workspace's one JSON module, `ants_obs::json`,
//! re-exported as `ants_sim::json`); the server only writes the lines.
//! Integers such as seeds and counters ride as exact `u64`s, and
//! non-finite floats ride as the `"NaN"`/`"Inf"`/`"-Inf"` string
//! sentinels. A `cell` event's cells are the report's own cell values
//! (`From<&Value> for Json`), so their bytes match the report document's;
//! the `report` event splices the stored document verbatim.

use ants_bench::{Effort, GateThresholds, GateViolation};
use ants_dp::{Backend, DpMode};
use ants_obs::Snapshot;
use ants_sim::json::Json;
use ants_sim::MetricSet;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run (or replay) a workload spec.
    Submit,
    /// Run (or replay) a spec, then compare it against the newest other
    /// cache entry for the same workload and report drift.
    Gate,
    /// Hit/miss/pool-work counters.
    Stats,
    /// Stop the daemon after this response.
    Shutdown,
}

impl Op {
    /// Stable lowercase name (the `op` field on the wire).
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::Gate => "gate",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parse an `op` field.
    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "submit" => Some(Op::Submit),
            "gate" => Some(Op::Gate),
            "stats" => Some(Op::Stats),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// One request line.
///
/// `spec` is the workload TOML text (required for `submit`/`gate`,
/// ignored otherwise); the remaining fields mirror the CLI's shared
/// run-flag surface. Scheduling knobs (threads, granularity, chunk) are
/// daemon-side options, not request fields: the engine's determinism
/// contract makes them output-invariant, so they must not fragment the
/// cache.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// Workload spec text (TOML subset).
    pub spec: String,
    /// Smoke or standard effort.
    pub effort: Effort,
    /// Base seed, XOR-mixed into each cell's seed tag.
    pub seed: u64,
    /// Extra observation metrics beyond the spec's own.
    pub metrics: MetricSet,
    /// Backend override (`None` = respect per-cell spec keys).
    pub backend: Option<Backend>,
    /// DP representation override (`None` = respect per-cell spec keys).
    pub dp_mode: Option<DpMode>,
    /// Gate thresholds (`None` = [`GateThresholds::default`]).
    pub thresholds: Option<GateThresholds>,
}

impl Request {
    /// A `submit` request for `spec` at default effort/seed.
    pub fn submit(spec: &str) -> Request {
        Request {
            op: Op::Submit,
            spec: spec.to_string(),
            effort: Effort::Standard,
            seed: 0,
            metrics: MetricSet::empty(),
            backend: None,
            dp_mode: None,
            thresholds: None,
        }
    }

    /// A bare request with no spec (`stats`, `shutdown`).
    pub fn bare(op: Op) -> Request {
        Request { op, ..Request::submit("") }
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("op", self.op.as_str().into()),
            ("spec", self.spec.as_str().into()),
            ("effort", self.effort.as_str().into()),
            ("seed", self.seed.into()),
        ];
        if !self.metrics.is_empty() {
            let names: Vec<&str> = self.metrics.iter().map(|m| m.as_str()).collect();
            fields.push(("metrics", names.join(",").into()));
        }
        if let Some(b) = self.backend {
            fields.push(("backend", b.as_str().into()));
        }
        if let Some(m) = self.dp_mode {
            fields.push(("dp_mode", m.as_str().into()));
        }
        if let Some(t) = self.thresholds {
            fields.push(("metric_rel_tol", t.metric_rel_tol.into()));
            fields.push(("wall_factor", t.wall_factor.into()));
            fields.push(("wall_floor_ms", t.wall_floor_ms.into()));
        }
        Json::obj(fields).serialize()
    }

    /// Parse one wire line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `op`, unknown effort/backend/metric
    /// names, or a missing spec on an op that needs one — all as a
    /// message the server echoes back in an `error` event.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request has no \"op\" field".to_string())?;
        let op = Op::parse(op_name).ok_or_else(|| {
            format!("unknown op '{op_name}' (allowed: submit, gate, stats, shutdown)")
        })?;
        let spec = doc.get("spec").and_then(Json::as_str).unwrap_or("").to_string();
        if matches!(op, Op::Submit | Op::Gate) && spec.is_empty() {
            return Err(format!("op '{op_name}' needs a non-empty \"spec\" field"));
        }
        let effort = match doc.get("effort").and_then(Json::as_str) {
            Some(e) => Effort::parse(e).ok_or_else(|| format!("unknown effort '{e}'"))?,
            None => Effort::Standard,
        };
        let seed = match doc.get("seed") {
            Some(v) => v.as_u64().ok_or_else(|| {
                format!("\"seed\" must be a non-negative integer, got {}", v.serialize())
            })?,
            None => 0,
        };
        let metrics = match doc.get("metrics").and_then(Json::as_str) {
            Some(list) if !list.is_empty() => MetricSet::parse_list(list)?,
            _ => MetricSet::empty(),
        };
        let backend = match doc.get("backend").and_then(Json::as_str) {
            Some(b) => {
                Some(Backend::parse(b).ok_or_else(|| format!("unknown backend '{b}' (mc|dp)"))?)
            }
            None => None,
        };
        let dp_mode = match doc.get("dp_mode").and_then(Json::as_str) {
            Some(m) => Some(
                DpMode::parse(m)
                    .ok_or_else(|| format!("unknown dp_mode '{m}' (dense|sparse|auto)"))?,
            ),
            None => None,
        };
        let threshold = |key: &str| doc.get(key).and_then(|v| v.as_number());
        let thresholds = match (
            threshold("metric_rel_tol"),
            threshold("wall_factor"),
            threshold("wall_floor_ms"),
        ) {
            (None, None, None) => None,
            (tol, factor, floor) => {
                let d = GateThresholds::default();
                Some(GateThresholds {
                    metric_rel_tol: tol.unwrap_or(d.metric_rel_tol),
                    wall_factor: factor.unwrap_or(d.wall_factor),
                    wall_floor_ms: floor.unwrap_or(d.wall_floor_ms),
                })
            }
        };
        Ok(Request { op, spec, effort, seed, metrics, backend, dp_mode, thresholds })
    }
}

/// The `event` field of a response line (`None` if absent/malformed).
pub fn event_of(line: &str) -> Option<String> {
    Json::parse(line).ok()?.get("event")?.as_str().map(str::to_owned)
}

/// Build an `error` event line.
pub fn error_event(message: &str) -> String {
    Json::obj([("event", "error".into()), ("message", message.into())]).serialize()
}

/// Build the `status` event line that precedes every `submit`/`gate`
/// body.
pub fn status_event(key: &str, cached: bool) -> String {
    Json::obj([("event", "status".into()), ("key", key.into()), ("cached", cached.into())])
        .serialize()
}

/// Build one `cell` event line from a streamed row. The cells convert
/// exactly as the report document's do, so values match the final
/// report token for token (NaN sentinels included).
pub fn cell_event(index: usize, label: &str, row: &[ants_sim::report::Value]) -> String {
    Json::obj([
        ("event", "cell".into()),
        ("index", (index as u64).into()),
        ("label", label.into()),
        ("cells", Json::Arr(row.iter().map(Json::from).collect())),
    ])
    .serialize()
}

/// Build the `ok` event line (the `shutdown` acknowledgement).
pub fn ok_event(message: &str) -> String {
    Json::obj([("event", "ok".into()), ("message", message.into())]).serialize()
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

/// Build the `stats` event line: the counters first (CI's serve-smoke
/// parses `pool_work` off this line), then the daemon's telemetry
/// snapshot as a nested object.
pub fn stats_event(s: &Stats, telemetry: &Snapshot) -> String {
    Json::obj([
        ("event", "stats".into()),
        ("requests", s.requests.into()),
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("pool_work", s.pool_work.into()),
        ("entries", s.entries.into()),
        ("telemetry", telemetry.to_json()),
    ])
    .serialize()
}

/// Build the `gate` event line. `compared` is `None` when the workload
/// has no baseline entry yet (the gate passes, with a note); otherwise
/// the baseline's cache key and either the violation list or the reason
/// the two reports could not be compared, which fails the gate loudly
/// rather than passing it vacuously.
pub fn gate_event(compared: Option<(&str, Result<&[GateViolation], &str>)>) -> String {
    let (baseline, pass, violations, note) = match compared {
        None => (Json::Null, true, &[][..], Some("no baseline entry for this workload yet")),
        Some((key, Ok(violations))) => (key.into(), violations.is_empty(), violations, None),
        Some((key, Err(e))) => (key.into(), false, &[][..], Some(e)),
    };
    let violations = violations.iter().map(|v| {
        Json::obj([
            ("cell", v.cell.as_str().into()),
            ("column", v.column.as_str().into()),
            ("baseline", v.baseline.as_str().into()),
            ("current", v.current.as_str().into()),
            ("detail", v.detail.as_str().into()),
        ])
    });
    let mut fields = vec![
        ("event", "gate".into()),
        ("baseline", baseline),
        ("pass", pass.into()),
        ("violations", Json::Arr(violations.collect())),
    ];
    if let Some(note) = note {
        fields.push(("note", note.into()));
    }
    Json::obj(fields).serialize()
}

/// Build the `report` event line, the last line of a response body.
///
/// The one place outside the JSON module that assembles JSON by hand:
/// it splices the report document's stored bytes verbatim, so a cache
/// hit replays them without parsing the report again, and the line is
/// byte-for-byte the document [`ants_bench::Report::to_json`] wrote.
pub fn report_event(report_json: &str) -> String {
    format!("{{\"event\":\"report\",\"report\":{report_json}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let mut req = Request::submit("name = \"x\"\n# spec\n");
        req.effort = Effort::Smoke;
        req.seed = 7;
        req.metrics = MetricSet::parse_list("coverage,chi").unwrap();
        req.backend = Some(Backend::Dp);
        req.dp_mode = Some(DpMode::Sparse);
        req.thresholds = Some(GateThresholds { metric_rel_tol: 0.1, ..Default::default() });
        let line = req.to_json();
        assert!(!line.contains('\n'), "wire lines must be single lines: {line}");
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.op, Op::Submit);
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.effort, Effort::Smoke);
        assert_eq!(back.seed, 7);
        assert_eq!(back.backend, Some(Backend::Dp));
        assert_eq!(back.dp_mode, Some(DpMode::Sparse));
        let names: Vec<&str> = back.metrics.iter().map(|m| m.as_str()).collect();
        assert_eq!(names, ["coverage", "chi"]);
        assert_eq!(back.thresholds.unwrap().metric_rel_tol, 0.1);
        // Seeds past 2^53 ride as exact integers, not rounded doubles.
        for seed in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            req.seed = seed;
            assert_eq!(Request::parse(&req.to_json()).unwrap().seed, seed);
        }
    }

    #[test]
    fn bare_ops_need_no_spec_but_submit_does() {
        let line = Request::bare(Op::Stats).to_json();
        assert_eq!(Request::parse(&line).unwrap().op, Op::Stats);
        let line = Request::bare(Op::Shutdown).to_json();
        assert_eq!(Request::parse(&line).unwrap().op, Op::Shutdown);
        let e = Request::parse("{\"op\":\"submit\"}").unwrap_err();
        assert!(e.contains("spec"), "{e}");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"op\":\"launch\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"effort\":\"extreme\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":-1}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":1.5}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"backend\":\"gpu\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"dp_mode\":\"frontier\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"metrics\":\"bogus\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn event_lines_parse_and_identify() {
        let line = status_event("abc-s0-standard-local", false);
        assert_eq!(event_of(&line).as_deref(), Some("status"));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        let row =
            vec![ants_sim::report::Value::Text("c".into()), ants_sim::report::Value::Num(f64::NAN)];
        let line = cell_event(3, "c", &row);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("index").and_then(Json::as_f64), Some(3.0));
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert!(cells[1].as_number().unwrap().is_nan(), "NaN survives the wire");
        assert_eq!(event_of(&error_event("boom \"quoted\"")).as_deref(), Some("error"));
        assert_eq!(event_of("not json"), None);
    }

    fn pinned_snapshot() -> Snapshot {
        let mut snap = Snapshot { uptime_ns: 9_876_543_210, ..Snapshot::default() };
        snap.counters[ants_obs::Counter::ServeHits as usize] = 5;
        snap.counters[ants_obs::Counter::EngineSteps as usize] = u64::MAX;
        snap.worker_units = vec![3, 1];
        snap.hit_latency[7] = 2;
        snap.plans.push(ants_obs::PlanDecision {
            job: 1,
            granularity: "trial".to_string(),
            agents: 4,
            weight: 4_096,
            sweep_trials: 12,
            threads: 2,
            chunk: 4,
            split_weight: 1 << 12,
            saturation: 4,
        });
        snap
    }

    fn pinned_request() -> Request {
        let mut req = Request::submit("name = \"pin\"\n\t# caf\u{e9} \u{1f41c}\u{1}\n");
        req.op = Op::Gate;
        req.effort = Effort::Smoke;
        req.seed = u64::MAX;
        req.metrics = MetricSet::parse_list("coverage,chi").unwrap();
        req.backend = Some(Backend::Mc);
        req.dp_mode = Some(DpMode::Auto);
        req.thresholds =
            Some(GateThresholds { metric_rel_tol: 0.125, wall_factor: 3.0, wall_floor_ms: -0.0 });
        req
    }

    /// Every wire-line builder's bytes as the hand-written `format!`
    /// builders printed them; the tree-built writers must match exactly.
    const PINNED_LINES: [&str; 10] = [
        r#"{"event":"status","key":"abc-s0-standard-local","cached":true}"#,
        r#"{"event":"error","message":"boom \"quoted\"\nnext"}"#,
        r#"{"event":"ok","message":"shutting down"}"#,
        concat!(
            r#"{"event":"stats","requests":7,"hits":3,"misses":2,"#,
            r#""pool_work":1152921504606846976,"entries":2,"#,
            r#""telemetry":{"schema":"ants-telemetry/v1","pool":{"units":0,"steals":0,"#,
            r#""polls":0,"busy_ns":0,"idle_ns":0,"reduces":0,"worker_units":[3,1],"#,
            r#""worker_steals":[],"worker_polls":[],"worker_busy_ns":[],"worker_idle_ns":[]},"#,
            r#""engine":{"steps":18446744073709551615,"hint_polls":0,"hint_clamps":0,"#,
            r#""hint_steps_saved":0},"phases":{"plan_ns":0,"plan_spans":0,"execute_ns":0,"#,
            r#""execute_spans":0,"reduce_ns":0,"reduce_spans":0,"report_ns":0,"#,
            r#""report_spans":0,"dp_solve_ns":0,"dp_solve_spans":0},"#,
            r#""serve":{"uptime_ns":9876543210,"submit":0,"gate":0,"stats":0,"shutdown":0,"#,
            r#""hits":5,"misses":0,"cache_entries":0,"cache_bytes":0,"hit_latency_ns":[0,0,0,"#,
            r#"0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
            r#""miss_latency_ns":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
            r#"0,0,0,0,0,0,0,0,0,0]},"dp":{"solves":0,"memo_hits":0,"memo_misses":0},"#,
            r#""plans":{"decisions":[{"job":1,"granularity":"trial","agents":4,"weight":4096,"#,
            r#""sweep_trials":12,"threads":2,"chunk":4,"split_weight":4096,"#,
            r#""saturation":4}]}}}"#,
        ),
        concat!(
            r#"{"event":"gate","baseline":null,"pass":true,"violations":[],"#,
            r#""note":"no baseline entry for this workload yet"}"#,
        ),
        concat!(
            r#"{"event":"gate","baseline":"k-s1-smoke-local","pass":false,"#,
            r#""violations":[{"cell":"c \"1\"","column":"mean","baseline":"1.5","#,
            r#""current":"NaN","detail":"drift\tbeyond 5%"}]}"#,
        ),
        concat!(
            r#"{"event":"gate","baseline":"k-s1-smoke-local","pass":false,"violations":[],"#,
            r#""note":"column sets differ (2 vs 3 columns)"}"#,
        ),
        r#"{"event":"cell","index":4,"label":"c\"x","cells":["c\"x","NaN",2.5]}"#,
        concat!(
            r#"{"op":"gate","spec":"name = \"pin\"\n\t# café 🐜\u0001\n","effort":"smoke","#,
            r#""seed":18446744073709551615,"metrics":"coverage,chi","backend":"mc","#,
            r#""dp_mode":"auto","metric_rel_tol":0.125,"wall_factor":3,"wall_floor_ms":-0}"#,
        ),
        r#"{"op":"stats","spec":"","effort":"standard","seed":0}"#,
    ];

    #[test]
    fn event_bytes_are_pinned() {
        let stats = Stats { requests: 7, hits: 3, misses: 2, pool_work: 1 << 60, entries: 2 };
        let violation = GateViolation {
            cell: "c \"1\"".to_string(),
            column: "mean".to_string(),
            baseline: "1.5".to_string(),
            current: "NaN".to_string(),
            detail: "drift\tbeyond 5%".to_string(),
        };
        let row = vec![
            ants_sim::report::Value::Text("c\"x".into()),
            ants_sim::report::Value::Num(f64::NAN),
            ants_sim::report::Value::Num(2.5),
        ];
        let lines = [
            status_event("abc-s0-standard-local", true),
            error_event("boom \"quoted\"\nnext"),
            ok_event("shutting down"),
            stats_event(&stats, &pinned_snapshot()),
            gate_event(None),
            gate_event(Some(("k-s1-smoke-local", Ok(std::slice::from_ref(&violation))))),
            gate_event(Some(("k-s1-smoke-local", Err("column sets differ (2 vs 3 columns)")))),
            cell_event(4, "c\"x", &row),
            pinned_request().to_json(),
            Request::bare(Op::Stats).to_json(),
        ];
        for (line, pinned) in lines.iter().zip(PINNED_LINES) {
            assert_eq!(line, pinned);
        }
    }
}
