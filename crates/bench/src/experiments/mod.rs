//! The experiment battery behind the [`Experiment`] trait.
//!
//! One module per experiment (E1–E15); each exposes a unit struct
//! implementing [`Experiment`] plus a module-level [`ExperimentMeta`]
//! constant. The registry [`all`] owns the canonical list — the CLI, the
//! `exp_*` binaries, and the completeness test all read it, so a new
//! module that is not registered fails CI (`tests/registry.rs`).
//!
//! Experiments collect their sweeps as typed
//! [`Records`] inside a [`Report`] (numbers
//! stay `f64`/`u64` until render time) and route scenario grids through
//! [`ants_sim::run_sweep_with`], so one shared thread pool drains the whole
//! grid; see [`crate::runner`] for wall-clock stamping and JSON output.
//!
//! This module also owns the `ants-report/v1` format in both directions:
//! [`Report::to_json`] writes it and [`ReportDoc`] reads it back for
//! `ants validate`, `ants trend` and the regression gate.

pub mod e10_randomwalk;
pub mod e11_b_vs_ell;
pub mod e12_comparator;
pub mod e13_drift;
pub mod e14_iteration_len;
pub mod e15_mixing;
pub mod e1_nonuniform;
pub mod e2_iteration;
pub mod e3_coin;
pub mod e4_walk;
pub mod e5_square;
pub mod e6_chi;
pub mod e7_uniform;
pub mod e8_lowerbound;
pub mod e9_tradeoff;

use ants_sim::json::Json;
use ants_sim::report::{Records, Table, Value};
use ants_sim::{Granularity, MetricSet, SweepOptions};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

/// How hard an experiment should try.
///
/// `Smoke` keeps CI fast (seconds per experiment); `Standard` is the
/// publication scale used by the `exp_*` binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Tiny instance sizes: validates wiring, not statistics.
    Smoke,
    /// The scale used for the recorded results.
    Standard,
}

impl Effort {
    /// Pick between the smoke and standard value of a parameter.
    pub fn pick<T: Copy>(self, smoke: T, standard: T) -> T {
        match self {
            Effort::Smoke => smoke,
            Effort::Standard => standard,
        }
    }

    /// Stable lowercase name (used by `--effort` and the JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Effort::Smoke => "smoke",
            Effort::Standard => "standard",
        }
    }

    /// Parse an `--effort` argument.
    pub fn parse(s: &str) -> Option<Effort> {
        match s {
            "smoke" => Some(Effort::Smoke),
            "standard" => Some(Effort::Standard),
            _ => None,
        }
    }
}

/// An experiment's identity and its claim.
pub struct ExperimentMeta {
    /// Registry key, e.g. `"e1"` (what `ants run <key>` accepts).
    pub key: &'static str,
    /// Display id, e.g. `"E1 (Theorem 3.5)"`.
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
}

impl fmt::Display for ExperimentMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.id)?;
        writeln!(f, "claim: {}", self.claim)
    }
}

/// The shape of an experiment's sweep at a given effort, before running
/// it — how many scenario cells and how many Monte-Carlo trials each.
///
/// `ants list` prints this as a workload preview; the registry test uses
/// it as a sanity check (every experiment must plan at least one cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of sweep cells (parameter combinations measured).
    pub cells: usize,
    /// Monte-Carlo repetitions per cell (1 for closed-form/derived rows).
    pub trials_per_cell: u64,
}

/// Everything a [`Experiment::run`] call needs: effort, base seed, thread
/// policy, and the sweep's unit-of-work policy.
///
/// The base seed (default 0) is XOR-mixed into every per-cell seed via
/// [`RunConfig::seed`], so `--seed N` shifts the whole battery while the
/// default reproduces the recorded tables. `threads`, `granularity`, and
/// `chunk` are handed to [`ants_sim::run_sweep_with`] via
/// [`RunConfig::sweep_options`]: they change scheduling (wall-clock
/// time), never results.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Smoke or standard scale.
    pub effort: Effort,
    /// Base seed, XOR-mixed into each cell's seed tag.
    pub base_seed: u64,
    /// Thread policy for scenario sweeps (`None` = all cores).
    pub threads: Option<usize>,
    /// Sweep unit-of-work policy (`--granularity auto|trial|agent`).
    pub granularity: Granularity,
    /// Agents per chunk for agent-level scheduling (`--chunk N`).
    pub chunk: Option<usize>,
    /// Extra observation metrics (`--metrics coverage,first_visit,…`).
    ///
    /// Experiments that support the observation layer (today: every
    /// [`crate::WorkloadExperiment`]) union these with their own metric
    /// set and append the corresponding report columns; the built-in
    /// E1–E15 harnesses have fixed column sets and ignore it.
    pub metrics: MetricSet,
    /// Backend override (`--backend mc|dp`): force every workload cell
    /// onto the Monte Carlo pool or the exact DP engine regardless of
    /// the spec's per-cell `backend` keys. `None` = respect the spec.
    /// Only [`crate::WorkloadExperiment`] honours it; the built-in
    /// harnesses are Monte Carlo by construction.
    pub backend: Option<ants_dp::Backend>,
    /// DP representation override (`--dp-mode dense|sparse|auto`): force
    /// every exact-backend cell onto dense tables, the sparse frontier,
    /// or the per-cell size heuristic, regardless of the spec's
    /// `dp_mode` keys. `None` = respect the spec. Sparse and dense agree
    /// to ≤ 1e-9 wherever both run, so this changes cost, not claims.
    pub dp_mode: Option<ants_dp::DpMode>,
    /// Telemetry sink (`--telemetry <path>`): attached to every sweep
    /// this config induces. Strictly observational — results are
    /// byte-identical with or without it (`tests/telemetry.rs`).
    pub telemetry: Option<ants_obs::Telemetry>,
}

impl RunConfig {
    /// A config at the given effort with default seed and thread policy.
    pub fn new(effort: Effort) -> Self {
        Self {
            effort,
            base_seed: 0,
            threads: None,
            granularity: Granularity::Auto,
            chunk: None,
            metrics: MetricSet::empty(),
            backend: None,
            dp_mode: None,
            telemetry: None,
        }
    }

    /// Shorthand for `RunConfig::new(Effort::Smoke)`.
    pub fn smoke() -> Self {
        Self::new(Effort::Smoke)
    }

    /// Shorthand for `RunConfig::new(Effort::Standard)`.
    pub fn standard() -> Self {
        Self::new(Effort::Standard)
    }

    /// Set the base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Set the thread policy (`None` = all cores).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Set the sweep granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Set the agents-per-chunk override for agent-level scheduling.
    pub fn with_chunk(mut self, chunk: Option<usize>) -> Self {
        self.chunk = chunk;
        self
    }

    /// Set the extra observation metrics.
    pub fn with_metrics(mut self, metrics: MetricSet) -> Self {
        self.metrics = metrics;
        self
    }

    /// Set the backend override (`None` = respect per-cell spec keys).
    pub fn with_backend(mut self, backend: Option<ants_dp::Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Set the DP representation override (`None` = respect per-cell
    /// `dp_mode` keys).
    pub fn with_dp_mode(mut self, dp_mode: Option<ants_dp::DpMode>) -> Self {
        self.dp_mode = dp_mode;
        self
    }

    /// Attach a telemetry sink to every sweep this config induces.
    pub fn with_telemetry(mut self, telemetry: Option<ants_obs::Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The [`SweepOptions`] this config induces — what experiments hand
    /// to [`ants_sim::run_sweep_with`] / [`ants_sim::map_indexed`].
    pub fn sweep_options(&self) -> SweepOptions {
        let mut opts = SweepOptions::with_threads(self.threads).granularity(self.granularity);
        if let Some(chunk) = self.chunk {
            opts = opts.chunk(chunk);
        }
        if let Some(telemetry) = self.telemetry {
            opts = opts.with_telemetry(telemetry);
        }
        opts
    }

    /// Derive a concrete seed from a per-cell tag.
    pub fn seed(&self, tag: u64) -> u64 {
        self.base_seed ^ tag
    }
}

/// A runnable experiment: identity, sweep shape, and the measurement
/// itself.
///
/// Implementations are stateless unit structs; all parameters flow in
/// through the [`RunConfig`]. Register new experiments in [`all`] — the
/// registry completeness test fails otherwise.
pub trait Experiment {
    /// Identity and claim.
    fn meta(&self) -> &ExperimentMeta;

    /// The sweep shape at a given effort (cells × trials), for workload
    /// previews.
    fn config(&self, effort: Effort) -> SweepConfig;

    /// Run the sweep and return the typed report.
    ///
    /// Implementations fill rows and params; the caller (usually
    /// [`crate::runner::Runner`]) stamps the wall-clock time.
    fn run(&self, cfg: &RunConfig) -> Report;
}

/// A finished experiment run: identity, run parameters, typed records,
/// wall-clock time.
///
/// Renders as fixed-width text ([`fmt::Display`]), CSV
/// ([`Report::to_csv`]), and machine-readable JSON ([`Report::to_json`],
/// stable field order).
pub struct Report {
    key: &'static str,
    id: &'static str,
    claim: &'static str,
    effort: Effort,
    seed: u64,
    threads: Option<usize>,
    params: Vec<(String, Value)>,
    records: Records,
    wall_ms: f64,
}

impl Report {
    /// Start a report for `meta` under `cfg` with the given columns.
    pub fn new(meta: &ExperimentMeta, cfg: &RunConfig, columns: Vec<&str>) -> Self {
        Self {
            key: meta.key,
            id: meta.id,
            claim: meta.claim,
            effort: cfg.effort,
            seed: cfg.base_seed,
            threads: cfg.threads,
            params: Vec::new(),
            records: Records::new(columns),
            wall_ms: f64::NAN,
        }
    }

    /// Record a named run parameter (instance sizes, trial counts …).
    pub fn param(&mut self, name: &str, value: impl Into<Value>) -> &mut Self {
        self.params.push((name.to_string(), value.into()));
        self
    }

    /// Append a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, cells: Vec<Value>) -> &mut Self {
        self.records.row(cells);
        self
    }

    /// Registry key, e.g. `"e1"`.
    pub fn key(&self) -> &str {
        self.key
    }

    /// Display id, e.g. `"E1 (Theorem 3.5)"`.
    pub fn id(&self) -> &str {
        self.id
    }

    /// The typed records.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Are there no data rows?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Numeric cell lookup by row index and column name (panics on
    /// missing/non-numeric cells — test convenience).
    pub fn num(&self, row: usize, column: &str) -> f64 {
        self.records.num(row, column)
    }

    /// Cell lookup by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> &Value {
        self.records.cell(row, column)
    }

    /// True when no cell anywhere in the report is `Bool(false)` — the
    /// standard shape of "every per-row lemma check passed".
    pub fn all_checks_pass(&self) -> bool {
        self.records.rows().iter().flatten().all(|v| v != &Value::Bool(false))
    }

    /// Wall-clock milliseconds (NaN until stamped by the runner).
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Stamp the wall-clock time (the runner calls this).
    pub fn set_wall_ms(&mut self, wall_ms: f64) {
        self.wall_ms = wall_ms;
    }

    /// Render the data as a fixed-width [`Table`].
    pub fn to_table(&self) -> Table {
        self.records.to_table()
    }

    /// Render the data as CSV.
    pub fn to_csv(&self) -> String {
        self.records.to_csv()
    }

    /// Serialize the whole report as a JSON document.
    ///
    /// Field order is fixed and asserted by tests: `schema`, `id`,
    /// `title`, `claim`, `effort`, `seed`, `threads`, `wall_ms`,
    /// `params`, `columns`, `rows`. [`ReportDoc`] reads it back.
    pub fn to_json(&self) -> String {
        let params = self.params.iter().map(|(k, v)| (k.as_str(), Json::from(v)));
        Json::obj([
            ("schema", SCHEMA.into()),
            ("id", self.key.into()),
            ("title", self.id.into()),
            ("claim", self.claim.into()),
            ("effort", self.effort.as_str().into()),
            ("seed", Json::from(&Value::Int(self.seed))),
            ("threads", self.threads.map_or(Json::Null, |t| Json::Int(t as u64))),
            ("wall_ms", self.wall_ms.into()),
            ("params", Json::obj(params)),
            ("columns", self.records.columns_json()),
            ("rows", self.records.rows_json()),
        ])
        .serialize()
    }
}

impl fmt::Display for Report {
    /// Header (id + claim + run parameters) followed by the fixed-width
    /// table — the format the CLI and the `exp_*` binaries print.
    ///
    /// Deliberately excludes the wall-clock time: the text rendering is
    /// part of the determinism contract (same command → byte-identical
    /// stdout); timing lives in the JSON report only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} [{}] ==", self.id, self.key)?;
        writeln!(f, "claim: {}", self.claim)?;
        write!(f, "effort: {}  seed: {}", self.effort.as_str(), self.seed)?;
        match self.threads {
            Some(t) => writeln!(f, "  threads: {t}")?,
            None => writeln!(f, "  threads: auto")?,
        }
        writeln!(f)?;
        write!(f, "{}", self.to_table())
    }
}

/// The schema tag of every report document: [`Report::to_json`] writes
/// it and [`ReportDoc`] requires it.
const SCHEMA: &str = "ants-report/v1";

/// A row's identity in a report document: its first cell's text plus
/// its ordinal among the rows with that text. First-column labels repeat
/// in real reports (E1 lists each `D` once per strategy), so the text
/// alone does not name a row.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowKey {
    /// The first cell as [`ReportDoc::cell_text`] renders it.
    pub label: String,
    /// 0 for the first row with this label, 1 for the second, and so on.
    pub ordinal: usize,
}

impl fmt::Display for RowKey {
    /// The label, with `#2`, `#3`, … appended to its repeats.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ordinal {
            0 => f.write_str(&self.label),
            n => write!(f, "{}#{}", self.label, n + 1),
        }
    }
}

/// An `ants-report/v1` document read back: the one reader behind
/// `ants validate`, `ants trend` and the regression gate.
///
/// Construction checks the schema tag, that `columns` is an array of
/// strings, and that every row is an array exactly as wide as the
/// columns, so every later lookup is infallible. Rows are addressed by
/// [`RowKey`] and cells compare by [`ReportDoc::cells_equal`]. Fields
/// the reader has no accessor for (a `telemetry` block, say) are kept
/// and never compared.
#[derive(Debug, Clone)]
pub struct ReportDoc {
    /// Every top-level field except `columns` and `rows`.
    fields: Json,
    columns: Vec<String>,
    rows: Vec<(RowKey, Vec<Json>)>,
}

impl ReportDoc {
    /// Parse and check a report document.
    ///
    /// # Errors
    ///
    /// Invalid JSON, or any of the checks [`ReportDoc::from_json`] makes.
    pub fn parse(text: &str) -> Result<ReportDoc, String> {
        ReportDoc::from_json(Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Check a parsed document.
    ///
    /// # Errors
    ///
    /// A schema tag other than `ants-report/v1`, missing or non-string
    /// columns, a missing rows array, or a row that is not an array of
    /// exactly one cell per column.
    pub fn from_json(doc: Json) -> Result<ReportDoc, String> {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("unexpected schema {schema:?}"));
        }
        let Json::Obj(mut fields) = doc else { unreachable!("only objects have fields") };
        let mut take = |key: &str| {
            let at = fields.iter().position(|(k, _)| k == key)?;
            Some(fields.remove(at).1)
        };
        let Some(Json::Arr(columns)) = take("columns") else {
            return Err("report has no columns".to_string());
        };
        let columns = columns
            .into_iter()
            .map(|c| match c {
                Json::Str(name) => Ok(name),
                other => Err(format!("column name {} is not a string", other.serialize())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let Some(Json::Arr(raw_rows)) = take("rows") else {
            return Err("report has no rows array".to_string());
        };
        let mut rows: Vec<(RowKey, Vec<Json>)> = Vec::with_capacity(raw_rows.len());
        let mut seen: HashMap<String, usize> = HashMap::new();
        for (i, row) in raw_rows.into_iter().enumerate() {
            let cells = match row {
                Json::Arr(cells) if cells.len() == columns.len() => cells,
                Json::Arr(cells) => {
                    return Err(format!(
                        "row {i} has {} cells for {} columns",
                        cells.len(),
                        columns.len()
                    ))
                }
                _ => return Err(format!("row {i} is not an array")),
            };
            let label = cells.first().map(ReportDoc::cell_text).unwrap_or_default();
            let next = seen.entry(label.clone()).or_default();
            let ordinal = *next;
            *next += 1;
            rows.push((RowKey { label, ordinal }, cells));
        }
        Ok(ReportDoc { fields: Json::Obj(fields), columns, rows })
    }

    /// Read and check the report at `path`; errors name the file.
    ///
    /// # Errors
    ///
    /// An unreadable file, or what [`ReportDoc::parse`] rejects.
    pub fn load(path: &Path) -> Result<ReportDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
        ReportDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The names of the `*.json` files in `dir`, sorted.
    ///
    /// # Errors
    ///
    /// `dir` cannot be read.
    pub fn list(dir: &Path) -> Result<BTreeSet<String>, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        Ok(entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect())
    }

    /// The report's registry key or workload name (`id`), if present.
    pub fn id(&self) -> Option<&str> {
        self.fields.get("id").and_then(Json::as_str)
    }

    /// The run parameters object, if present.
    pub fn params(&self) -> Option<&Json> {
        self.fields.get("params")
    }

    /// The stamped wall-clock milliseconds: `None` when the field is
    /// absent or still the unstamped NaN.
    pub fn wall_ms(&self) -> Option<f64> {
        self.fields.get("wall_ms").and_then(Json::as_number).filter(|w| !w.is_nan())
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows in document order, each with its key; every row has
    /// exactly one cell per column.
    pub fn rows(&self) -> &[(RowKey, Vec<Json>)] {
        &self.rows
    }

    /// The row with `key`, if the document has one.
    pub fn row(&self, key: &RowKey) -> Option<&[Json]> {
        self.rows.iter().find(|(k, _)| k == key).map(|(_, cells)| cells.as_slice())
    }

    /// The cell of row `key` in the column named `column`, if both exist.
    pub fn cell(&self, key: &RowKey, column: &str) -> Option<&Json> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.row(key).map(|cells| &cells[col])
    }

    /// A cell as dashboard text: strings bare, everything else as its
    /// JSON token.
    pub fn cell_text(cell: &Json) -> String {
        match cell {
            Json::Str(s) => s.clone(),
            other => other.serialize(),
        }
    }

    /// Cell equality with total-order semantics on numbers: two cells are
    /// equal iff they would render the same dashboard. The derived
    /// `PartialEq` on [`Json`] compares raw `f64`s, which is wrong at both
    /// edges: `NaN != NaN` reports an unchanged NaN cell as changed on
    /// every diff forever, and `-0.0 == 0.0` hides a genuine sign flip.
    /// Comparing numbers via [`f64::total_cmp`] fixes both. Numbers are
    /// read through [`Json::as_number`], so the non-finite string
    /// sentinels the writer emits (`"NaN"`, `"Inf"`, `"-Inf"`) compare as
    /// the numbers they encode: a NaN cell parsed back from disk equals a
    /// freshly computed one. Arrays and objects compare element-wise
    /// under the same rule.
    pub fn cells_equal(a: &Json, b: &Json) -> bool {
        if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
            return x.total_cmp(&y).is_eq();
        }
        match (a, b) {
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| Self::cells_equal(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, x), (kb, y))| ka == kb && Self::cells_equal(x, y))
            }
            _ => a == b,
        }
    }
}

/// The experiment registry, in battery order.
///
/// This is the single source of truth: the CLI, `ants all`, and the
/// completeness test all iterate it.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e1_nonuniform::E1Nonuniform),
        Box::new(e2_iteration::E2Iteration),
        Box::new(e3_coin::E3Coin),
        Box::new(e4_walk::E4Walk),
        Box::new(e5_square::E5Square),
        Box::new(e6_chi::E6Chi),
        Box::new(e7_uniform::E7Uniform),
        Box::new(e8_lowerbound::E8LowerBound),
        Box::new(e9_tradeoff::E9Tradeoff),
        Box::new(e10_randomwalk::E10RandomWalk),
        Box::new(e11_b_vs_ell::E11BVsEll),
        Box::new(e12_comparator::E12Comparator),
        Box::new(e13_drift::E13Drift),
        Box::new(e14_iteration_len::E14IterationLen),
        Box::new(e15_mixing::E15Mixing),
    ]
}

/// Look up an experiment by registry key (`"e1"` … `"e15"`).
pub fn find(key: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.meta().key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity strings with quotes, a backslash, control characters and
    /// a non-BMP character, so every escape path of the writer runs.
    const META: ExperimentMeta = ExperimentMeta {
        key: "pin\"key",
        id: "P\t\"title\" \u{1}\u{1f41c}",
        claim: "claim\\ with\nnewline\r\u{7f}",
    };

    /// A report holding every edge the writer handles: non-finite and
    /// negative-zero floats, integers on both sides of 2^53, a seed of
    /// `u64::MAX`, awkward strings in params, columns and cells.
    fn edge_report(threads: Option<usize>) -> Report {
        let cfg = RunConfig::smoke().with_seed(u64::MAX).with_threads(threads);
        let mut r = Report::new(&META, &cfg, vec!["cell \"c\"", "x", "n", "ok"]);
        r.param("q\"uote\u{8}", "v\u{1f41c}\n\u{1f}")
            .param("edge", 1u64 << 53)
            .param("past", (1u64 << 53) + 1)
            .param("nan", f64::NAN);
        r.row(vec!["nan".into(), f64::NAN.into(), (1u64 << 53).into(), true.into()]);
        r.row(vec!["inf".into(), f64::INFINITY.into(), ((1u64 << 53) + 1).into(), false.into()]);
        r.row(vec!["-inf\u{0}".into(), f64::NEG_INFINITY.into(), 0u64.into(), true.into()]);
        r.row(vec!["-0 \u{1f41c}".into(), (-0.0).into(), u64::MAX.into(), true.into()]);
        r
    }

    /// The full bytes of `Report::to_json` are pinned: field order,
    /// escapes, the NaN/Inf sentinels, `-0`, quoted integers above 2^53,
    /// `threads` as `null` or a number, and `wall_ms` before and after
    /// the runner stamps it.
    #[test]
    fn report_json_bytes_are_pinned() {
        const HEAD: &str = r#"{"schema":"ants-report/v1","id":"pin\"key","title":"P\t\"title\" \u0001🐜","claim":"claim\\ with\nnewline\r"#;
        const TAIL: &str = r#""params":{"q\"uote\u0008":"v🐜\n\u001f","edge":9007199254740992,"past":"9007199254740993","nan":"NaN"},"columns":["cell \"c\"","x","n","ok"],"rows":[["nan","NaN",9007199254740992,true],["inf","Inf","9007199254740993",false],["-inf\u0000","-Inf",0,true],["-0 🐜",-0,"18446744073709551615",true]]}"#;
        let bytes = |threads: &str, wall: &str| {
            format!(
                "{HEAD}\u{7f}\",\"effort\":\"smoke\",\"seed\":\"18446744073709551615\",\
                 \"threads\":{threads},\"wall_ms\":{wall},{TAIL}"
            )
        };
        let mut auto = edge_report(None);
        assert_eq!(auto.to_json(), bytes("null", "\"NaN\""));
        auto.set_wall_ms(12.5);
        assert_eq!(auto.to_json(), bytes("null", "12.5"));
        let mut pinned = edge_report(Some(3));
        pinned.set_wall_ms(0.0);
        assert_eq!(pinned.to_json(), bytes("3", "0"));
    }
}
