//! `ants trend` — the JSON-report dashboard tooling.
//!
//! Three modes:
//!
//! * `ants trend <dir-a> <dir-b>` diffs two report directories (e.g. two
//!   commits' dashboards);
//! * `ants trend --record <dir>` snapshots the current report directory
//!   into a content-addressed per-commit subdirectory of `<dir>` — the
//!   first concrete step of wiring trends to version history without a
//!   git dependency (the commit id comes from `--commit`, the
//!   `ANTS_COMMIT` environment variable, or, failing both, a hash of the
//!   report contents themselves);
//! * `ants trend history <dir>` reads every snapshot under `<dir>` and
//!   prints per-cell timelines: one `v0 -> v1 -> ...` line per report
//!   column, oldest snapshot first, so a metric drifting across commits
//!   is visible at a glance instead of pairwise diff by diff.
//!
//! Diff contract:
//!
//! * reports are matched by file name; experiments present only on one
//!   side are flagged (`missing in B` / `new in B`) but do not fail;
//! * schema problems *do* fail: unparseable files, a schema tag other
//!   than `ants-report/v1`, or column sets that disagree exit non-zero —
//!   a dashboard diffing apples to oranges is worse than no dashboard;
//! * row-by-row, cell-by-cell deltas: numeric cells print `a -> b (Δ)`,
//!   text/bool cells print `a -> b`; `wall_ms` is reported separately
//!   and never counts as a data change (it is the only field allowed to
//!   drift between identical runs);
//! * observability never counts either: the diff reads only `columns`
//!   and `rows`, so a `telemetry` block (or any other side-channel key a
//!   report may carry) can differ arbitrarily without flagging a change
//!   — telemetry is strictly observational and must not look like
//!   drift.

use ants_sim::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Outcome of a trend run, for the process exit code.
pub struct TrendOutcome {
    /// Schema mismatches or unreadable/unparseable reports.
    pub failures: usize,
    /// Reports whose data rows differ.
    pub changed: usize,
}

fn json_names(dir: &Path) -> Result<BTreeSet<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .collect())
}

fn load_report(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("unreadable {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some("ants-report/v1") {
        return Err(format!("{}: unexpected schema {schema:?}", path.display()));
    }
    Ok(doc)
}

fn cell_text(cell: &Json) -> String {
    match cell {
        Json::Str(s) => s.clone(),
        Json::Int(n) => n.to_string(),
        Json::Num(x) => format!("{x}"),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".to_string(),
        other => format!("{other:?}"),
    }
}

/// Cell equality with total-order semantics on numbers: two cells are
/// equal iff they would render the same dashboard. The derived
/// `PartialEq` on [`Json`] compares raw `f64`s, which is wrong at both
/// edges: `NaN != NaN` reports an unchanged NaN cell as changed on every
/// diff forever, and `-0.0 == 0.0` hides a genuine sign flip. Comparing
/// numbers via [`f64::total_cmp`] fixes both (and distinguishes NaN
/// payloads only if their bit patterns actually differ, which round-trips
/// through our writer as the same token anyway). Numbers are read
/// through [`Json::as_number`], so the non-finite string sentinels the
/// report writer emits (`"NaN"`, `"Inf"`, `"-Inf"`) compare as the
/// numbers they encode — a NaN cell parsed back from disk is equal to a
/// freshly computed one.
fn cells_equal(a: &Json, b: &Json) -> bool {
    if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
        return x.total_cmp(&y) == std::cmp::Ordering::Equal;
    }
    match (a, b) {
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| cells_equal(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((ka, x), (kb, y))| ka == kb && cells_equal(x, y))
        }
        _ => a == b,
    }
}

/// Diff one matched pair of reports; returns `Ok(changed_cells)` or a
/// schema-mismatch description.
fn diff_pair(name: &str, a: &Json, b: &Json) -> Result<usize, String> {
    let cols_a = a.get("columns").and_then(Json::as_array).ok_or("missing columns in A")?;
    let cols_b = b.get("columns").and_then(Json::as_array).ok_or("missing columns in B")?;
    if cols_a != cols_b {
        return Err(format!("column sets differ ({} vs {} columns)", cols_a.len(), cols_b.len()));
    }
    let empty: &[Json] = &[];
    let rows_a = a.get("rows").and_then(Json::as_array).unwrap_or(empty);
    let rows_b = b.get("rows").and_then(Json::as_array).unwrap_or(empty);
    let mut changed = 0usize;
    if rows_a.len() != rows_b.len() {
        println!("  {name}: row count {} -> {}", rows_a.len(), rows_b.len());
        changed += rows_a.len().abs_diff(rows_b.len());
    }
    for (i, (ra, rb)) in rows_a.iter().zip(rows_b.iter()).enumerate() {
        let (ca, cb) = (ra.as_array().unwrap_or(empty), rb.as_array().unwrap_or(empty));
        for (col, (va, vb)) in ca.iter().zip(cb.iter()).enumerate() {
            if cells_equal(va, vb) {
                continue;
            }
            changed += 1;
            let col_name = cols_a.get(col).and_then(Json::as_str).unwrap_or("?");
            match (va.as_number(), vb.as_number()) {
                (Some(x), Some(y)) => {
                    println!("  {name} row {i} [{col_name}]: {x} -> {y} (Δ {:+})", y - x)
                }
                _ => println!(
                    "  {name} row {i} [{col_name}]: {} -> {}",
                    cell_text(va),
                    cell_text(vb)
                ),
            }
        }
    }
    Ok(changed)
}

/// Resolve the commit id for a snapshot: explicit flag, then the
/// `ANTS_COMMIT` environment variable, then a content hash of the
/// reports themselves (prefixed so the two namespaces cannot collide).
/// Always content-addressable, never a git invocation.
fn snapshot_id(commit: Option<&str>, reports: &[(String, String)]) -> Result<String, String> {
    let explicit = match commit {
        Some(c) => Some(c.to_string()),
        None => std::env::var("ANTS_COMMIT").ok().filter(|c| !c.is_empty()),
    };
    if let Some(c) = explicit {
        // "." and ".." pass a plain character filter but escape (or
        // collapse into) the destination directory — reject dot-only
        // names explicitly.
        if c.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '-' || ch == '_' || ch == '.')
            && !c.is_empty()
            && !c.chars().all(|ch| ch == '.')
        {
            return Ok(c);
        }
        return Err(format!("commit id '{c}' is not a safe directory name (use [A-Za-z0-9._-])"));
    }
    // FNV-1a over (name, contents) pairs in sorted name order: stable
    // across platforms, no dependencies, good enough to address content.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (name, text) in reports {
        fold(name.as_bytes());
        fold(&[0]);
        fold(text.as_bytes());
        fold(&[0]);
    }
    Ok(format!("content-{hash:016x}"))
}

/// `ants trend --record <dest>`: copy every `*.json` report from
/// `reports_dir` into `<dest>/<commit>/`, creating directories as
/// needed. Returns the snapshot directory.
///
/// Recording the same reports twice (same commit id or same content
/// hash) is idempotent: the files are simply rewritten in place.
pub fn record(
    dest_root: &Path,
    reports_dir: &Path,
    commit: Option<&str>,
) -> Result<PathBuf, String> {
    let names = json_names(reports_dir)?;
    if names.is_empty() {
        return Err(format!(
            "no .json reports in {} (run `ants all --smoke --json` first)",
            reports_dir.display()
        ));
    }
    let mut reports: Vec<(String, String)> = Vec::new();
    for name in &names {
        let path = reports_dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("unreadable {}: {e}", path.display()))?;
        reports.push((name.clone(), text));
    }
    let id = snapshot_id(commit, &reports)?;
    let dest = dest_root.join(&id);
    std::fs::create_dir_all(&dest).map_err(|e| format!("cannot create {}: {e}", dest.display()))?;
    for (name, text) in &reports {
        let path = dest.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("recorded {} report(s) at {}", reports.len(), dest.display());
    Ok(dest)
}

/// Look up one cell of a report document by (key-column value, column
/// name): tolerant of column sets that changed between snapshots — a
/// column a snapshot does not have simply yields `None`.
fn lookup_cell<'a>(doc: &'a Json, label: &str, column: &str) -> Option<&'a Json> {
    let cols = doc.get("columns")?.as_array()?;
    let idx = cols.iter().position(|c| c.as_str() == Some(column))?;
    let rows = doc.get("rows")?.as_array()?;
    rows.iter().filter_map(Json::as_array).find_map(|cells| {
        if cell_text(cells.first()?) == label {
            cells.get(idx)
        } else {
            None
        }
    })
}

/// `ants trend history <root>`: per-cell timelines across every
/// snapshot `ants trend --record <root>` wrote.
///
/// Snapshots are ordered oldest-first by directory modification time
/// (name breaks ties), so successive `--record` runs read left to
/// right. Cells are keyed by each report's first column; every other
/// column prints one `v0 -> v1 -> ...` line, with `-` filling the
/// snapshots where the report, cell, or column is absent.
///
/// Returns the number of unreadable/off-schema reports (non-zero is an
/// exit-code failure for the caller); an empty or unreadable `root` is
/// an `Err` — a history of nothing should never "pass".
pub fn history(root: &Path) -> Result<usize, String> {
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
    let mut snaps: Vec<(std::time::SystemTime, String, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .map(|p| {
            let mtime = std::fs::metadata(&p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            let name = p.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            (mtime, name, p)
        })
        .collect();
    if snaps.is_empty() {
        return Err(format!(
            "no snapshot directories in {} (run `ants trend --record` first)",
            root.display()
        ));
    }
    snaps.sort();
    let mut failures = 0usize;
    // (snapshot id, report name -> parsed document), oldest first.
    let mut loaded: Vec<(String, std::collections::BTreeMap<String, Json>)> = Vec::new();
    for (_, id, dir) in &snaps {
        let mut docs = std::collections::BTreeMap::new();
        for name in json_names(dir)? {
            match load_report(&dir.join(&name)) {
                Ok(doc) => {
                    docs.insert(name, doc);
                }
                Err(e) => {
                    eprintln!("FAIL {e}");
                    failures += 1;
                }
            }
        }
        loaded.push((id.clone(), docs));
    }
    let ids: Vec<&str> = loaded.iter().map(|(id, _)| id.as_str()).collect();
    println!("history: {} snapshot(s) under {} (oldest first)", ids.len(), root.display());
    println!("order: {}\n", ids.join(" -> "));
    let reports: BTreeSet<&String> = loaded.iter().flat_map(|(_, docs)| docs.keys()).collect();
    for name in reports {
        println!("{name}:");
        // Schema of record: the newest snapshot that has this report.
        let newest = loaded.iter().rev().find_map(|(_, docs)| docs.get(name.as_str()));
        let columns: Vec<String> = newest
            .and_then(|doc| doc.get("columns"))
            .and_then(Json::as_array)
            .map(|cols| cols.iter().filter_map(Json::as_str).map(str::to_owned).collect())
            .unwrap_or_default();
        // Cell labels in first-appearance order, oldest snapshot first,
        // so rows removed since then still show their partial history.
        let mut labels: Vec<String> = Vec::new();
        for (_, docs) in &loaded {
            let rows = docs
                .get(name.as_str())
                .and_then(|doc| doc.get("rows"))
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            for cells in rows.iter().filter_map(Json::as_array) {
                let label = cells.first().map(cell_text).unwrap_or_default();
                if !labels.contains(&label) {
                    labels.push(label);
                }
            }
        }
        for label in &labels {
            println!("  {} {label}:", columns.first().map_or("cell", String::as_str));
            for column in columns.iter().skip(1) {
                let timeline: Vec<String> = loaded
                    .iter()
                    .map(|(_, docs)| {
                        docs.get(name.as_str())
                            .and_then(|doc| lookup_cell(doc, label, column))
                            .map_or_else(|| "-".to_string(), cell_text)
                    })
                    .collect();
                println!("    {column}: {}", timeline.join(" -> "));
            }
        }
    }
    Ok(failures)
}

/// Run the diff; prints to stdout/stderr and returns the counts the
/// caller turns into an exit code.
pub fn trend(dir_a: &Path, dir_b: &Path) -> TrendOutcome {
    let mut out = TrendOutcome { failures: 0, changed: 0 };
    let (names_a, names_b) = match (json_names(dir_a), json_names(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for r in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {r}");
            }
            out.failures += 1;
            return out;
        }
    };
    if names_a.is_empty() && names_b.is_empty() {
        eprintln!("error: no .json reports in {} or {}", dir_a.display(), dir_b.display());
        out.failures += 1;
        return out;
    }
    let union: BTreeSet<&String> = names_a.union(&names_b).collect();
    let mut identical = 0usize;
    for name in union {
        match (names_a.contains(name.as_str()), names_b.contains(name.as_str())) {
            (true, false) => println!("- {name}: missing in {}", dir_b.display()),
            (false, true) => println!("+ {name}: new in {}", dir_b.display()),
            _ => {
                let (pa, pb) = (dir_a.join(name.as_str()), dir_b.join(name.as_str()));
                let (a, b) = match (load_report(&pa), load_report(&pb)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (a, b) => {
                        for e in [a.err(), b.err()].into_iter().flatten() {
                            eprintln!("FAIL {e}");
                        }
                        out.failures += 1;
                        continue;
                    }
                };
                match diff_pair(name, &a, &b) {
                    Err(e) => {
                        eprintln!("FAIL {name}: schema mismatch: {e}");
                        out.failures += 1;
                    }
                    Ok(0) => {
                        identical += 1;
                        let wall = |doc: &Json| doc.get("wall_ms").and_then(Json::as_f64);
                        if let (Some(wa), Some(wb)) = (wall(&a), wall(&b)) {
                            println!("= {name}: rows identical (wall {wa:.1}ms -> {wb:.1}ms)");
                        } else {
                            println!("= {name}: rows identical");
                        }
                    }
                    Ok(n) => {
                        out.changed += 1;
                        println!("~ {name}: {n} changed cell(s)");
                    }
                }
            }
        }
    }
    println!(
        "trend: {} identical, {} changed, {} failure(s)",
        identical, out.changed, out.failures
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_equal_treats_nan_as_equal_to_itself() {
        assert!(cells_equal(&Json::Num(f64::NAN), &Json::Num(f64::NAN)));
        assert!(!cells_equal(&Json::Num(f64::NAN), &Json::Num(1.0)));
        assert!(!cells_equal(&Json::Num(1.0), &Json::Num(f64::NAN)));
    }

    #[test]
    fn cells_equal_distinguishes_signed_zero() {
        assert!(!cells_equal(&Json::Num(0.0), &Json::Num(-0.0)));
        assert!(cells_equal(&Json::Num(0.0), &Json::Num(0.0)));
        assert!(cells_equal(&Json::Num(-0.0), &Json::Num(-0.0)));
    }

    /// Snapshots parsed back from disk carry the non-finite string
    /// sentinels; they must compare as the numbers they encode, so a
    /// report → JSON → parse → diff round trip over NaN/±Inf/-0.0 is
    /// change-free.
    #[test]
    fn cells_equal_honours_non_finite_sentinels() {
        use ants_sim::json::number;
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let parsed = Json::parse(&number(x)).unwrap();
            assert!(cells_equal(&parsed, &Json::Num(x)), "sentinel for {x:?}");
            assert!(cells_equal(&parsed, &parsed));
        }
        assert!(!cells_equal(&Json::parse(&number(f64::NAN)).unwrap(), &Json::Num(1.0)));
        assert!(!cells_equal(
            &Json::parse(&number(f64::INFINITY)).unwrap(),
            &Json::Num(f64::NEG_INFINITY)
        ));
        // -0.0 still differs from 0.0 after a round trip.
        assert!(!cells_equal(&Json::parse(&number(-0.0)).unwrap(), &Json::Num(0.0)));
        // An ordinary string that merely looks numeric is not a number.
        assert!(!cells_equal(&Json::Str("nan".into()), &Json::Num(f64::NAN)));
    }

    #[test]
    fn cells_equal_recurses_into_containers() {
        let a = Json::Arr(vec![Json::Num(f64::NAN), Json::Str("x".into())]);
        let b = Json::Arr(vec![Json::Num(f64::NAN), Json::Str("x".into())]);
        assert!(cells_equal(&a, &b));
        let c = Json::Obj(vec![("k".into(), Json::Num(f64::NAN))]);
        let d = Json::Obj(vec![("k".into(), Json::Num(f64::NAN))]);
        assert!(cells_equal(&c, &d));
        let e = Json::Obj(vec![("other".into(), Json::Num(f64::NAN))]);
        assert!(!cells_equal(&c, &e));
        assert!(!cells_equal(&a, &Json::Arr(vec![Json::Num(f64::NAN)])));
    }

    fn report(rows: Vec<Vec<Json>>) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("ants-report/v1".into())),
            ("columns".into(), Json::Arr(vec![Json::Str("value".into())])),
            ("rows".into(), Json::Arr(rows.into_iter().map(Json::Arr).collect())),
        ])
    }

    #[test]
    fn diff_pair_ignores_identical_nan_cells() {
        let a = report(vec![vec![Json::Num(f64::NAN)]]);
        let b = report(vec![vec![Json::Num(f64::NAN)]]);
        assert_eq!(diff_pair("t", &a, &b), Ok(0));
    }

    #[test]
    fn diff_pair_reports_zero_sign_flips_and_real_changes() {
        let a = report(vec![vec![Json::Num(0.0)], vec![Json::Num(1.0)]]);
        let b = report(vec![vec![Json::Num(-0.0)], vec![Json::Num(2.0)]]);
        assert_eq!(diff_pair("t", &a, &b), Ok(2));
    }

    /// Telemetry is observational: two reports whose data rows match
    /// but whose `telemetry` blocks differ wildly are *identical* to
    /// the dashboard. Flagging them would turn every profiled run into
    /// fake drift.
    #[test]
    fn diff_pair_ignores_telemetry_blocks() {
        let with_tele = |busy: f64| {
            let Json::Obj(mut fields) = report(vec![vec![Json::Num(3.0)]]) else { unreachable!() };
            fields.push((
                "telemetry".into(),
                Json::Obj(vec![("pool_busy_ns".into(), Json::Num(busy))]),
            ));
            Json::Obj(fields)
        };
        assert_eq!(diff_pair("t", &with_tele(1.0), &with_tele(9e9)), Ok(0));
        // One-sided blocks are equally invisible.
        assert_eq!(diff_pair("t", &with_tele(1.0), &report(vec![vec![Json::Num(3.0)]])), Ok(0));
    }
}
