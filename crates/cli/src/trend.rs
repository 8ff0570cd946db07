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
//! Every report is read through [`ReportDoc`], the one `ants-report/v1`
//! reader (shared with `ants validate` and the regression gate). It
//! checks the schema tag, the column list and every row's width, and it
//! owns the cell-equality rule: numbers compare by total order, so an
//! unchanged NaN is equal to itself and `-0` differs from `0`.
//!
//! Row-key rule: a row is identified by its first cell's text plus its
//! ordinal among the rows with that text ([`RowKey`], printed `16`,
//! `16#2`, ...). Diffs and timelines both match rows by that key, so a
//! row inserted at the top does not shift every later row, and repeated
//! labels (E1 lists each `D` once per strategy) stay distinct rows.
//!
//! Diff contract:
//!
//! * reports are matched by file name; experiments present only on one
//!   side are flagged (`missing in B` / `new in B`) but do not fail;
//! * schema problems *do* fail: unreadable or unparseable files, a
//!   schema tag other than `ants-report/v1`, a missing column list, a
//!   row wider or narrower than its columns, or column sets that
//!   disagree exit non-zero — a dashboard diffing apples to oranges is
//!   worse than no dashboard;
//! * `id` and `params` are compared under the cell rule; a difference
//!   counts as a changed field;
//! * rows are matched by key: numeric cells print `a -> b (Δ)`,
//!   text/bool cells print `a -> b`, and a row present on one side only
//!   counts as a changed row; a reordering of the rows both sides share
//!   counts as a changed field;
//! * `wall_ms` is reported separately and never counts as a change (it
//!   is the only field allowed to drift between identical runs);
//! * observability never counts either: a `telemetry` block (or any
//!   other side-channel key a report may carry) can differ arbitrarily
//!   without flagging a change — telemetry is strictly observational
//!   and must not look like drift.

use ants_bench::{ReportDoc, RowKey};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Outcome of a trend run, for the process exit code.
pub struct TrendOutcome {
    /// Schema mismatches or unreadable/unparseable reports.
    pub failures: usize,
    /// Reports whose rows, `id` or `params` differ.
    pub changed: usize,
}

/// Diff one matched pair of reports; returns `Ok((changed rows,
/// changed fields))` or a schema-mismatch description.
fn diff_pair(name: &str, a: &ReportDoc, b: &ReportDoc) -> Result<(usize, usize), String> {
    let columns = a.columns();
    if columns != b.columns() {
        return Err(format!(
            "column sets differ ({} vs {} columns)",
            columns.len(),
            b.columns().len()
        ));
    }
    let mut fields = 0usize;
    if a.id() != b.id() {
        fields += 1;
        println!("  {name} id: {} -> {}", a.id().unwrap_or("-"), b.id().unwrap_or("-"));
    }
    let same_params = match (a.params(), b.params()) {
        (Some(x), Some(y)) => ReportDoc::cells_equal(x, y),
        (x, y) => x.is_none() && y.is_none(),
    };
    if !same_params {
        fields += 1;
        let text = |p: Option<&_>| p.map_or_else(|| "-".to_string(), ReportDoc::cell_text);
        println!("  {name} params: {} -> {}", text(a.params()), text(b.params()));
    }
    let mut rows = 0usize;
    for (key, cells_a) in a.rows() {
        let Some(cells_b) = b.row(key) else {
            rows += 1;
            println!("  {name} row {key}: missing in B");
            continue;
        };
        let mut changed = false;
        for ((col, va), vb) in columns.iter().zip(cells_a).zip(cells_b) {
            if ReportDoc::cells_equal(va, vb) {
                continue;
            }
            changed = true;
            match (va.as_number(), vb.as_number()) {
                (Some(x), Some(y)) => {
                    println!("  {name} row {key} [{col}]: {x} -> {y} (Δ {:+})", y - x)
                }
                _ => println!(
                    "  {name} row {key} [{col}]: {} -> {}",
                    ReportDoc::cell_text(va),
                    ReportDoc::cell_text(vb)
                ),
            }
        }
        rows += usize::from(changed);
    }
    for (key, _) in b.rows() {
        if a.row(key).is_none() {
            rows += 1;
            println!("  {name} row {key}: new in B");
        }
    }
    // Keyed matching ignores position, so the order of the rows both
    // sides share is compared on its own.
    let shared = |x: &ReportDoc, y: &ReportDoc| -> Vec<RowKey> {
        x.rows().iter().map(|(k, _)| k).filter(|k| y.row(k).is_some()).cloned().collect()
    };
    if shared(a, b) != shared(b, a) {
        fields += 1;
        println!("  {name}: row order changed");
    }
    Ok((rows, fields))
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
    let names = ReportDoc::list(reports_dir)?;
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

/// `ants trend history <root>`: per-cell timelines across every
/// snapshot `ants trend --record <root>` wrote.
///
/// Snapshots are ordered oldest-first by directory modification time
/// (name breaks ties), so successive `--record` runs read left to
/// right. Rows are matched by [`RowKey`]; every column after the first
/// prints one `v0 -> v1 -> ...` line per row, with `-` filling the
/// snapshots where the report, row, or column is absent.
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
    // (snapshot id, report name -> document), oldest first.
    let mut loaded: Vec<(String, BTreeMap<String, ReportDoc>)> = Vec::new();
    for (_, id, dir) in &snaps {
        let mut docs = BTreeMap::new();
        for name in ReportDoc::list(dir)? {
            match ReportDoc::load(&dir.join(&name)) {
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
        let docs: Vec<Option<&ReportDoc>> =
            loaded.iter().map(|(_, docs)| docs.get(name.as_str())).collect();
        // Schema of record: the newest snapshot that has this report.
        let columns = docs.iter().rev().flatten().next().map_or(&[][..], |doc| doc.columns());
        // Row keys in first-appearance order, oldest snapshot first, so
        // rows removed since then still show their partial history.
        let mut keys: Vec<&RowKey> = Vec::new();
        for (key, _) in docs.iter().flatten().flat_map(|doc| doc.rows()) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        for key in keys {
            println!("  {} {key}:", columns.first().map_or("cell", String::as_str));
            for column in columns.iter().skip(1) {
                let timeline: Vec<String> = docs
                    .iter()
                    .map(|doc| {
                        doc.and_then(|doc| doc.cell(key, column))
                            .map_or_else(|| "-".to_string(), ReportDoc::cell_text)
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
    let (names_a, names_b) = match (ReportDoc::list(dir_a), ReportDoc::list(dir_b)) {
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
                let (a, b) = match (ReportDoc::load(&pa), ReportDoc::load(&pb)) {
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
                    Ok((0, 0)) => {
                        identical += 1;
                        if let (Some(wa), Some(wb)) = (a.wall_ms(), b.wall_ms()) {
                            println!("= {name}: rows identical (wall {wa:.1}ms -> {wb:.1}ms)");
                        } else {
                            println!("= {name}: rows identical");
                        }
                    }
                    Ok((rows, fields)) => {
                        out.changed += 1;
                        println!("~ {name}: {rows} changed row(s), {fields} changed field(s)");
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
    use ants_sim::json::Json;

    // The diff compares cells with `ReportDoc::cells_equal`; the
    // `cells_equal_*` tests pin the edges the dashboard depends on.

    #[test]
    fn cells_equal_treats_nan_as_equal_to_itself() {
        assert!(ReportDoc::cells_equal(&Json::Num(f64::NAN), &Json::Num(f64::NAN)));
        assert!(!ReportDoc::cells_equal(&Json::Num(f64::NAN), &Json::Num(1.0)));
        assert!(!ReportDoc::cells_equal(&Json::Num(1.0), &Json::Num(f64::NAN)));
    }

    #[test]
    fn cells_equal_distinguishes_signed_zero() {
        assert!(!ReportDoc::cells_equal(&Json::Num(0.0), &Json::Num(-0.0)));
        assert!(ReportDoc::cells_equal(&Json::Num(0.0), &Json::Num(0.0)));
        assert!(ReportDoc::cells_equal(&Json::Num(-0.0), &Json::Num(-0.0)));
    }

    /// Snapshots parsed back from disk carry the non-finite string
    /// sentinels; they must compare as the numbers they encode, so a
    /// report → JSON → parse → diff round trip over NaN/±Inf/-0.0 is
    /// change-free.
    #[test]
    fn cells_equal_honours_non_finite_sentinels() {
        let reparse = |x: f64| Json::parse(&Json::Num(x).serialize()).unwrap();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let parsed = reparse(x);
            assert!(ReportDoc::cells_equal(&parsed, &Json::Num(x)), "sentinel for {x:?}");
            assert!(ReportDoc::cells_equal(&parsed, &parsed));
        }
        assert!(!ReportDoc::cells_equal(&reparse(f64::NAN), &Json::Num(1.0)));
        assert!(!ReportDoc::cells_equal(&reparse(f64::INFINITY), &Json::Num(f64::NEG_INFINITY)));
        // -0.0 still differs from 0.0 after a round trip.
        assert!(!ReportDoc::cells_equal(&reparse(-0.0), &Json::Num(0.0)));
        // An ordinary string that merely looks numeric is not a number.
        assert!(!ReportDoc::cells_equal(&Json::Str("nan".into()), &Json::Num(f64::NAN)));
    }

    #[test]
    fn cells_equal_recurses_into_containers() {
        let a = Json::Arr(vec![Json::Num(f64::NAN), Json::Str("x".into())]);
        let b = Json::Arr(vec![Json::Num(f64::NAN), Json::Str("x".into())]);
        assert!(ReportDoc::cells_equal(&a, &b));
        let c = Json::Obj(vec![("k".into(), Json::Num(f64::NAN))]);
        let d = Json::Obj(vec![("k".into(), Json::Num(f64::NAN))]);
        assert!(ReportDoc::cells_equal(&c, &d));
        let e = Json::Obj(vec![("other".into(), Json::Num(f64::NAN))]);
        assert!(!ReportDoc::cells_equal(&c, &e));
        assert!(!ReportDoc::cells_equal(&a, &Json::Arr(vec![Json::Num(f64::NAN)])));
    }

    /// A two-column report (`cell`, `value`) with the given rows and
    /// extra top-level fields.
    fn report(rows: &[(&str, Json)], extra: Vec<(&str, Json)>) -> ReportDoc {
        let rows = rows.iter().map(|(label, v)| Json::Arr(vec![Json::from(*label), v.clone()]));
        let mut fields = vec![
            ("schema", Json::from("ants-report/v1")),
            ("columns", Json::Arr(vec![Json::from("cell"), Json::from("value")])),
            ("rows", Json::Arr(rows.collect())),
        ];
        fields.extend(extra);
        ReportDoc::from_json(Json::obj(fields)).unwrap()
    }

    fn values(xs: &[f64]) -> Vec<(&'static str, Json)> {
        xs.iter().map(|&x| ("r", Json::Num(x))).collect()
    }

    #[test]
    fn diff_pair_ignores_identical_nan_cells() {
        let a = report(&values(&[f64::NAN]), vec![]);
        let b = report(&values(&[f64::NAN]), vec![]);
        assert_eq!(diff_pair("t", &a, &b), Ok((0, 0)));
    }

    #[test]
    fn diff_pair_reports_zero_sign_flips_and_real_changes() {
        let a = report(&values(&[0.0, 1.0]), vec![]);
        let b = report(&values(&[-0.0, 2.0]), vec![]);
        assert_eq!(diff_pair("t", &a, &b), Ok((2, 0)));
    }

    /// Telemetry is observational: two reports whose data rows match
    /// but whose `telemetry` blocks differ wildly are *identical* to
    /// the dashboard. Flagging them would turn every profiled run into
    /// fake drift.
    #[test]
    fn diff_pair_ignores_telemetry_blocks() {
        let with_tele = |busy: f64| {
            let tele = Json::obj([("pool_busy_ns", Json::Num(busy))]);
            report(&values(&[3.0]), vec![("telemetry", tele), ("wall_ms", Json::Num(busy))])
        };
        assert_eq!(diff_pair("t", &with_tele(1.0), &with_tele(9e9)), Ok((0, 0)));
        // One-sided blocks are equally invisible.
        assert_eq!(diff_pair("t", &with_tele(1.0), &report(&values(&[3.0]), vec![])), Ok((0, 0)));
    }

    /// `id` and `params` are part of what a run claims, so a change in
    /// either is a change (the CI parity jobs rely on this).
    #[test]
    fn diff_pair_counts_id_and_params_changes() {
        let with = |id: &str, trials: u64| {
            let params = Json::obj([("trials", Json::Int(trials)), ("ratio", Json::Num(f64::NAN))]);
            report(&values(&[1.0]), vec![("id", Json::from(id)), ("params", params)])
        };
        assert_eq!(diff_pair("t", &with("w", 8), &with("w", 8)), Ok((0, 0)));
        assert_eq!(diff_pair("t", &with("w", 8), &with("w", 9)), Ok((0, 1)));
        assert_eq!(diff_pair("t", &with("w", 8), &with("v", 8)), Ok((0, 1)));
        assert_eq!(diff_pair("t", &with("w", 8), &report(&values(&[1.0]), vec![])), Ok((0, 2)));
    }

    /// Rows match by (label, ordinal): a new row at the top is one
    /// change, not a shift of every later row, and repeated labels pair
    /// up in order.
    #[test]
    fn diff_pair_matches_rows_by_key() {
        let e1 = |extra: Option<(&'static str, Json)>| {
            let rows = [("16", 1.0), ("16", 2.0), ("32", 3.0), ("32", 4.0)];
            let rows = extra.into_iter().chain(rows.map(|(l, x)| (l, Json::Num(x))));
            report(&rows.collect::<Vec<_>>(), vec![])
        };
        assert_eq!(diff_pair("t", &e1(None), &e1(None)), Ok((0, 0)));
        assert_eq!(diff_pair("t", &e1(None), &e1(Some(("8", Json::Num(0.5))))), Ok((1, 0)));
        // A new row that repeats a label shifts that label's ordinals
        // only: both old "16" rows now pair with different values and
        // "16#3" is new, while the "32" rows stay matched.
        assert_eq!(diff_pair("t", &e1(None), &e1(Some(("16", Json::Num(9.0))))), Ok((3, 0)));
    }

    /// Keyed matching must not hide a reordering of the same rows.
    #[test]
    fn diff_pair_flags_reordered_rows() {
        let a = report(&[("x", Json::Int(1)), ("y", Json::Int(2))], vec![]);
        let b = report(&[("y", Json::Int(2)), ("x", Json::Int(1))], vec![]);
        assert_eq!(diff_pair("t", &a, &b), Ok((0, 1)));
    }
}
