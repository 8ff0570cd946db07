//! The regression gate: compare a current report document against a
//! baseline and decide whether the drift is acceptable.
//!
//! This is the policy layer behind `ants serve --gate` / `ants query
//! gate` and usable by CI directly: metrics are held to a relative
//! tolerance (with NaN==NaN total-order semantics, so a legitimately
//! unavailable cell never trips the gate), text/bool cells must match
//! exactly, and wall-clock — the one field the determinism contract
//! deliberately leaves free — is held to a multiplicative factor above
//! an absolute floor, so micro-benchmark noise cannot fail a build but
//! a real slowdown does.

use crate::experiments::ReportDoc;

/// Gate policy: how much drift each kind of cell tolerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateThresholds {
    /// Maximum relative drift `|current - baseline| / max(|baseline|, 1)`
    /// for numeric cells.
    pub metric_rel_tol: f64,
    /// Maximum `current / baseline` wall-clock ratio.
    pub wall_factor: f64,
    /// Wall-clock deltas below this many milliseconds never fail,
    /// whatever the ratio (smoke reports finish in single-digit
    /// milliseconds, where the ratio is pure noise).
    pub wall_floor_ms: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        GateThresholds { metric_rel_tol: 0.05, wall_factor: 4.0, wall_floor_ms: 250.0 }
    }
}

/// One cell (or structural property) that drifted past its threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateViolation {
    /// The row's first-column label, or `-` for report-level properties.
    pub cell: String,
    /// The column (or property) that drifted.
    pub column: String,
    /// Rendered baseline value.
    pub baseline: String,
    /// Rendered current value.
    pub current: String,
    /// Why this counts as a violation.
    pub detail: String,
}

impl GateViolation {
    fn new(
        cell: impl ToString,
        column: &str,
        baseline: impl Into<String>,
        current: impl Into<String>,
        detail: impl Into<String>,
    ) -> GateViolation {
        GateViolation {
            cell: cell.to_string(),
            column: column.to_string(),
            baseline: baseline.into(),
            current: current.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for GateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} / {}] {} -> {}: {}",
            self.cell, self.column, self.baseline, self.current, self.detail
        )
    }
}

/// Compare `current` against `baseline` under `t`.
///
/// Returns the violations (empty = gate passes). Rows are matched by
/// [`RowKey`](crate::RowKey) (first-column label plus its ordinal among
/// equal labels), so an appended cell does not misalign every later row
/// and repeated labels pair up in order; a row present on only one side is itself a
/// violation. Both documents passed [`ReportDoc`]'s schema and shape
/// checks on the way in.
///
/// # Errors
///
/// Diverged column sets, which make a comparison meaningless rather than
/// failed. (A gate diffing apples to oranges must be a hard error, not a
/// pass *or* a fail.)
pub fn gate_report(
    baseline: &ReportDoc,
    current: &ReportDoc,
    t: &GateThresholds,
) -> Result<Vec<GateViolation>, String> {
    let cols = baseline.columns();
    if cols != current.columns() {
        return Err("column sets differ between baseline and current".to_string());
    }
    let mut violations = Vec::new();
    for (key, base_cells) in baseline.rows() {
        let Some(cur_cells) = current.row(key) else {
            violations.push(GateViolation::new(
                key,
                "-",
                "present",
                "missing",
                "row disappeared from the current report",
            ));
            continue;
        };
        for ((col, b), c) in cols.iter().zip(base_cells).zip(cur_cells).skip(1) {
            if ReportDoc::cells_equal(b, c) {
                continue;
            }
            let detail = match (b.as_number(), c.as_number()) {
                (Some(x), Some(y)) => {
                    // NaN drift (one side NaN, the other not) must fail,
                    // so the comparison is written to catch it explicitly.
                    let rel = (y - x).abs() / x.abs().max(1.0);
                    if !rel.is_nan() && rel <= t.metric_rel_tol {
                        continue;
                    }
                    format!("relative drift {rel:.4} exceeds tolerance {:.4}", t.metric_rel_tol)
                }
                _ => "non-numeric cell changed".to_string(),
            };
            let (b, c) = (ReportDoc::cell_text(b), ReportDoc::cell_text(c));
            violations.push(GateViolation::new(key, col, b, c, detail));
        }
    }
    for (key, _) in current.rows() {
        if baseline.row(key).is_none() {
            violations.push(GateViolation::new(
                key,
                "-",
                "missing",
                "present",
                "row appeared that the baseline does not have",
            ));
        }
    }
    // Wall clock: the only field allowed to drift between identical
    // runs, gated by ratio above an absolute floor. A report whose wall
    // clock was never stamped (field absent, or still the `Report::new`
    // NaN) gets its own violation naming the report — silently skipping
    // the check would wave through a runner that stopped timing, and
    // letting NaN fall into the ratio arithmetic fails confusingly.
    for (side, doc) in [("baseline", baseline), ("current", current)] {
        if doc.wall_ms().is_none() {
            let missing = |s: &str| if s == side { "missing" } else { "-" };
            violations.push(GateViolation::new(
                "-",
                "wall_ms",
                missing("baseline"),
                missing("current"),
                format!(
                    "wall_ms missing from the {side} report '{}': never stamped (NaN or absent)",
                    doc.id().unwrap_or("<unidentified report>")
                ),
            ));
        }
    }
    if let (Some(wb), Some(wc)) = (baseline.wall_ms(), current.wall_ms()) {
        if wc - wb > t.wall_floor_ms && wb > 0.0 && wc / wb > t.wall_factor {
            violations.push(GateViolation::new(
                "-",
                "wall_ms",
                format!("{wb:.1}"),
                format!("{wc:.1}"),
                format!(
                    "wall clock grew {:.1}x (limit {:.1}x above a {:.0}ms floor)",
                    wc / wb,
                    t.wall_factor,
                    t.wall_floor_ms
                ),
            ));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_sim::json::Json;

    /// A report as it reads back from disk: non-finite cells arrive as
    /// the writer's string sentinels.
    fn doc(rows: &[(&str, f64)], wall: f64) -> ReportDoc {
        let rendered: Vec<String> = rows
            .iter()
            .map(|(label, x)| format!("[\"{label}\",{}]", Json::Num(*x).serialize()))
            .collect();
        ReportDoc::parse(&format!(
            "{{\"schema\":\"ants-report/v1\",\"columns\":[\"cell\",\"metric\"],\
             \"rows\":[{}],\"wall_ms\":{wall}}}",
            rendered.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let a = doc(&[("c1", 0.5), ("c2", f64::NAN)], 10.0);
        let b = doc(&[("c1", 0.5), ("c2", f64::NAN)], 200.0);
        // NaN cells and a below-floor wall drift are both fine.
        assert_eq!(gate_report(&a, &b, &GateThresholds::default()).unwrap(), vec![]);
    }

    #[test]
    fn metric_drift_past_tolerance_fails() {
        let t = GateThresholds::default();
        let base = doc(&[("c1", 1.0)], 10.0);
        assert!(gate_report(&base, &doc(&[("c1", 1.04)], 10.0), &t).unwrap().is_empty());
        let v = gate_report(&base, &doc(&[("c1", 1.2)], 10.0), &t).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cell, "c1");
        assert!(v[0].detail.contains("relative drift"), "{}", v[0]);
        // A NaN appearing where a number was is a violation (the rel
        // comparison is NaN, which never satisfies <= tol).
        assert_eq!(gate_report(&base, &doc(&[("c1", f64::NAN)], 10.0), &t).unwrap().len(), 1);
    }

    #[test]
    fn wall_clock_gates_by_ratio_above_floor() {
        let t = GateThresholds::default();
        // 5x ratio but only 40ms absolute: passes the floor.
        assert!(gate_report(&doc(&[("c", 1.0)], 10.0), &doc(&[("c", 1.0)], 50.0), &t)
            .unwrap()
            .is_empty());
        // 5x ratio and 4s absolute: fails.
        let v = gate_report(&doc(&[("c", 1.0)], 1000.0), &doc(&[("c", 1.0)], 5000.0), &t).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].column, "wall_ms");
    }

    #[test]
    fn unstamped_wall_clock_is_a_named_violation() {
        let t = GateThresholds::default();
        // A report serialized before the runner stamped it carries the
        // `Report::new` NaN; one with the field dropped entirely is the
        // same failure. Both must name the offending report.
        let stamped = doc(&[("c", 1.0)], 10.0);
        let nan_wall = ReportDoc::parse(
            "{\"schema\":\"ants-report/v1\",\"id\":\"e9\",\"columns\":[\"cell\",\"metric\"],\
             \"rows\":[[\"c\",1]],\"wall_ms\":\"NaN\"}",
        )
        .unwrap();
        let v = gate_report(&stamped, &nan_wall, &t).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].column, "wall_ms");
        assert!(v[0].detail.contains("wall_ms missing from the current report 'e9'"), "{}", v[0]);
        let absent = ReportDoc::parse(
            "{\"schema\":\"ants-report/v1\",\"columns\":[\"cell\",\"metric\"],\"rows\":[[\"c\",1]]}",
        )
        .unwrap();
        let v = gate_report(&absent, &stamped, &t).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("baseline report '<unidentified report>'"), "{}", v[0]);
    }

    #[test]
    fn row_set_changes_are_violations_and_column_changes_are_errors() {
        let t = GateThresholds::default();
        let v = gate_report(&doc(&[("a", 1.0), ("b", 2.0)], 1.0), &doc(&[("a", 1.0)], 1.0), &t)
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].cell.as_str(), v[0].current.as_str()), ("b", "missing"));
        let v = gate_report(&doc(&[("a", 1.0)], 1.0), &doc(&[("a", 1.0), ("b", 2.0)], 1.0), &t)
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].cell.as_str(), v[0].baseline.as_str()), ("b", "missing"));
        let other = ReportDoc::parse(
            "{\"schema\":\"ants-report/v1\",\"columns\":[\"cell\",\"other\"],\"rows\":[],\"wall_ms\":1}",
        )
        .unwrap();
        assert!(gate_report(&doc(&[], 1.0), &other, &t).is_err());
    }

    /// Repeated first-column labels (E1 lists each `D` once per
    /// strategy) pair up in order: a report gated against itself passes,
    /// and drift in the second row of a label names that row.
    #[test]
    fn repeated_labels_pair_up_in_order() {
        let t = GateThresholds::default();
        let e1 = doc(&[("16", 1.0), ("16", 2.0), ("32", 3.0), ("32", 4.0)], 10.0);
        assert_eq!(gate_report(&e1, &e1, &t).unwrap(), vec![]);
        let drifted = doc(&[("16", 1.0), ("16", 2.0), ("32", 3.0), ("32", 9.0)], 10.0);
        let v = gate_report(&e1, &drifted, &t).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].cell.as_str(), v[0].baseline.as_str()), ("32#2", "4"));
    }

    /// The gate reads documents only through `ReportDoc`, which refuses
    /// an off-schema report, a missing column list and a ragged row.
    #[test]
    fn off_schema_and_ragged_reports_never_reach_the_gate() {
        let gate = |base: &str, cur: &str| -> Result<Vec<GateViolation>, String> {
            gate_report(
                &ReportDoc::parse(base)?,
                &ReportDoc::parse(cur)?,
                &GateThresholds::default(),
            )
        };
        let good =
            r#"{"schema":"ants-report/v1","columns":["cell","m"],"rows":[["c",1]],"wall_ms":1}"#;
        assert_eq!(gate(good, good), Ok(vec![]));
        for bad in [
            good.replace("ants-report/v1", "other/v9"),
            good.replace(r#""columns":["cell","m"],"#, ""),
            good.replace(r#"["c",1]"#, r#"["c",1,2]"#),
        ] {
            assert!(gate(good, &bad).is_err(), "accepted {bad}");
            assert!(gate(&bad, good).is_err(), "accepted {bad}");
        }
    }
}
