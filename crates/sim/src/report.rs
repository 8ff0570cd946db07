//! Typed records, fixed-width tables, and CSV output for experiment
//! harnesses.
//!
//! The experiment harnesses collect their sweeps as [`Records`] — rows of
//! typed [`Value`] cells, numeric until render time — and every output
//! format (fixed-width text via [`Table`], CSV, the JSON reports in
//! `ants-bench`) derives from the same records, so EXPERIMENTS.md and
//! dashboards can quote the same numbers.
//!
//! JSON goes through the workspace's one writer: a cell converts to a
//! [`Json`] value (`From<&Value>`), [`Records`] hands out its columns and
//! rows as [`Json`] arrays, and the report document in `ants-bench` is
//! a [`Json`] tree printed by [`Json::serialize`].

use crate::json::Json;
use std::fmt;

/// A typed table cell.
///
/// Numbers stay numeric ([`Value::Num`]/[`Value::Int`]) until render
/// time, so JSON reports carry full precision while text tables keep the
/// compact [`fnum`] formatting.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, sizes, distances).
    Int(u64),
    /// A floating-point measurement. NaN renders as `-` in text tables
    /// (the conventional "not applicable" cell) and as the lossless
    /// `"NaN"` sentinel in JSON (see [`Json::serialize`]).
    Num(f64),
    /// A text label.
    Text(String),
    /// A boolean check result.
    Bool(bool),
}

impl Value {
    /// Render for a text table cell.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(x) if x.is_nan() => "-".to_string(),
            Value::Num(x) => fnum(*x),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// The cell as an `f64` (integers widen; text/bool are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// A cell as a JSON value (full precision, stable). Integers above
/// `2^53` become strings — beyond that point a JSON consumer's `f64`
/// would silently round them; floats keep the writer's `"NaN"`/`"Inf"`/
/// `"-Inf"` sentinels.
impl From<&Value> for Json {
    fn from(v: &Value) -> Json {
        match v {
            Value::Int(n) if *n <= (1u64 << 53) => Json::Int(*n),
            Value::Int(n) => Json::Str(n.to_string()),
            Value::Num(x) => Json::Num(*x),
            Value::Text(s) => Json::Str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

/// Typed experiment records: named columns plus rows of [`Value`] cells.
///
/// ```
/// use ants_sim::report::Records;
/// let mut r = Records::new(vec!["D", "mean moves"]);
/// r.row(vec![64u64.into(), 1234.5.into()]);
/// assert_eq!(r.num(0, "mean moves"), 1234.5);
/// assert!(r.to_table().to_string().contains("mean moves"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Records {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Records {
    /// Create empty records with the given column names.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        Self { columns: columns.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, cells: Vec<Value>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} does not match column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
        self
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Are there no data rows?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell lookup by row index and column name.
    ///
    /// # Panics
    ///
    /// Panics if the row or column does not exist.
    pub fn cell(&self, row: usize, column: &str) -> &Value {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column named '{column}'"));
        &self.rows[row][col]
    }

    /// Numeric cell lookup (integers widen to `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing or non-numeric.
    pub fn num(&self, row: usize, column: &str) -> f64 {
        self.cell(row, column)
            .as_f64()
            .unwrap_or_else(|| panic!("cell ({row}, '{column}') is not numeric"))
    }

    /// Render into a fixed-width [`Table`].
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(self.columns.iter().map(String::as_str).collect());
        for row in &self.rows {
            t.row(row.iter().map(Value::render).collect());
        }
        t
    }

    /// Render as CSV (same cells as the text table).
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// The column names as a JSON array of strings.
    pub fn columns_json(&self) -> Json {
        Json::Arr(self.columns.iter().map(|c| Json::from(c.as_str())).collect())
    }

    /// The rows as a JSON array of cell arrays.
    pub fn rows_json(&self) -> Json {
        Json::Arr(self.rows.iter().map(|r| Json::Arr(r.iter().map(Json::from).collect())).collect())
    }

    /// The `"columns":[...],"rows":[[...]]` members of a report document,
    /// without the surrounding braces: the exact bytes
    /// [`Records::columns_json`] and [`Records::rows_json`] serialize to
    /// inside a report.
    pub fn json_fields(&self) -> String {
        let doc = Json::obj([("columns", self.columns_json()), ("rows", self.rows_json())]);
        let text = doc.serialize();
        text[1..text.len() - 1].to_string()
    }
}

impl fmt::Display for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_table().fmt(f)
    }
}

/// A simple fixed-width text table.
///
/// ```
/// use ants_sim::report::Table;
/// let mut t = Table::new(vec!["D", "mean moves", "ratio"]);
/// t.row(vec!["64".into(), "1234.5".into(), "1.9".into()]);
/// let s = t.to_string();
/// assert!(s.contains("mean moves"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV (headers + rows, comma-separated, quoted as needed).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (cell, w) in cells.iter().zip(widths.iter()) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}")?;
                first = false;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a float for table cells: fixed width, sensible precision.
///
/// Magnitude tiers keep large counts compact, mid-range ratios readable,
/// and small probabilities / TV distances from collapsing to `0.000`.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.1 {
        format!("{x:.3}")
    } else if x.abs() >= 1e-4 {
        format!("{x:.5}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["100".into(), "2".into()]);
        t.row(vec!["1".into(), "22222".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows — all of equal width.
        assert_eq!(lines.len(), 4);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn csv_escapes_newlines_and_headers() {
        let mut t = Table::new(vec!["plain", "head,er"]);
        t.row(vec!["line\nbreak".into(), "both,\"and\"\nmore".into()]);
        t.row(vec!["clean".into(), "also clean".into()]);
        let csv = t.to_csv();
        // Headers are escaped too.
        assert!(csv.starts_with("plain,\"head,er\"\n"));
        // Embedded newline stays inside one quoted field.
        assert!(csv.contains("\"line\nbreak\""));
        assert!(csv.contains("\"both,\"\"and\"\"\nmore\""));
        // Unquoted cells pass through verbatim.
        assert!(csv.contains("clean,also clean\n"));
    }

    #[test]
    fn value_rendering() {
        assert_eq!(Value::Int(12).render(), "12");
        assert_eq!(Value::Num(1.23456).render(), "1.235");
        assert_eq!(Value::Num(f64::NAN).render(), "-");
        assert_eq!(Value::Text("hi".into()).render(), "hi");
        assert_eq!(Value::Bool(true).render(), "true");
    }

    #[test]
    fn value_json_tokens() {
        let token = |v: Value| Json::from(&v).serialize();
        assert_eq!(token(Value::Int(12)), "12");
        // Integers beyond f64's exact range are strings.
        assert_eq!(token(Value::Int(1 << 53)), "9007199254740992");
        assert_eq!(token(Value::Int((1 << 53) + 1)), "\"9007199254740993\"");
        assert_eq!(token(Value::Int(u64::MAX)), format!("\"{}\"", u64::MAX));
        assert_eq!(token(Value::Num(0.5)), "0.5");
        assert_eq!(token(Value::Num(f64::NAN)), "\"NaN\"");
        assert_eq!(token(Value::Num(f64::INFINITY)), "\"Inf\"");
        assert_eq!(token(Value::Text("a\"b".into())), "\"a\\\"b\"");
        assert_eq!(token(Value::Bool(false)), "false");
    }

    #[test]
    fn records_round_trip_to_table_and_csv() {
        let mut r = Records::new(vec!["D", "ratio", "ok"]);
        r.row(vec![64u64.into(), 1.9.into(), true.into()]);
        r.row(vec![128u64.into(), f64::NAN.into(), false.into()]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.num(0, "D"), 64.0);
        assert_eq!(r.num(0, "ratio"), 1.9);
        assert_eq!(r.cell(1, "ok"), &Value::Bool(false));
        let table = r.to_table();
        assert_eq!(table.len(), 2);
        let csv = r.to_csv();
        assert!(csv.starts_with("D,ratio,ok\n"));
        assert!(csv.contains("64,1.900,true"));
        assert!(csv.contains("128,-,false"));
    }

    #[test]
    fn records_json_fields_parse_cleanly() {
        let mut r = Records::new(vec!["name", "x"]);
        r.row(vec!["a,b\"c".into(), 2.5.into()]);
        let doc = format!("{{{}}}", r.json_fields());
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.keys(), vec!["columns", "rows"]);
        let rows = v.get("rows").unwrap().as_array().unwrap();
        let row0 = rows[0].as_array().unwrap();
        assert_eq!(row0[0].as_str(), Some("a,b\"c"));
        assert_eq!(row0[1].as_f64(), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn records_width_mismatch_panics() {
        let mut r = Records::new(vec!["a"]);
        r.row(vec![1u64.into(), 2u64.into()]);
    }

    #[test]
    fn fnum_precision_tiers() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.23456), "1.235");
        assert_eq!(fnum(31.4159), "31.4");
        assert_eq!(fnum(31415.9), "31416");
        assert_eq!(fnum(0.00195), "0.00195");
        assert_eq!(fnum(0.0314), "0.03140");
        assert_eq!(fnum(1.9e-9), "1.90e-9");
        assert_eq!(fnum(-0.5), "-0.500");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
