//! A minimal, dependency-free TOML-subset parser producing the
//! workspace's one JSON value model, [`Json`] (`ants_obs::json`,
//! re-exported as `ants_sim::json`).
//!
//! The workspace builds fully offline, so workload specs cannot lean on
//! a real TOML crate. This parser covers the subset the workload format
//! needs — and rejects everything else loudly:
//!
//! * `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`);
//! * `[table]` / `[a.b]` headers and `[[array-of-tables]]` headers;
//! * basic strings (`"…"` with `\" \\ \n \r \t \uXXXX` escapes),
//!   integers, floats, booleans;
//! * arrays `[v, v, …]`, which may span lines and contain comments;
//! * single-line inline tables `{ k = v, … }`;
//! * `#` comments and blank lines.
//!
//! Out of scope (use the forms above instead): dotted keys, quoted keys,
//! multi-line/literal strings, dates, `+`/`_` digit separators, and
//! nested `[[a.b]]` under an array element.
//!
//! Numbers map to [`Json::Num`] (`f64`), integers included; the spec
//! layer reads them through [`Json::as_f64`] — workload quantities are
//! well inside the exact-integer range. Object keys keep document order, so a
//! serializer round-trip test can assert field order.

use ants_sim::json::Json;
use std::fmt;

/// A TOML parse failure: 1-based line plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Parse a TOML-subset document into a [`Json`] object tree.
pub fn parse(text: &str) -> Result<Json, TomlError> {
    let mut p =
        Parser { bytes: text.as_bytes(), pos: 0, defined: std::collections::HashSet::new() };
    let mut root = Json::Obj(Vec::new());
    // Path from the root to the table new `key = value` pairs land in.
    let mut current: Vec<Seg> = Vec::new();
    loop {
        p.skip_trivia();
        let Some(b) = p.peek() else { break };
        if b == b'[' {
            current = p.header(&mut root)?;
        } else {
            let (key, value) = p.key_value()?;
            let table = node_at(&mut root, &current).map_err(|m| p.err(&m))?;
            insert_unique(table, key, value, &p)?;
            p.end_of_line()?;
        }
    }
    Ok(root)
}

/// One step of a table path: a named key, or an index into an
/// array-of-tables (always "the last element" at parse time, but stored
/// explicitly so the path stays valid as the tree grows).
#[derive(Debug, Clone)]
enum Seg {
    Key(String),
    Index(usize),
}

/// Navigate (without creating) to the table a path points at.
///
/// The paths are built by this parser, so a failure here means the tree
/// and the path disagree — but the daemon use case (arbitrary specs over
/// a socket) cannot afford a panic on any input, however malformed, so
/// every lookup is fallible and surfaces as a line-numbered
/// [`TomlError`] at the call site instead of killing the process.
fn node_at<'a>(root: &'a mut Json, path: &[Seg]) -> Result<&'a mut Json, String> {
    let mut node = root;
    for seg in path {
        node = match (seg, node) {
            (Seg::Key(k), Json::Obj(fields)) => {
                match fields.iter_mut().find(|(name, _)| name == k) {
                    Some((_, value)) => value,
                    None => return Err(format!("table path lost key '{k}'")),
                }
            }
            (Seg::Index(i), Json::Arr(items)) => match items.get_mut(*i) {
                Some(item) => item,
                None => return Err(format!("table path lost array element {i}")),
            },
            (Seg::Key(k), _) => return Err(format!("'{k}' no longer names a table")),
            (Seg::Index(i), _) => return Err(format!("element {i} no longer names an array")),
        };
    }
    Ok(node)
}

fn insert_unique(table: &mut Json, key: String, value: Json, p: &Parser) -> Result<(), TomlError> {
    let Json::Obj(fields) = table else {
        return Err(p.err(&format!("'{key}' would overwrite a non-table value")));
    };
    if fields.iter().any(|(name, _)| *name == key) {
        return Err(p.err(&format!("duplicate key '{key}'")));
    }
    fields.push((key, value));
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Resolved paths of plain `[table]` headers already opened (array
    /// indices included, so `[a.b]` under different `[[a]]` elements
    /// stay distinct). Real TOML rejects table redefinition; merging
    /// two `[defaults]` sections silently would hide merge accidents.
    defined: std::collections::HashSet<String>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> TomlError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        TomlError { line, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, newlines, and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// After a value or header: only trailing whitespace, a comment, then
    /// end of line or file.
    fn end_of_line(&mut self) -> Result<(), TomlError> {
        self.skip_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') | Some(b'\r') => Ok(()),
            Some(c) => Err(self.err(&format!("unexpected '{}' after value", c as char))),
        }
    }

    fn bare_key(&mut self) -> Result<String, TomlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a bare key ([A-Za-z0-9_-]+)"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// Parse `[a.b]` or `[[a.b]]`; create the tables; return the new
    /// current path.
    fn header(&mut self, root: &mut Json) -> Result<Vec<Seg>, TomlError> {
        self.pos += 1; // consume '['
        let array = self.peek() == Some(b'[');
        if array {
            self.pos += 1;
        }
        let mut keys = Vec::new();
        loop {
            self.skip_ws();
            keys.push(self.bare_key()?);
            self.skip_ws();
            match self.peek() {
                Some(b'.') => self.pos += 1,
                Some(b']') => break,
                _ => return Err(self.err("expected '.' or ']' in table header")),
            }
        }
        self.pos += 1; // consume ']'
        if array {
            if self.peek() != Some(b']') {
                return Err(self.err("expected ']]' to close an array-of-tables header"));
            }
            self.pos += 1;
        }
        self.end_of_line()?;

        // Walk/create intermediate tables; the last key is a table or an
        // array-of-tables element.
        let mut path: Vec<Seg> = Vec::new();
        let (intermediate, last) = keys.split_at(keys.len() - 1);
        for key in intermediate {
            path = self.descend(root, path, key, false, false)?;
        }
        let path = self.descend(root, path, &last[0], array, true)?;
        if !array {
            let resolved = path
                .iter()
                .map(|seg| match seg {
                    Seg::Key(k) => k.clone(),
                    Seg::Index(i) => format!("#{i}"),
                })
                .collect::<Vec<_>>()
                .join(".");
            if !self.defined.insert(resolved) {
                return Err(self.err(&format!("table [{}] is defined twice", keys.join("."))));
            }
        }
        Ok(path)
    }

    /// Get-or-create `key` under the table at `path`; returns the
    /// extended path. With `array`, `key` is an array of tables and a
    /// fresh element is appended.
    fn descend(
        &self,
        root: &mut Json,
        mut path: Vec<Seg>,
        key: &str,
        array: bool,
        last: bool,
    ) -> Result<Vec<Seg>, TomlError> {
        let node = node_at(root, &path).map_err(|m| self.err(&m))?;
        let Json::Obj(fields) = node else {
            return Err(self.err(&format!("'{key}' would nest under a non-table value")));
        };
        let idx = match fields.iter().position(|(name, _)| name == key) {
            Some(i) => i,
            None => {
                let fresh = if array { Json::Arr(Vec::new()) } else { Json::Obj(Vec::new()) };
                fields.push((key.to_string(), fresh));
                fields.len() - 1
            }
        };
        let (_, existing) = &mut fields[idx];
        if array {
            let Json::Arr(items) = existing else {
                return Err(self.err(&format!("'{key}' is not an array of tables")));
            };
            items.push(Json::Obj(Vec::new()));
            path.push(Seg::Key(key.to_string()));
            path.push(Seg::Index(items.len() - 1));
        } else {
            match existing {
                Json::Obj(_) => path.push(Seg::Key(key.to_string())),
                // An intermediate segment crossing an array of tables
                // means "the latest element" (`[cells.sweep]` after
                // `[[cells]]`); re-opening one as a *final* plain header
                // (`[cells]`) is a redefinition and rejected, as in
                // real TOML.
                Json::Arr(items) if !last && !items.is_empty() => {
                    let idx = items.len() - 1;
                    path.push(Seg::Key(key.to_string()));
                    path.push(Seg::Index(idx));
                }
                Json::Arr(_) => {
                    return Err(self
                        .err(&format!("'{key}' is an array of tables — use [[{key}]] to append")))
                }
                _ => return Err(self.err(&format!("'{key}' is already a non-table value"))),
            }
        }
        Ok(path)
    }

    fn key_value(&mut self) -> Result<(String, Json), TomlError> {
        let key = self.bare_key()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err(&format!("expected '=' after key '{key}'")));
        }
        self.pos += 1;
        self.skip_ws();
        let value = self.value()?;
        Ok((key, value))
    }

    fn value(&mut self) -> Result<Json, TomlError> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.inline_table(),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value (string, number, boolean, array, or table)")),
        }
    }

    fn boolean(&mut self) -> Result<Json, TomlError> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(self.err("expected 'true' or 'false'"))
    }

    fn number(&mut self) -> Result<Json, TomlError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number span is ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, TomlError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let end = self.pos + 5;
                            if end > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let digits = std::str::from_utf8(&self.bytes[self.pos + 1..end])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(digits, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                            self.pos = end - 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Arrays may span lines and contain comments.
    fn array(&mut self) -> Result<Json, TomlError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                None => return Err(self.err("unterminated array")),
                _ => {}
            }
            items.push(self.value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Inline tables are single-line: `{ k = v, k2 = v2 }`.
    fn inline_table(&mut self) -> Result<Json, TomlError> {
        self.pos += 1; // consume '{'
        let mut table = Json::Obj(Vec::new());
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(table);
        }
        loop {
            self.skip_ws();
            let (key, value) = self.key_value()?;
            insert_unique(&mut table, key, value, self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(table);
                }
                _ => return Err(self.err("expected ',' or '}' in inline table")),
            }
        }
    }
}

/// Escape a string for a TOML basic string (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Missing keys resolve to `Null` so the assertion that follows
    /// fails with the actual-vs-expected values instead of a panic
    /// inside the helper.
    fn get<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(doc, |node, key| node.get(key).unwrap_or(&Json::Null))
    }

    #[test]
    fn parses_scalars_and_tables() {
        let doc = parse(
            "name = \"zoo\"\ncount = 3\nratio = 1.5\nflag = true\n\n[defaults]\ntrials = 30\n",
        )
        .unwrap();
        assert_eq!(get(&doc, &["name"]).as_str(), Some("zoo"));
        assert_eq!(get(&doc, &["count"]).as_f64(), Some(3.0));
        assert_eq!(get(&doc, &["ratio"]).as_f64(), Some(1.5));
        assert_eq!(get(&doc, &["flag"]), &Json::Bool(true));
        assert_eq!(get(&doc, &["defaults", "trials"]).as_f64(), Some(30.0));
    }

    #[test]
    fn parses_arrays_of_tables_and_inline_tables() {
        let text = "\
[[cells]]
name = \"a\"
target = { model = \"ball\", dist = 16 }

[[cells]]
name = \"b\"
population = [
  { strategy = \"randomwalk\", weight = 1 }, # comment
  { strategy = \"spiral\", weight = 2 },
]
";
        let doc = parse(text).unwrap();
        let cells = get(&doc, &["cells"]).as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(get(&cells[0], &["target", "model"]).as_str(), Some("ball"));
        let pop = cells[1].get("population").unwrap().as_array().unwrap();
        assert_eq!(pop.len(), 2);
        assert_eq!(pop[1].get("weight").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn nested_headers_and_comments() {
        let doc = parse("# top\n[a.b]\nx = 1 # trailing\n[a.c]\ny = 2\n").unwrap();
        assert_eq!(get(&doc, &["a", "b", "x"]).as_f64(), Some(1.0));
        assert_eq!(get(&doc, &["a", "c", "y"]).as_f64(), Some(2.0));
    }

    #[test]
    fn sub_table_of_array_element() {
        let doc = parse("[[cells]]\nname = \"a\"\n[cells.sweep]\nn = [1, 2]\n").unwrap();
        let cells = get(&doc, &["cells"]).as_array().unwrap();
        let n = get(&cells[0], &["sweep", "n"]).as_array().unwrap();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te — ünïcode";
        let doc = parse(&format!("s = \"{}\"", escape(nasty))).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken = \n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(parse("dup = 1\ndup = 2\n").unwrap_err().to_string().contains("duplicate"));
        assert!(parse("x = 1 y = 2\n").is_err());
        assert!(parse("[unclosed\n").is_err());
        assert!(parse("x = \"unterminated\n").is_err());
        assert!(parse("[a]\n[a.b.\n").is_err());
    }

    #[test]
    fn rejects_table_redefinition() {
        // Two [defaults] sections (a classic merge accident) must not
        // silently merge.
        let e = parse("[defaults]\na = 1\n[defaults]\nb = 2\n").unwrap_err();
        assert!(e.to_string().contains("defined twice"), "{e}");
        // Re-opening an array of tables as a plain table is rejected...
        let e = parse("[[cells]]\nx = 1\n[cells]\ny = 2\n").unwrap_err();
        assert!(e.to_string().contains("[[cells]]"), "{e}");
        // ...but sub-tables under *different* array elements are fine.
        let doc =
            parse("[[cells]]\n[cells.sweep]\nn = 1\n[[cells]]\n[cells.sweep]\nn = 2\n").unwrap();
        assert_eq!(doc.get("cells").unwrap().as_array().unwrap().len(), 2);
        // The same element defining [cells.sweep] twice is not.
        assert!(parse("[[cells]]\n[cells.sweep]\nn = 1\n[cells.sweep]\nm = 2\n").is_err());
    }

    #[test]
    fn rejects_out_of_subset_constructs() {
        // Dotted keys are out of subset.
        assert!(parse("a.b = 1\n").is_err());
        // Re-opening a scalar as a table.
        assert!(parse("a = 1\n[a]\nb = 2\n").is_err());
        // Array-of-tables clash with a scalar.
        assert!(parse("a = 1\n[[a]]\nb = 2\n").is_err());
    }

    #[test]
    fn empty_document_is_an_empty_table() {
        assert_eq!(parse("").unwrap(), Json::Obj(Vec::new()));
        assert_eq!(parse("\n# only comments\n\n").unwrap(), Json::Obj(Vec::new()));
    }
}
