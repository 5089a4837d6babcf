//! Plain-text aligned tables for experiment output.

use std::fmt;

use lc_driver::json::Json;

/// A rendered experiment table (or one series of a figure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id (e.g. `T3`, `F1`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Construct a table; headers fix the column count.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Find a column index by header name.
    pub fn col(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }

    /// Parse a cell as `f64` (used by the self-checking tests).
    pub fn cell_f64(&self, row: usize, header: &str) -> Option<f64> {
        let c = self.col(header)?;
        self.rows.get(row)?.get(c)?.parse().ok()
    }

    /// Render the table as a JSON object (cells stay strings so the
    /// output is a faithful transcript of the text table).
    pub fn to_json(&self) -> String {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("id", Json::Str(self.id.into())),
            ("title", Json::Str(self.title.clone())),
            ("headers", strs(&self.headers)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
        .to_string()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n[{}] {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, "{cell:>w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T0", "demo", &["n", "value"]);
        t.row(vec!["1".into(), "short".into()]);
        t.row(vec!["1000".into(), "x".into()]);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("1000"));
        // Every data line has the same length.
        let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new("T0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_output_is_wellformed_and_escaped() {
        let mut t = Table::new("T0", "demo \"quoted\"", &["n", "text"]);
        t.row(vec!["1".into(), "a\\b\nc".into()]);
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("\\\\b\\nc"), "{j}");
        assert!(j.contains("\"headers\":[\"n\",\"text\"]"));
    }

    #[test]
    fn cell_lookup() {
        let mut t = Table::new("T0", "demo", &["n", "speedup"]);
        t.row(vec!["4".into(), "3.91".into()]);
        assert_eq!(t.cell_f64(0, "speedup"), Some(3.91));
        assert_eq!(t.cell_f64(0, "missing"), None);
        assert_eq!(t.col("n"), Some(0));
    }
}
