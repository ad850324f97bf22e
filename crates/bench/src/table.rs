//! Plain-text table rendering and JSON persistence for experiment output.

use std::fmt::Write as _;

use serde::Serialize;

/// A rendered experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct TextTable {
    /// Table title (e.g. "Table 2. Experimental results for the Towers of
    /// Hanoi problem").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned plain-text table. A table with no columns (the
    /// paper's figures) renders as its title alone.
    pub fn render(&self) -> String {
        if self.headers.is_empty() {
            return self.title.clone();
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        line(&mut out);
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(out, "| {h:w$} ");
        }
        out.push_str("|\n");
        line(&mut out);
        for row in &self.rows {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "| {cell:>w$} ");
            }
            out.push_str("|\n");
        }
        line(&mut out);
        out
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("Table X", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.345".into()]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("| name"));
        assert!(s.contains("longer"));
        // all rows have the same width
        let widths: Vec<usize> = s.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut t = TextTable::new("T", &["a"]);
        t.row(vec!["x".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\""));
        assert!(j.contains("\"rows\""));
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.005), "1.00"); // bankers-adjacent, but stable
    }
}
