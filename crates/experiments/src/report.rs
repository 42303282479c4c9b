//! Plain-text table rendering shared by every experiment, plus JSON output
//! helpers for EXPERIMENTS.md.

use serde::{Serialize, Value};

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use wp_experiments::TextTable;
///
/// let mut table = TextTable::new(vec!["benchmark", "miss %"]);
/// table.add_row(vec!["gcc".to_string(), format!("{:.1}", 3.3)]);
/// let rendered = table.render();
/// assert!(rendered.contains("gcc"));
/// assert!(rendered.contains("3.3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (short rows are padded with empty cells).
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let format_row = |cells: &[String], widths: &[usize]| -> String {
            let empty = String::new();
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<width$}  "));
            }
            line.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            out.push_str(&format_row(&self.headers, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&format_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Formats a relative quantity with two decimals.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// Serialises any experiment result to pretty JSON (used by the binaries'
/// `--json` flag and by EXPERIMENTS.md regeneration).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

/// [`to_json`] of the tree `build` returns. The tree is built inside
/// [`Serialize::to_value`], so it is rendered without being copied.
pub fn to_json_with(build: impl Fn() -> Value) -> String {
    struct Build<F>(F);
    impl<F: Fn() -> Value> Serialize for Build<F> {
        fn to_value(&self) -> Value {
            (self.0)()
        }
    }
    to_json(&Build(build))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["long-name".into(), "2".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // The value column starts at the same offset in both data rows.
        let offset = lines[2].find('1').expect("value present");
        assert_eq!(lines[3].find('2').expect("value present"), offset);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["x".into()]);
        assert!(t.render().lines().count() >= 3);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.6934), "69.3");
        assert_eq!(ratio(0.3111), "0.31");
    }

    #[test]
    fn json_serialises_structs() {
        #[derive(Serialize)]
        struct S {
            x: u32,
        }
        assert!(to_json(&S { x: 3 }).contains("\"x\": 3"));
    }
}
