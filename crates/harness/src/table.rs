//! Plain-text table rendering for the CLI reports.

use std::fmt;

/// A simple left-aligned text table.
///
/// ```
/// use harness::table::Table;
/// let mut t = Table::new(&["algorithm", "RT p50"]);
/// t.row(["A2", "142"]);
/// let s = t.to_string();
/// assert!(s.contains("algorithm"));
/// assert!(s.contains("A2"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: ToString>(headers: &[S]) -> Table {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded with empty cells.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        let mut r: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render as CSV (RFC-4180-style quoting) for downstream plotting.
    ///
    /// ```
    /// use harness::table::Table;
    /// let mut t = Table::new(&["a", "b"]);
    /// t.row(["x,y", "2"]);
    /// assert_eq!(t.to_csv(), "a,b\n\"x,y\",2\n");
    /// ```
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let rendered: Vec<String> = cells.iter().map(|c| cell(c)).collect();
            out.push_str(&rendered.join(","));
            out.push('\n');
        };
        line(&self.headers, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = w[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = w.iter().map(|&n| "-".repeat(n)).collect();
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
    fn csv_quotes_special_cells() {
        let mut t = Table::new(&["name", "value"]);
        t.row(["plain", "1"]);
        t.row(["with \"quotes\"", "2,3"]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "name,value\nplain,1\n\"with \"\"quotes\"\"\",\"2,3\"\n"
        );
    }

    #[test]
    fn columns_align() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(["wide-cell", "x"]);
        t.row(["y"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have the same width.
        assert!(lines
            .windows(2)
            .all(|w| w[0].len() == w[1].len() || w[1].trim_end().len() <= w[0].len()));
        assert!(lines[1].starts_with("---"));
    }
}
