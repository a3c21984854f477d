//! Plain-text reporting: aligned tables on stdout (the rows/series the
//! paper's tables and figures show) plus machine-readable CSV blocks.

/// An experiment report: header + rows, printable as an aligned table
/// or CSV, with the free-text lines that frame it on stdout.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    preface: Option<String>,
    note: Option<String>,
}

impl Report {
    /// Start a report with the figure/table title and its column
    /// names, comma-separated as the CSV block prints them.
    pub fn new(title: impl Into<String>, columns: &str) -> Self {
        Self {
            title: title.into(),
            columns: columns.split(',').map(str::to_string).collect(),
            ..Self::default()
        }
    }

    /// The line printed (with a blank one after it) above the table:
    /// what was run, at what scale.
    pub fn preface(mut self, line: impl Into<String>) -> Self {
        self.preface = Some(line.into());
        self
    }

    /// The line printed below the CSV block: a summary statistic or
    /// the paper's number the table is held against.
    pub fn note(&mut self, line: impl Into<String>) {
        self.note = Some(line.into());
    }

    /// Append one row; must match the column count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", cell, w = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (comma-separated, no quoting — cells are numeric
    /// or simple labels).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Print the report (its [`Display`](std::fmt::Display) form) on
    /// stdout.
    pub fn print(&self) {
        print!("{self}");
    }
}

/// The preface, the table and, under a marker line, the CSV block,
/// then the note: what `figures <id>` prints and the goldens hold.
impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(preface) = &self.preface {
            writeln!(f, "{preface}\n")?;
        }
        writeln!(f, "{}", self.to_table())?;
        writeln!(f, "--- csv: {} ---", self.title)?;
        writeln!(f, "{}", self.to_csv())?;
        if let Some(note) = &self.note {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

/// Format a float with engineering-friendly precision.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format an fpp the way the paper labels its x-axes (`1e-3`).
pub fn fmt_fpp(fpp: f64) -> String {
    if fpp >= 0.01 {
        format!("{fpp}")
    } else {
        format!("{fpp:.0e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_csv_round_trips() {
        let mut r = Report::new("Table X", "fpp,pages");
        r.row(&["0.2".into(), "406".into()]);
        r.row(&["1e-15".into(), "8565".into()]);
        let t = r.to_table();
        assert!(t.contains("Table X"));
        assert!(t.contains("8565"));
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("fpp,pages"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut r = Report::new("t", "a,b");
        r.row(&["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(123.4), "123");
        assert_eq!(fmt_f(1.5), "1.50");
        assert_eq!(fmt_f(0.123456), "0.1235");
        assert_eq!(fmt_fpp(0.2), "0.2");
        assert_eq!(fmt_fpp(1.8e-3), "2e-3");
        assert_eq!(fmt_fpp(1e-15), "1e-15");
    }
}
