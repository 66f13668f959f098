//! Plain-text table formatting for the experiment binaries.

/// Renders a simple aligned table: one header row, then data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>w$}", c, w = widths[i]));
        }
        out.push('\n');
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    line(&hdr, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

/// Formats a microsecond value for table cells.
pub fn us(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a seconds value for table cells.
pub fn secs(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a megabytes-per-second value.
pub fn mbps(bytes: f64, seconds: f64) -> String {
    format!("{:.1}", bytes / seconds / 1e6)
}

/// What a `--check` run compared: how many measured rows found their
/// baseline row, and one message per regression among them (or per
/// same-run check that failed).
#[derive(Debug, Default)]
pub struct Gate {
    /// Measured rows that found a baseline row with their key.
    pub matched: usize,
    /// One message per regression.
    pub failures: Vec<String>,
}

impl Gate {
    /// The run's verdict against the baseline at `path`: the line to print
    /// on success, or the lines to report on failure. A run in which no
    /// measured row matched a baseline row fails: a gate that compared
    /// nothing has passed nothing.
    pub fn verdict(&self, path: &str, tolerance: f64) -> Result<String, Vec<String>> {
        if self.matched == 0 {
            return Err(vec![format!(
                "regression check vs {path}: no measured row matched a baseline row"
            )]);
        }
        if !self.failures.is_empty() {
            return Err(self
                .failures
                .iter()
                .map(|f| format!("REGRESSION: {f}"))
                .collect());
        }
        Ok(format!(
            "regression check vs {path}: OK ({} matched scenarios, tolerance {:.0} %)",
            self.matched,
            tolerance * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_that_matched_nothing_fails() {
        let nothing = Gate::default();
        assert!(nothing.verdict("B.json", 0.25).is_err());
        let clean = Gate {
            matched: 3,
            failures: Vec::new(),
        };
        let ok = clean.verdict("B.json", 0.25).unwrap();
        assert!(ok.contains("OK (3 matched scenarios"), "{ok}");
        let regressed = Gate {
            matched: 3,
            failures: vec!["slow".to_owned()],
        };
        assert_eq!(
            regressed.verdict("B.json", 0.25).unwrap_err(),
            ["REGRESSION: slow"]
        );
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["size", "time"],
            &[
                vec!["0".into(), "83.0".into()],
                vec!["100000".into(), "156.2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size") && lines[0].contains("time"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric columns line up.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(us(83.04), "83.0");
        assert_eq!(secs(104.949), "104.95");
        assert_eq!(mbps(36_000_000.0, 1.0), "36.0");
    }
}
