//! Minimal text-table rendering for experiment output.

use core::fmt;

/// A simple left-aligned text table.
///
/// # Examples
///
/// ```
/// use qz_bench::Table;
///
/// let mut t = Table::new(vec!["system", "discarded"]);
/// t.row(vec!["QZ".into(), "12".into()]);
/// t.row(vec!["NA".into(), "51".into()]);
/// let s = t.to_string();
/// assert!(s.contains("QZ"));
/// assert!(s.contains("51"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column set.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, width) in w.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Renders the standard per-system results table most figures
/// print: interesting-input accounting plus the radio-report split.
pub fn standard_table(rows: &[crate::figures::ResultRow]) -> Table {
    let mut t = Table::new(vec![
        "environment",
        "system",
        "interesting",
        "discarded",
        "disc%",
        "ibo",
        "false-neg",
        "rep-high",
        "rep-low",
        "hi-q%",
        "off%",
    ]);
    for r in rows {
        let m = &r.metrics;
        t.row(vec![
            r.environment.clone(),
            r.system.clone(),
            m.interesting_total.to_string(),
            m.interesting_discarded().to_string(),
            pct(m.interesting_discarded_fraction()),
            m.ibo_interesting.to_string(),
            m.false_negatives.to_string(),
            m.reports_interesting_high.to_string(),
            m.reports_interesting_low.to_string(),
            pct(m.high_quality_fraction()),
            pct(m.off_fraction()),
        ]);
    }
    t
}

/// Prints "QZ discards N× fewer interesting inputs than <base>" lines for
/// every environment present in `rows`, comparing against the system
/// labeled `qz`.
pub fn improvement_lines(rows: &[crate::figures::ResultRow], qz: &str, base: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut envs: Vec<&str> = rows.iter().map(|r| r.environment.as_str()).collect();
    envs.dedup();
    for env in envs {
        let find = |sys: &str| {
            rows.iter()
                .find(|r| r.environment == env && r.system == sys)
                .map(|r| &r.metrics)
        };
        if let (Some(q), Some(b)) = (find(qz), find(base)) {
            lines.push(format!(
                "  {env}: {qz} discards {} fewer interesting inputs than {base} \
                 ({} vs {}); IBO-only reduction {}",
                ratio(b.interesting_discarded(), q.interesting_discarded()),
                q.interesting_discarded(),
                b.interesting_discarded(),
                ratio(b.ibo_interesting, q.ibo_interesting),
            ));
        }
    }
    lines
}

/// Formats a ratio like the paper's "4.2×" improvements; `∞` when the
/// denominator is zero.
pub fn ratio(numerator: u64, denominator: u64) -> String {
    if denominator == 0 {
        if numerator == 0 {
            "1.0x".into()
        } else {
            "inf".into()
        }
    } else {
        format!("{:.1}x", numerator as f64 / denominator as f64)
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.to_string();
        assert!(s.contains('1'));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(42, 10), "4.2x");
        assert_eq!(ratio(0, 0), "1.0x");
        assert_eq!(ratio(5, 0), "inf");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.423), "42.3%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
