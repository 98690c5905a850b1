//! # bench — the figure/table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig2_hbm_channel` | Fig. 2 — single-channel HBM throughput vs request size, two clock configs |
//! | `table1_resources` | Table I — resource utilization, this work vs prior work \[8\] |
//! | `fig4_scaling` | Fig. 4 — samples/s vs PE count, with/without host transfers |
//! | `fig5_scaling_potential` | Fig. 5 — required memory throughput vs HBM limits |
//! | `fig6_end_to_end` | Fig. 6 — end-to-end rates across platforms + §V-D speedups |
//! | `pcie_outlook` | §V-C — the PCIe 3.0→6.0 outlook |
//!
//! Each binary prints an aligned text table (with paper-reported values
//! side by side where the paper states them) and writes a JSON record
//! under `results/` for EXPERIMENTS.md bookkeeping.
//!
//! [`baselines`] holds Fig. 6's comparison platforms (the measured CPU
//! baseline and the calibrated Xeon / V100 / F1 models). Nothing here
//! gates performance: what a request costs is measured by the repo
//! benchmark (`BENCHMARK.json`, `benchmark/`), scaling shape is asserted
//! by `cargo test` (`tests/figure_shapes.rs`, `system_tests::assert_scales`).

pub mod baselines;

use serde::Serialize;
use std::path::PathBuf;

/// Write a JSON result record under `results/<name>.json`.
///
/// Failures to write are reported but non-fatal: the printed table is
/// the primary output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("note: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[written {}]", path.display());
            }
        }
        Err(e) => eprintln!("note: cannot serialize {name}: {e}"),
    }
}

/// A simple fixed-width table printer for terminal reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a samples/s rate as `xxx.xM`.
pub fn fmt_rate(r: f64) -> String {
    format!("{:.1}M", r / 1e6)
}

/// Format a ratio as `x.xx×`.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_rate(133_139_305.0), "133.1M");
        assert_eq!(fmt_speedup(1.294), "1.29x");
    }
}
