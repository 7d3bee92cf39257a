//! The experiment harness: one module per experiment from DESIGN.md's
//! per-experiment index (E1–E17), each regenerating the table/series for the
//! corresponding figure or claim of the paper.
//!
//! Run everything with `cargo run --release -p dfv-bench --bin experiments`
//! (or pass experiment ids, e.g. `-- e1 e3`). The `bench` binary runs the
//! deterministic-counter benchmark sweeps: the simulators (`bench sim`),
//! the SAT-sweeping miter front-end (`bench sec`) and the CDCL solver on
//! its own (`bench sat`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod models;
pub mod satbench;
pub mod secbench;
pub mod simbench;

/// Renders a simple aligned table: a header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}
