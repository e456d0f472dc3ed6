//! Plain-text report formatting shared by every experiment renderer.
//!
//! They write into a `String` so rendered reports can be both printed
//! and written to `results/*.txt`, and so renderers stay pure functions
//! of cached records (a warm sweep renders every figure without
//! simulating).

use std::fmt::Write;

use ghostwriter_noc::MessageKind;

/// Figure header in the style shared by all reports.
pub fn banner(out: &mut String, fig: &str, caption: &str) {
    let rule = "=".repeat(64);
    let _ = writeln!(out, "{rule}");
    let _ = writeln!(out, "{fig} — {caption}");
    let _ = writeln!(out, "{rule}");
}

/// A fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Appends one row line.
pub fn push_row(out: &mut String, cells: &[String], widths: &[usize]) {
    let _ = writeln!(out, "{}", row(cells, widths));
}

/// The per-class normalized-traffic stack for one run (Fig. 8 bar).
pub fn push_traffic_stack(out: &mut String, label: &str, split: &[(MessageKind, f64)]) {
    let total: f64 = split.iter().map(|(_, v)| v).sum();
    let cols: Vec<String> = split
        .iter()
        .map(|(k, v)| format!("{}={:.3}", k.label(), v))
        .collect();
    let _ = writeln!(out, "  {label:<28} total={total:.3}  [{}]", cols.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting_matches_legacy() {
        assert_eq!(row(&["a".into(), "bb".into()], &[3, 4]), "  a    bb");
    }

    #[test]
    fn banner_shape() {
        let mut s = String::new();
        banner(&mut s, "Figure 1", "cap");
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("Figure 1 — cap"));
    }
}
