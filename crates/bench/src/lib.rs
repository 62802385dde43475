//! Shared helpers for the figure-regeneration binaries.
//!
//! Each `fig*` binary (see `src/bin/`) reproduces one figure of the paper's
//! evaluation section and prints the corresponding rows/series; this crate
//! holds the formatting they share (flag parsing is `vdc_telemetry`'s
//! `arg_*` family, shared with `vdcpower`).

/// Print a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print a standard figure header with reproduction context.
pub fn figure_header(figure: &str, description: &str) {
    rule(78);
    println!("{figure}: {description}");
    println!(
        "(reproduction of Wang & Wang, ICPP 2010 — simulated substrate; compare shapes,\n \
         not absolute values; see EXPERIMENTS.md)"
    );
    rule(78);
}
