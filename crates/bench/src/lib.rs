//! Shared helpers for the figure-regeneration binaries.
//!
//! Each `fig*` binary (see `src/bin/`) reproduces one figure of the paper's
//! evaluation section and prints the corresponding rows/series; this crate
//! holds the formatting and argument plumbing they share. The benches under
//! `benches/` measure the algorithmic costs (MPC solve time, Minimum Slack
//! vs FFD, PAC/IPAC/pMapper scaling) with the std-only [`harness`].

pub mod harness;

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

/// Parse `--flag value`-style overrides from argv, returning the value.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a numeric flag, or `default` when the flag is absent. A value
/// that does not parse ends the run through [`exit_with`]; it never falls
/// back to the default.
pub fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| exit_with(&format!("invalid value {v:?} for {flag}"))),
    }
}

/// Parse a count flag that sizes a run (VMs, servers, apps, samples,
/// days) like [`arg_num`], and end the run if it is 0.
pub fn arg_count(args: &[String], flag: &str, default: usize) -> usize {
    let n = arg_num(args, flag, default);
    if n == 0 {
        exit_with(&format!("{flag} must be at least 1"));
    }
    n
}

/// Print `msg` to stderr and exit with status 1: how a bin ends on a bad
/// flag or a failed run, instead of panicking.
pub fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// `true` when `--flag` is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--seed", "42", "--full"]);
        assert_eq!(arg_value(&a, "--seed").as_deref(), Some("42"));
        assert_eq!(arg_num(&a, "--seed", 7u64), 42);
        assert_eq!(arg_num(&a, "--missing", 7u64), 7);
        assert!(arg_present(&a, "--full"));
        assert!(!arg_present(&a, "--quick"));
        // Flag at the end without a value.
        let b = args(&["--seed"]);
        assert_eq!(arg_value(&b, "--seed"), None);
    }
}
