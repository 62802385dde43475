//! Degenerate flags, and flags a bin does not read, end the bin with exit
//! status 1 and a one-line message that names the flag, never with a panic
//! (status 101) or a silent fallback to the default.

use std::process::Command;

/// Run `bin` with `args` and check that it exits 1 with one stderr line
/// naming `flag`.
fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
}

#[test]
fn megafleet_rejects_zero_servers() {
    assert_rejected(
        env!("CARGO_BIN_EXE_megafleet"),
        &["--servers", "0"],
        "--servers",
    );
}

#[test]
fn cosim_rejects_zero_apps() {
    assert_rejected(env!("CARGO_BIN_EXE_cosim"), &["--apps", "0"], "--apps");
}

#[test]
fn faults_rejects_zero_apps() {
    assert_rejected(env!("CARGO_BIN_EXE_faults"), &["--apps", "0"], "--apps");
}

#[test]
fn controllers_rejects_zero_apps() {
    assert_rejected(
        env!("CARGO_BIN_EXE_controllers"),
        &["--apps", "0"],
        "--apps",
    );
}

#[test]
fn a_value_that_does_not_parse_is_an_error_not_the_default() {
    assert_rejected(env!("CARGO_BIN_EXE_megafleet"), &["--vms", "abc"], "--vms");
}

#[test]
fn a_flag_given_last_without_a_value_is_an_error() {
    assert_rejected(
        env!("CARGO_BIN_EXE_megafleet"),
        &["--servers", "10", "--out"],
        "--out",
    );
}

/// Run `bin` with a flag it does not read after one it does.
fn assert_rejects_an_unknown_flag(bin: &str) {
    assert_rejected(bin, &["--seed", "1", "--bogus"], "--bogus");
}

#[test]
fn ablation_dvfs_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_ablation_dvfs"));
}

#[test]
fn churn_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_churn"));
}

#[test]
fn controllers_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_controllers"));
}

#[test]
fn cosim_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_cosim"));
}

#[test]
fn faults_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_faults"));
}

#[test]
fn fig2_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn fig3_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_fig3"));
}

#[test]
fn fig4_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_fig4"));
}

#[test]
fn fig5_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn fig6_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_fig6"));
}

#[test]
fn megafleet_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_megafleet"));
}

#[test]
fn week_profile_rejects_a_flag_it_does_not_read() {
    assert_rejects_an_unknown_flag(env!("CARGO_BIN_EXE_week_profile"));
}
