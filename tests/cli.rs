//! Degenerate `vdcpower` flags end the run with exit status 1 and a
//! one-line message that names the flag, never with a panic (status 101)
//! or a silent fallback to the default.

use std::process::Command;

/// Run `vdcpower` with `args` and check that it exits 1 with one stderr
/// line naming `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_vdcpower"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("vdcpower starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn largescale_rejects_zero_samples() {
    assert_rejected(&["largescale", "--samples", "0"], "--samples");
}

#[test]
fn a_value_that_does_not_parse_is_an_error_not_the_default() {
    assert_rejected(&["largescale", "--vms", "abc"], "--vms");
}

#[test]
fn a_flag_given_last_without_a_value_is_an_error() {
    assert_rejected(
        &["trace-gen", "--samples", "4", "--out", "t.csv", "--vms"],
        "--vms",
    );
    assert_rejected(
        &["largescale", "--vms", "10", "--samples", "4", "--fleet"],
        "--fleet",
    );
}

#[test]
fn testbed_rejects_zero_periods() {
    assert_rejected(&["testbed", "--apps", "1", "--periods", "0"], "--periods");
}

#[test]
fn testbed_rejects_a_set_point_that_is_not_a_number() {
    let args = [
        "testbed",
        "-q",
        "--apps",
        "1",
        "--periods",
        "1",
        "--setpoint",
        "nan",
    ];
    assert_rejected(&args, "setpoint");
}

#[test]
fn trace_gen_rejects_zero_vms() {
    assert_rejected(&["trace-gen", "--vms", "0"], "--vms");
}
