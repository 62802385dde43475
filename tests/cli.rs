//! Degenerate `vdcpower` flags, flags a command does not read, and
//! malformed trace files end the run with exit status 1 and a one-line
//! message that names the flag or the parse failure, never with a panic
//! (status 101) or a silent fallback to the default.

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

#[test]
fn trace_info_rejects_a_sample_or_interval_that_is_not_finite() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("trace_info_not_finite.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_vdcpower"))
        .args(["trace-gen", "--vms", "2", "--samples", "4", "--out"])
        .arg(&path)
        .output()
        .expect("vdcpower starts");
    assert!(out.status.success(), "{out:?}");
    let csv = std::fs::read_to_string(&path).expect("trace-gen wrote the file");
    let (header, rows) = csv.split_once('\n').expect("a header line");
    let (rows, last_sample) = rows.trim_end().rsplit_once(',').expect("a sample");
    assert!(last_sample.parse::<f64>().is_ok(), "{last_sample}");
    let interval = header.rsplit_once("interval_s=").expect("interval_s").0;
    for edited in [
        format!("{header}\n{rows},NaN\n"),
        format!("{interval}interval_s=NaN\n{rows},{last_sample}\n"),
    ] {
        std::fs::write(&path, edited).expect("rewrite the trace");
        assert_rejected(
            &["trace-info", "--in", path.to_str().unwrap()],
            "parse failed",
        );
    }
}

#[test]
fn largescale_rejects_a_misspelled_flag() {
    let args = ["largescale", "--vms", "5", "--sampels", "4", "-q"];
    assert_rejected(&args, "--sampels");
}

#[test]
fn identify_rejects_a_flag_it_does_not_read() {
    assert_rejected(&["identify", "--seed", "1", "--vms", "5"], "--vms");
}

#[test]
fn testbed_rejects_a_flag_it_does_not_read() {
    assert_rejected(&["testbed", "--apps", "1", "--shards", "2"], "--shards");
}

#[test]
fn trace_gen_rejects_a_flag_it_does_not_read() {
    assert_rejected(&["trace-gen", "--out", "t.csv", "--in", "t.csv"], "--in");
}

#[test]
fn trace_info_rejects_a_flag_it_does_not_read() {
    assert_rejected(&["trace-info", "--in", "t.csv", "--seed", "3"], "--seed");
}
