//! Runs the benchmark binary at smoke size and holds its output to the
//! metric lists of `BENCHMARK.json` at the repository root.

use std::collections::BTreeSet;
use std::process::Command;
use vdc_dcsim::json::JsonValue;
use vdcbench::metrics::{END_TO_END, PER_LAYER};

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

/// `name -> unit` of one metric list of BENCHMARK.json.
fn declared(key: &str) -> BTreeSet<(String, String)> {
    entries(&spec(), key)
        .iter()
        .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
        .collect()
}

/// `name -> unit` of a `{name: {value, unit}}` metrics object.
fn emitted(metrics: &JsonValue) -> BTreeSet<(String, String)> {
    let JsonValue::Object(fields) = metrics else {
        panic!("metrics is not an object: {metrics:?}");
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            (name.clone(), field(m, "unit").to_string())
        })
        .collect()
}

/// Run the binary and parse the last line of its standard output.
fn run(args: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_vdcbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"))
}

#[test]
fn code_tables_match_benchmark_json() {
    let spec = spec();
    let e2e = entries(&spec, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), "lower");
        assert_eq!(
            entry.get("bound").and_then(JsonValue::as_f64),
            Some(m.bound)
        );
    }
    let layers = entries(&spec, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!((field(entry, "name"), field(entry, "unit")), (name, unit));
    }
    let workloads: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = vdcbench::workload::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, ours);
}

#[test]
fn one_smoke_invocation_emits_every_declared_metric_for_every_workload() {
    let out = format!("{}/smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let doc = run(&["--smoke", "--seconds", "1", "--seed", "3", "--out", &out]);
    assert_eq!(
        JsonValue::parse(&std::fs::read_to_string(&out).expect("--out wrote a file"))
            .expect("the written document parses"),
        doc,
        "--out holds the document of the last line"
    );
    // A document compared with itself has nothing regressed.
    let cmp = Command::new(env!("CARGO_BIN_EXE_vdcbench"))
        .args(["compare", &out, &out])
        .output()
        .expect("the benchmark binary starts");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("0 regressed"), "{table}");
    let workloads = doc.get("workloads").expect("a workloads object");
    for w in entries(&spec(), "workloads") {
        let name = field(w, "name");
        let result = workloads
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from the run"));
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{name}: {result:?}"
        );
        let e2e: BTreeSet<String> = match result.get("end_to_end") {
            Some(JsonValue::Object(f)) => f.iter().map(|(n, _)| n.clone()).collect(),
            other => panic!("{name}: end_to_end is {other:?}"),
        };
        let want: BTreeSet<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, want, "{name}");
        assert_eq!(
            emitted(result.get("per_layer").expect("per_layer")),
            declared("per_layer"),
            "{name}"
        );
    }
}

#[test]
fn result_line_carries_exactly_one_metric_set() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(&[
            "--workload",
            "churn_storm",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert_eq!(
            line.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{line:?}"
        );
        let attempted = line.get("attempted").and_then(JsonValue::as_f64);
        assert!(attempted.is_some_and(|a| a >= 1.0), "{line:?}");
        assert_eq!(line.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(
            emitted(line.get("metrics").expect("metrics")),
            declared(key),
            "--trace {trace}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"][..],
        &["--seconds", "0"][..],
        &["--frobnicate"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vdcbench"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
