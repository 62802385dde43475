//! Exporters: render a [`Telemetry`] handle's state as the
//! `results/METRICS_<run>.json` / `.tsv` documents.
//!
//! The JSON is emitted through the workspace's hand-rolled writer
//! (`vdc_dcsim::json`), same as `results/BENCH_*.json`, so downstream
//! tooling reads one dialect. The TSV is a flat
//! `kind<TAB>name<TAB>field<TAB>value` table for spreadsheet/awk use.
//! Schema id: `vdc-metrics/1`.
//!
//! This shape is a CI contract: `tools/results_gate` re-parses these
//! documents against the committed `results/` baselines on every run and
//! hard-fails on schema drift, so a change here must come with a schema
//! bump and a `results_gate --bless`.

use crate::Telemetry;
use vdc_dcsim::json::{array, num, JsonObject};

/// Schema identifier stamped into every metrics document.
pub const SCHEMA: &str = "vdc-metrics/1";

/// Render the metrics document as JSON.
///
/// Metric order is deterministic (sorted by name; SLO entries by app id),
/// so same-seed runs produce byte-identical documents up to timing values.
pub fn render_json(t: &Telemetry, run: &str) -> String {
    let mut counters = JsonObject::new();
    for (name, v) in t.counter_values() {
        counters = counters.int(&name, v as i64);
    }
    let mut gauges = JsonObject::new();
    for (name, v) in t.gauge_values() {
        gauges = gauges.num(&name, v);
    }
    let histograms: Vec<String> = t
        .histogram_summaries()
        .iter()
        .map(|h| {
            JsonObject::new()
                .str("name", &h.name)
                .int("count", h.count as i64)
                .num("min", h.min)
                .num("max", h.max)
                .num("mean", h.mean)
                .num("p50", h.p50)
                .num("p90", h.p90)
                .num("p99", h.p99)
                .build()
        })
        .collect();
    let slo: Vec<String> = t
        .slo_snapshot()
        .iter()
        .map(|e| {
            JsonObject::new()
                .int("app", e.app as i64)
                .num("setpoint_ms", e.setpoint_ms)
                .int("samples", e.samples as i64)
                .num("mean_ms", e.mean_ms)
                .num("p50_ms", e.p50_ms)
                .num("p90_ms", e.p90_ms)
                .num("p99_ms", e.p99_ms)
                .int("violations", e.violations as i64)
                .num("violation_fraction", e.violation_fraction)
                .num("time_in_violation_s", e.time_in_violation_s)
                .num("observed_s", e.observed_s)
                .int(
                    "longest_violation_window",
                    e.longest_violation_window as i64,
                )
                .build()
        })
        .collect();
    JsonObject::new()
        .str("schema", SCHEMA)
        .str("run", run)
        .raw("counters", &counters.build())
        .raw("gauges", &gauges.build())
        .raw("histograms", &array(&histograms))
        .raw("slo", &array(&slo))
        .build()
}

/// Render the metrics document as TSV (`kind name field value` columns).
pub(crate) fn render_tsv(t: &Telemetry, run: &str) -> String {
    let mut out = String::from("kind\tname\tfield\tvalue\n");
    let mut push = |kind: &str, name: &str, field: &str, value: &str| {
        out.push_str(&format!("{kind}\t{name}\t{field}\t{value}\n"));
    };
    push("meta", run, "schema", SCHEMA);
    for (name, v) in t.counter_values() {
        push("counter", &name, "value", &v.to_string());
    }
    for (name, v) in t.gauge_values() {
        push("gauge", &name, "value", &num(v));
    }
    for h in t.histogram_summaries() {
        push("histogram", &h.name, "count", &h.count.to_string());
        for (field, v) in [
            ("min", h.min),
            ("max", h.max),
            ("mean", h.mean),
            ("p50", h.p50),
            ("p90", h.p90),
            ("p99", h.p99),
        ] {
            push("histogram", &h.name, field, &num(v));
        }
    }
    for e in t.slo_snapshot() {
        let name = format!("app{}", e.app);
        push("slo", &name, "setpoint_ms", &num(e.setpoint_ms));
        push("slo", &name, "samples", &e.samples.to_string());
        push("slo", &name, "p90_ms", &num(e.p90_ms));
        push("slo", &name, "violations", &e.violations.to_string());
        push(
            "slo",
            &name,
            "violation_fraction",
            &num(e.violation_fraction),
        );
        push(
            "slo",
            &name,
            "time_in_violation_s",
            &num(e.time_in_violation_s),
        );
        push(
            "slo",
            &name,
            "longest_violation_window",
            &e.longest_violation_window.to_string(),
        );
    }
    out
}

/// Write `METRICS_<run>.json` and `METRICS_<run>.tsv` under `out_dir`
/// (created if missing). Returns the JSON path.
pub fn write_metrics(t: &Telemetry, run: &str, out_dir: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let json_path = format!("{out_dir}/METRICS_{run}.json");
    std::fs::write(&json_path, render_json(t, run) + "\n")?;
    let tsv_path = format!("{out_dir}/METRICS_{run}.tsv");
    std::fs::write(&tsv_path, render_tsv(t, run))?;
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Telemetry {
        let t = Telemetry::enabled();
        t.incr("mpc.steps", 12);
        t.gauge_set("cosim.total_energy_wh", 345.5);
        t.record("mpc.qp_solve_ns", 1500.0);
        t.record("mpc.qp_solve_ns", 2500.0);
        t.slo_observe(0, 1000.0, 900.0, 4.0);
        t.slo_observe(0, 1000.0, 1100.0, 4.0);
        t
    }

    #[test]
    fn json_document_contains_all_sections() {
        let doc = render_json(&populated(), "unit");
        for key in [
            "\"schema\":\"vdc-metrics/1\"",
            "\"run\":\"unit\"",
            "\"counters\":{\"mpc.steps\":12}",
            "\"cosim.total_energy_wh\":345.5",
            "\"name\":\"mpc.qp_solve_ns\"",
            "\"p90\":",
            "\"slo\":[{\"app\":0",
            "\"violations\":1",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn disabled_handle_renders_empty_document() {
        let doc = render_json(&Telemetry::disabled(), "empty");
        assert!(doc.contains("\"counters\":{}"));
        assert!(doc.contains("\"histograms\":[]"));
        assert!(doc.contains("\"slo\":[]"));
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let tsv = render_tsv(&populated(), "unit");
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("kind\tname\tfield\tvalue"));
        assert!(tsv.contains("counter\tmpc.steps\tvalue\t12"));
        assert!(tsv.contains("gauge\tcosim.total_energy_wh\tvalue\t345.5"));
        assert!(tsv.contains("histogram\tmpc.qp_solve_ns\tcount\t2"));
        assert!(tsv.contains("slo\tapp0\tviolations\t1"));
        // Every row has exactly four tab-separated columns.
        for line in tsv.lines() {
            assert_eq!(line.split('\t').count(), 4, "bad row {line:?}");
        }
    }

    #[test]
    fn metrics_document_round_trips_through_the_workspace_parser() {
        use vdc_dcsim::json::JsonValue;
        let t = populated();
        let doc = render_json(&t, "roundtrip");
        let v = JsonValue::parse(&doc).expect("emitted document parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(v.get("run").unwrap().as_str(), Some("roundtrip"));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("mpc.steps")
                .unwrap()
                .as_f64(),
            Some(12.0)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("cosim.total_energy_wh")
                .unwrap()
                .as_f64(),
            Some(345.5)
        );
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        let h = &hists[0];
        assert_eq!(h.get("name").unwrap().as_str(), Some("mpc.qp_solve_ns"));
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
        let slo = v.get("slo").unwrap().as_array().unwrap();
        assert_eq!(slo.len(), 1);
        assert_eq!(slo[0].get("violations").unwrap().as_f64(), Some(1.0));
        // The parsed summary values match the in-memory snapshot exactly.
        let summary = &t.histogram_summaries()[0];
        assert_eq!(h.get("p90").unwrap().as_f64(), Some(summary.p90));
        assert_eq!(h.get("mean").unwrap().as_f64(), Some(summary.mean));
    }

    #[test]
    fn non_finite_observations_keep_the_document_parseable() {
        use vdc_dcsim::json::JsonValue;
        // NaN samples and non-finite gauges must never leak bare NaN/inf
        // tokens into the document — they render as null (a JSON number
        // cannot be non-finite).
        let t = Telemetry::enabled();
        t.record("edge.hist_ns", f64::NAN);
        t.gauge_set("edge.gauge", f64::INFINITY);
        let doc = render_json(&t, "edge");
        let v = JsonValue::parse(&doc).expect("document parses");
        for token in ["NaN", "inf"] {
            assert!(!doc.contains(token), "{token} leaked: {doc}");
        }
        assert_eq!(
            v.get("gauges").unwrap().get("edge.gauge"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn write_metrics_creates_both_files() {
        let dir = std::env::temp_dir().join("vdc-telemetry-export-test");
        let dir_s = dir.to_str().unwrap();
        let json_path = write_metrics(&populated(), "selftest", dir_s).unwrap();
        assert!(json_path.ends_with("METRICS_selftest.json"));
        let body = std::fs::read_to_string(&json_path).unwrap();
        assert!(body.ends_with("}\n"));
        let tsv = std::fs::read_to_string(dir.join("METRICS_selftest.tsv")).unwrap();
        assert!(tsv.starts_with("kind\t"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
