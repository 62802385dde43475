//! `vdcbench compare BASE.json HEAD.json`: per workload and end-to-end
//! metric, both medians and quartiles, the bound, and a verdict.

use crate::stats::{median, quartiles, verdict, Verdict};
use vdc_dcsim::json::JsonValue;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base samples.
    pub base: Vec<f64>,
    /// Head samples.
    pub head: Vec<f64>,
    /// Allowed worsening, as a share of base's median.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Object(f) => f,
        _ => &[],
    }
}

fn samples(metric: &JsonValue) -> Result<Vec<f64>, String> {
    metric
        .get("values")
        .and_then(JsonValue::as_array)
        .ok_or("a metric has no values")?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| "a value is not a number".to_string())
        })
        .collect()
}

/// What two result documents differ in.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload and end-to-end metric both documents have.
    pub rows: Vec<Row>,
    /// Workloads whose simulated result (the digest) differs although both
    /// documents ran the same seed at the same size.
    pub simulation_changed: Vec<String>,
}

/// Compare two result documents (`vdcbench --out` files). Workloads and
/// metrics missing from either side are skipped; a metric without samples
/// on either side is unresolved.
pub fn compare(base: &str, head: &str) -> Result<Comparison, String> {
    let base = JsonValue::parse(base).map_err(|e| format!("base: {e}"))?;
    let head = JsonValue::parse(head).map_err(|e| format!("head: {e}"))?;
    let workloads = |doc: &JsonValue| doc.get("workloads").cloned();
    let (bw, hw) = match (workloads(&base), workloads(&head)) {
        (Some(b), Some(h)) => (b, h),
        _ => return Err("both documents need a workloads object".into()),
    };
    let same_inputs = ["seed", "smoke"]
        .iter()
        .all(|k| base.get(k).is_some() && base.get(k) == head.get(k));
    let mut rows = Vec::new();
    let mut simulation_changed = Vec::new();
    for (name, hw) in fields(&hw) {
        let Some(bw) = bw.get(name) else { continue };
        let digest = |w: &JsonValue| {
            w.get("digest")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        if let (true, Some(b), Some(h)) = (same_inputs, digest(bw), digest(hw)) {
            if b != h {
                simulation_changed.push(format!("{name}: digest {b} -> {h}"));
            }
        }
        let (Some(be), Some(he)) = (bw.get("end_to_end"), hw.get("end_to_end")) else {
            continue;
        };
        for (metric, bm) in fields(be) {
            let Some(hm) = he.get(metric) else { continue };
            let bound = bm
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name}.{metric} has no bound"))?;
            let lower_is_better = bm.get("better").and_then(JsonValue::as_str) != Some("higher");
            let (b, h) = (samples(bm)?, samples(hm)?);
            let verdict = if b.is_empty() || h.is_empty() {
                Verdict::Unresolved
            } else {
                verdict(&b, &h, bound, lower_is_better)
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                base: b,
                head: h,
                bound,
                verdict,
            });
        }
    }
    Ok(Comparison {
        rows,
        simulation_changed,
    })
}

fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return "no samples".into();
    }
    let (q1, q3) = quartiles(values);
    format!("{:.4} [{q1:.4}, {q3:.4}]", median(values))
}

/// The compare table, one row per workload and metric, then any change of
/// the simulated results.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<14} {:<14} {:>30} {:>30} {:>7}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "bound"
    );
    for r in &c.rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:>30} {:>30} {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            summary(&r.base),
            summary(&r.head),
            100.0 * r.bound,
            r.verdict.name()
        ));
    }
    for line in &c.simulation_changed {
        out.push_str(&format!("simulated result changed: {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: &[f64], energy: &[f64]) -> String {
        doc_with_digest(wall, energy, "00ff")
    }

    fn doc_with_digest(wall: &[f64], energy: &[f64], digest: &str) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            r#"{{"seed":1,"smoke":false,"workloads":{{"paper_week":{{"digest":"{}","end_to_end":{{
                "wall_s":{{"unit":"s","better":"lower","bound":0.1,"values":[{}]}},
                "energy_kwh":{{"unit":"kWh","better":"lower","bound":0.0,"values":[{}]}}}}}}}}}}"#,
            digest,
            list(wall),
            list(energy)
        )
    }

    fn verdicts(base: &str, head: &str) -> Vec<(String, Verdict)> {
        compare(base, head)
            .expect("documents parse")
            .rows
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn verdicts_per_metric() {
        let base = doc(&[10.0, 10.1, 10.2, 10.1, 10.0], &[5.0; 5]);
        let faster = doc(&[8.0, 8.1, 8.2, 8.1, 8.0], &[5.0; 5]);
        assert_eq!(
            verdicts(&base, &faster),
            vec![
                ("wall_s".to_string(), Verdict::Improved),
                ("energy_kwh".to_string(), Verdict::Unchanged)
            ]
        );
        let more_energy = doc(&[10.0, 10.1, 10.2, 10.1, 10.0], &[5.01; 5]);
        assert_eq!(verdicts(&base, &more_energy)[1].1, Verdict::Regressed);
        let noisy = doc(&[7.0, 13.0, 10.0, 8.0, 12.0], &[5.0; 5]);
        assert_eq!(verdicts(&base, &noisy)[0].1, Verdict::Unresolved);
    }

    #[test]
    fn table_names_every_row() {
        let base = doc(&[1.0, 1.0], &[2.0, 2.0]);
        let c = compare(&base, &base).expect("documents parse");
        let table = render(&c);
        assert!(table.contains("paper_week"));
        assert!(table.contains("energy_kwh"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn a_changed_digest_on_the_same_seed_is_reported() {
        let base = doc_with_digest(&[1.0], &[2.0], "00ff");
        let head = doc_with_digest(&[1.0], &[2.0], "0100");
        let c = compare(&base, &head).expect("documents parse");
        assert_eq!(
            c.simulation_changed,
            vec!["paper_week: digest 00ff -> 0100"]
        );
        assert!(render(&c).contains("simulated result changed"));
        // Another seed simulates something else: no claim is made.
        let other_seed = head.replacen("\"seed\":1", "\"seed\":2", 1);
        let c = compare(&base, &other_seed).expect("documents parse");
        assert!(c.simulation_changed.is_empty());
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(compare("{", "{}").is_err());
        assert!(compare("{}", "{}").is_err());
    }
}
