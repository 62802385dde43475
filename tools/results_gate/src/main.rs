//! `results_gate` — the CI results-regression gate.
//!
//! Compares freshly regenerated `METRICS_*.json` / `BENCH_*.json` documents
//! against the baselines committed under `results/`:
//!
//! * **schema drift is a hard failure** — every metrics document must carry
//!   `schema: "vdc-metrics/1"` and exactly the six top-level keys that
//!   schema defines; histograms must carry exactly the eight stat keys the
//!   exporter writes;
//! * **deterministic values must match** — counters, SLO accounting, and
//!   histogram sample counts compare exactly; power/energy gauges and
//!   histogram statistics compare within a relative tolerance;
//! * **wall-clock noise is ignored** — statistics of `*_ns` histograms and
//!   the timing fields of `BENCH_*.json` records vary run to run, so only
//!   their shape (names, sample counts) is gated.
//!
//! On mismatch the gate prints one line per moved value plus a unified diff
//! of the canonicalized documents (wall-clock fields masked) and exits
//! non-zero. `--bless` copies over its baseline, with its `.tsv`, each
//! fresh document in which the gate finds a problem or that has no
//! baseline yet, for intentional result changes; the baselines of the
//! others stay byte-identical.
//!
//! ```text
//! results_gate --baseline results --fresh target/results-gate/results [--bless]
//! ```

use std::process::ExitCode;
use vdc_dcsim::json::JsonValue;

/// Relative tolerance for float comparisons (power, energy, slack).
/// Reruns are bit-identical on one host; the slack absorbs libm drift
/// across toolchains, not real regressions.
const DEFAULT_TOL: f64 = 1e-9;

/// Exact set of top-level keys of a `vdc-metrics/1` document.
const METRICS_KEYS: [&str; 6] = ["schema", "run", "counters", "gauges", "histograms", "slo"];

/// Exact set of keys of one exported histogram entry.
const HISTOGRAM_KEYS: [&str; 8] = ["name", "count", "min", "max", "mean", "p50", "p90", "p99"];

/// Exact set of top-level keys of a `BENCH_*.json` document.
const BENCH_KEYS: [&str; 3] = ["bench", "samples", "results"];

/// Timing fields of a bench record — wall-clock, never gated on value.
/// Peak-RSS samples ride along: like wall-clock they are host-dependent
/// measurements (allocator, page size, concurrent load), so the gate
/// checks their presence, not their value — the hard RSS *budget* is
/// enforced by the bench bin itself, which exits non-zero on overshoot.
const BENCH_TIMING_KEYS: [&str; 8] = [
    "median_ns",
    "min_ns",
    "mean_ns",
    "max_ns",
    "iters_per_sample",
    "sample_ns",
    "peak_rss_kib",
    "rss_budget_kib",
];

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true; // covers exact zeros and infinities of equal sign
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

fn keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Is this histogram (or gauge) wall-clock timing data? Peak-RSS samples
/// are treated the same way: host-dependent measurements whose shape is
/// gated but whose value is not.
fn is_wall_clock(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_rss_kib")
}

/// Validate the shape of a `vdc-metrics/1` document. Returns one problem
/// line per violation; an empty vector means the schema holds.
fn validate_metrics_schema(file: &str, doc: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    let mut push = |msg: String| problems.push(format!("{file}: {msg}"));

    let have = keys(doc);
    if have.is_empty() {
        push("top level is not a JSON object".to_string());
        return problems;
    }
    for k in METRICS_KEYS {
        if !have.iter().any(|h| h == k) {
            push(format!("schema drift: missing top-level key {k:?}"));
        }
    }
    for k in &have {
        if !METRICS_KEYS.contains(&k.as_str()) {
            push(format!("schema drift: unknown top-level key {k:?}"));
        }
    }
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("vdc-metrics/1") => {}
        Some(other) => push(format!(
            "schema drift: schema is {other:?}, expected \"vdc-metrics/1\""
        )),
        None => push("schema drift: \"schema\" is not a string".to_string()),
    }
    if doc.get("run").and_then(JsonValue::as_str).is_none() {
        push("schema drift: \"run\" is not a string".to_string());
    }
    for section in ["counters", "gauges"] {
        match doc.get(section) {
            Some(JsonValue::Object(fields)) => {
                for (k, v) in fields {
                    if v.as_f64().is_none() {
                        push(format!("schema drift: {section}.{k} is not a number"));
                    }
                }
            }
            _ => push(format!("schema drift: {section:?} is not an object")),
        }
    }
    match doc.get("histograms").and_then(JsonValue::as_array) {
        Some(entries) => {
            for (i, entry) in entries.iter().enumerate() {
                let have = keys(entry);
                let label = entry
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("#{i}"));
                for k in HISTOGRAM_KEYS {
                    if !have.iter().any(|h| h == k) {
                        push(format!("schema drift: histogram {label} missing key {k:?}"));
                    }
                }
                for k in &have {
                    if !HISTOGRAM_KEYS.contains(&k.as_str()) {
                        push(format!("schema drift: histogram {label} unknown key {k:?}"));
                    }
                }
            }
        }
        None => push("schema drift: \"histograms\" is not an array".to_string()),
    }
    if doc.get("slo").and_then(JsonValue::as_array).is_none() {
        push("schema drift: \"slo\" is not an array".to_string());
    }
    problems
}

/// Compare two scalar-valued objects (counters or gauges).
fn compare_object(
    file: &str,
    section: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    exact: bool,
    tol: f64,
    problems: &mut Vec<String>,
) {
    let base_keys = keys(base);
    let fresh_keys = keys(fresh);
    for k in &base_keys {
        if !fresh_keys.contains(k) {
            problems.push(format!("{file}: {section}.{k} disappeared"));
        }
    }
    for k in &fresh_keys {
        if !base_keys.contains(k) {
            problems.push(format!("{file}: {section}.{k} is new (not in baseline)"));
        }
    }
    for k in &base_keys {
        let (Some(b), Some(f)) = (
            base.get(k).and_then(JsonValue::as_f64),
            fresh.get(k).and_then(JsonValue::as_f64),
        ) else {
            continue; // covered by key-set / schema checks
        };
        let ok = if exact { b == f } else { rel_close(b, f, tol) };
        if !ok {
            problems.push(format!(
                "{file}: {section}.{k} moved: baseline {b}, fresh {f}"
            ));
        }
    }
}

/// Compare two `vdc-metrics/1` documents (both already schema-validated).
fn compare_metrics(file: &str, base: &JsonValue, fresh: &JsonValue, tol: f64) -> Vec<String> {
    let mut problems = Vec::new();

    let b_run = base.get("run").and_then(JsonValue::as_str).unwrap_or("");
    let f_run = fresh.get("run").and_then(JsonValue::as_str).unwrap_or("");
    if b_run != f_run {
        problems.push(format!(
            "{file}: run moved: baseline {b_run:?}, fresh {f_run:?}"
        ));
    }

    let null = JsonValue::Null;
    compare_object(
        file,
        "counters",
        base.get("counters").unwrap_or(&null),
        fresh.get("counters").unwrap_or(&null),
        true,
        tol,
        &mut problems,
    );
    compare_object(
        file,
        "gauges",
        base.get("gauges").unwrap_or(&null),
        fresh.get("gauges").unwrap_or(&null),
        false,
        tol,
        &mut problems,
    );

    let empty: [JsonValue; 0] = [];
    let b_hist = base
        .get("histograms")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let f_hist = fresh
        .get("histograms")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let hist_name = |h: &JsonValue| {
        h.get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let b_names: Vec<String> = b_hist.iter().map(&hist_name).collect();
    let f_names: Vec<String> = f_hist.iter().map(&hist_name).collect();
    if b_names != f_names {
        problems.push(format!(
            "{file}: histogram set moved: baseline [{}], fresh [{}]",
            b_names.join(", "),
            f_names.join(", ")
        ));
    } else {
        for (b, f) in b_hist.iter().zip(f_hist) {
            let name = hist_name(b);
            let stat =
                |h: &JsonValue, k: &str| h.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            let (bc, fc) = (stat(b, "count"), stat(f, "count"));
            if bc != fc {
                problems.push(format!(
                    "{file}: histograms.{name}.count moved: baseline {bc}, fresh {fc}"
                ));
            }
            if is_wall_clock(&name) {
                continue; // stats are wall-clock noise by design
            }
            for k in ["min", "max", "mean", "p50", "p90", "p99"] {
                let (bv, fv) = (stat(b, k), stat(f, k));
                if !rel_close(bv, fv, tol) {
                    problems.push(format!(
                        "{file}: histograms.{name}.{k} moved: baseline {bv}, fresh {fv}"
                    ));
                }
            }
        }
    }

    let b_slo = base
        .get("slo")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let f_slo = fresh
        .get("slo")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    if b_slo.len() != f_slo.len() {
        problems.push(format!(
            "{file}: slo entry count moved: baseline {}, fresh {}",
            b_slo.len(),
            f_slo.len()
        ));
    } else {
        for (i, (b, f)) in b_slo.iter().zip(f_slo).enumerate() {
            let label = b
                .get("app")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("#{i}"));
            let b_keys = keys(b);
            if b_keys != keys(f) {
                problems.push(format!("{file}: slo[{label}] key set moved"));
                continue;
            }
            for k in &b_keys {
                match (b.get(k), f.get(k)) {
                    (Some(JsonValue::Str(bs)), Some(JsonValue::Str(fs))) if bs != fs => {
                        problems.push(format!(
                            "{file}: slo[{label}].{k} moved: baseline {bs:?}, fresh {fs:?}"
                        ));
                    }
                    (Some(bv), Some(fv)) => {
                        if let (Some(bn), Some(fn_)) = (bv.as_f64(), fv.as_f64()) {
                            if !rel_close(bn, fn_, tol) {
                                problems.push(format!(
                                    "{file}: slo[{label}].{k} moved: baseline {bn}, fresh {fn_}"
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    problems
}

/// Compare two `BENCH_*.json` documents: name, configured sample count, and
/// the (group, id) sequence must match; all timings are ignored.
fn compare_bench(file: &str, base: &JsonValue, fresh: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    for (doc, which) in [(base, "baseline"), (fresh, "fresh")] {
        let have = keys(doc);
        for k in BENCH_KEYS {
            if !have.iter().any(|h| h == k) {
                problems.push(format!("{file}: {which} missing top-level key {k:?}"));
            }
        }
    }
    if !problems.is_empty() {
        return problems;
    }
    let b_name = base.get("bench").and_then(JsonValue::as_str).unwrap_or("");
    let f_name = fresh.get("bench").and_then(JsonValue::as_str).unwrap_or("");
    if b_name != f_name {
        problems.push(format!(
            "{file}: bench moved: baseline {b_name:?}, fresh {f_name:?}"
        ));
    }
    let empty: [JsonValue; 0] = [];
    let ids = |doc: &JsonValue| -> Vec<String> {
        doc.get("results")
            .and_then(JsonValue::as_array)
            .unwrap_or(&empty)
            .iter()
            .map(|r| {
                format!(
                    "{}/{}",
                    r.get("group").and_then(JsonValue::as_str).unwrap_or("?"),
                    r.get("id").and_then(JsonValue::as_str).unwrap_or("?")
                )
            })
            .collect()
    };
    let (b_ids, f_ids) = (ids(base), ids(fresh));
    if b_ids != f_ids {
        problems.push(format!(
            "{file}: benchmark set moved: baseline [{}], fresh [{}]",
            b_ids.join(", "),
            f_ids.join(", ")
        ));
    }
    problems
}

/// Pretty-print a document one scalar per line, masking wall-clock fields,
/// so unified diffs line up with the gate's comparison policy.
fn canonical_lines(doc: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    let bench = doc.get("bench").is_some();
    render(doc, "", "", bench, false, &mut out);
    out
}

fn render(
    v: &JsonValue,
    path: &str,
    indent: &str,
    bench: bool,
    masked: bool,
    out: &mut Vec<String>,
) {
    match v {
        JsonValue::Object(fields) => {
            // A histogram entry is wall-clock when its name says so.
            let wall = v
                .get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(is_wall_clock);
            for (k, val) in fields {
                let mask = masked
                    || (wall && k != "name" && k != "count")
                    || (bench && BENCH_TIMING_KEYS.contains(&k.as_str()));
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                render(val, &child, indent, bench, mask, out);
            }
        }
        JsonValue::Array(items) => {
            out.push(format!("{indent}{path}: [{}]", items.len()));
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("name")
                    .or_else(|| item.get("app"))
                    .or_else(|| item.get("id"))
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                render(
                    item,
                    &format!("{path}[{label}]"),
                    indent,
                    bench,
                    masked,
                    out,
                );
            }
        }
        scalar => {
            let rendered = if masked {
                "(wall-clock, ignored)".to_string()
            } else {
                match scalar {
                    JsonValue::Null => "null".to_string(),
                    JsonValue::Bool(b) => b.to_string(),
                    JsonValue::Num(x) => vdc_dcsim::json::num(*x),
                    JsonValue::Str(s) => format!("{s:?}"),
                    _ => unreachable!(),
                }
            };
            out.push(format!("{indent}{path}: {rendered}"));
        }
    }
}

/// Minimal unified diff (LCS over lines, full context collapsed).
fn unified_diff(base: &[String], fresh: &[String], file: &str) -> String {
    let n = base.len();
    let m = fresh.len();
    // LCS length table.
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if base[i] == fresh[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = format!("--- {file} (baseline)\n+++ {file} (fresh)\n");
    let (mut i, mut j) = (0, 0);
    let mut context_gap = false;
    while i < n || j < m {
        if i < n && j < m && base[i] == fresh[j] {
            if !context_gap {
                out.push_str("  ...\n");
                context_gap = true;
            }
            i += 1;
            j += 1;
        } else if i < n && (j == m || lcs[i + 1][j] >= lcs[i][j + 1]) {
            out.push_str(&format!("- {}\n", base[i]));
            context_gap = false;
            i += 1;
        } else {
            out.push_str(&format!("+ {}\n", fresh[j]));
            context_gap = false;
            j += 1;
        }
    }
    out
}

fn read_doc(path: &std::path::Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

/// Result-document file names (`METRICS_*.json` / `BENCH_*.json`) in a
/// directory, sorted for stable report order.
fn result_files(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot list: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: cannot list: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if (name.starts_with("METRICS_") || name.starts_with("BENCH_")) && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// The gate's verdict on one fresh document against its baseline: schema
/// first, then values (`METRICS_*`) or shape (`BENCH_*`).
fn compare_doc(name: &str, base: &JsonValue, fresh: &JsonValue, tol: f64) -> Vec<String> {
    if !name.starts_with("METRICS_") {
        return compare_bench(name, base, fresh);
    }
    let mut problems = validate_metrics_schema(name, fresh);
    if problems.is_empty() {
        problems.extend(validate_metrics_schema(&format!("{name} (baseline)"), base));
        problems.extend(compare_metrics(name, base, fresh, tol));
    }
    problems
}

struct GateReport {
    problems: Vec<String>,
    diffs: Vec<String>,
    checked: usize,
}

fn run_gate(
    baseline_dir: &std::path::Path,
    fresh_dir: &std::path::Path,
    tol: f64,
) -> Result<GateReport, String> {
    let baseline_files = result_files(baseline_dir)?;
    let fresh_files = result_files(fresh_dir)?;
    if baseline_files.is_empty() {
        return Err(format!(
            "{}: no METRICS_*.json / BENCH_*.json baselines found",
            baseline_dir.display()
        ));
    }
    let mut report = GateReport {
        problems: Vec::new(),
        diffs: Vec::new(),
        checked: 0,
    };
    for name in &fresh_files {
        if !baseline_files.contains(name) {
            report.problems.push(format!(
                "{name}: fresh results have no committed baseline (run with --bless to add it)"
            ));
        }
    }
    for name in &baseline_files {
        if !fresh_files.contains(name) {
            report.problems.push(format!(
                "{name}: baseline was not regenerated by the fresh run"
            ));
            continue;
        }
        report.checked += 1;
        let base = read_doc(&baseline_dir.join(name))?;
        let fresh = read_doc(&fresh_dir.join(name))?;
        let problems = compare_doc(name, &base, &fresh, tol);
        if !problems.is_empty() {
            report.diffs.push(unified_diff(
                &canonical_lines(&base),
                &canonical_lines(&fresh),
                name,
            ));
        }
        report.problems.extend(problems);
    }
    Ok(report)
}

/// What `--bless` did: the files it copied over their baselines, and how
/// many documents it left alone because the gate found nothing moved.
struct Blessed {
    rewritten: Vec<String>,
    unchanged: usize,
}

fn bless(
    baseline_dir: &std::path::Path,
    fresh_dir: &std::path::Path,
    tol: f64,
) -> Result<Blessed, String> {
    let mut blessed = Blessed {
        rewritten: Vec::new(),
        unchanged: 0,
    };
    for name in result_files(fresh_dir)? {
        // Never bless a document that does not parse or violates the schema.
        let doc = read_doc(&fresh_dir.join(name.as_str()))?;
        if name.starts_with("METRICS_") {
            let problems = validate_metrics_schema(&name, &doc);
            if !problems.is_empty() {
                return Err(problems.join("\n"));
            }
        }
        // A baseline that is missing or does not parse is rewritten too.
        let moved = match read_doc(&baseline_dir.join(name.as_str())) {
            Ok(base) => !compare_doc(&name, &base, &doc, tol).is_empty(),
            Err(_) => true,
        };
        if !moved {
            blessed.unchanged += 1;
            continue;
        }
        for ext_name in [name.clone(), name.replace(".json", ".tsv")] {
            let src = fresh_dir.join(&ext_name);
            if src.exists() {
                std::fs::copy(&src, baseline_dir.join(&ext_name))
                    .map_err(|e| format!("{ext_name}: cannot bless: {e}"))?;
                blessed.rewritten.push(ext_name);
            }
        }
    }
    Ok(blessed)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline = arg_value(&args, "--baseline").unwrap_or_else(|| "results".to_string());
    let Some(fresh) = arg_value(&args, "--fresh") else {
        eprintln!("usage: results_gate --fresh <dir> [--baseline <dir>] [--tol <rel>] [--bless]");
        return ExitCode::FAILURE;
    };
    let tol: f64 = match arg_value(&args, "--tol") {
        None => DEFAULT_TOL,
        Some(t) => match t.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("--tol {t:?} is not a number");
                return ExitCode::FAILURE;
            }
        },
    };
    let baseline_dir = std::path::Path::new(&baseline);
    let fresh_dir = std::path::Path::new(&fresh);

    if args.iter().any(|a| a == "--bless") {
        return match bless(baseline_dir, fresh_dir, tol) {
            Ok(blessed) => {
                for name in &blessed.rewritten {
                    println!("blessed {name}");
                }
                println!(
                    "results_gate: {} baseline files rewritten, {} documents unchanged",
                    blessed.rewritten.len(),
                    blessed.unchanged
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("results_gate: refusing to bless:\n{e}");
                ExitCode::FAILURE
            }
        };
    }

    match run_gate(baseline_dir, fresh_dir, tol) {
        Ok(report) if report.problems.is_empty() => {
            println!(
                "results_gate: OK — {} result files match the committed baselines",
                report.checked
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!("results_gate: results moved vs committed baselines:");
            for p in &report.problems {
                eprintln!("  {p}");
            }
            for d in &report.diffs {
                eprintln!("\n{d}");
            }
            eprintln!(
                "\nresults_gate: FAILED ({} problems). If the change is intentional, rerun \
                 with --bless and commit the refreshed results/.",
                report.problems.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("results_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_text(counter: i64, gauge: f64, ns_mean: f64) -> String {
        format!(
            r#"{{"schema":"vdc-metrics/1","run":"t","counters":{{"a.b":{counter}}},
                "gauges":{{"p.w":{gauge}}},
                "histograms":[
                  {{"name":"x.sample_ns","count":4,"min":1.0,"max":{ns_mean},"mean":{ns_mean},"p50":1.0,"p90":1.0,"p99":1.0}},
                  {{"name":"x.power_w","count":4,"min":1.0,"max":2.0,"mean":1.5,"p50":1.5,"p90":2.0,"p99":2.0}}],
                "slo":[{{"app":"App1","target_ms":500.0,"violations":3}}]}}"#
        )
    }

    fn metrics_doc(counter: i64, gauge: f64, ns_mean: f64) -> JsonValue {
        JsonValue::parse(&metrics_text(counter, gauge, ns_mean)).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let d = metrics_doc(7, 123.456, 10.0);
        assert!(validate_metrics_schema("f", &d).is_empty());
        assert!(compare_metrics("f", &d, &d, DEFAULT_TOL).is_empty());
    }

    #[test]
    fn wall_clock_histogram_stats_are_ignored_but_counts_are_not() {
        let base = metrics_doc(7, 1.0, 10.0);
        let fresh = metrics_doc(7, 1.0, 99999.0); // only the _ns stats moved
        assert!(compare_metrics("f", &base, &fresh, DEFAULT_TOL).is_empty());
    }

    #[test]
    fn counter_delta_fails_exactly() {
        let base = metrics_doc(7, 1.0, 10.0);
        let fresh = metrics_doc(8, 1.0, 10.0);
        let problems = compare_metrics("f", &base, &fresh, DEFAULT_TOL);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("counters.a.b moved"), "{problems:?}");
    }

    #[test]
    fn gauge_delta_respects_relative_tolerance() {
        let base = metrics_doc(7, 1000.0, 10.0);
        let within = metrics_doc(7, 1000.0 * (1.0 + 1e-12), 10.0);
        let outside = metrics_doc(7, 1000.1, 10.0);
        assert!(compare_metrics("f", &base, &within, DEFAULT_TOL).is_empty());
        let problems = compare_metrics("f", &base, &outside, DEFAULT_TOL);
        assert!(problems.iter().any(|p| p.contains("gauges.p.w moved")));
    }

    #[test]
    fn schema_drift_is_reported() {
        let mut doc = metrics_doc(7, 1.0, 10.0);
        if let JsonValue::Object(fields) = &mut doc {
            fields.push(("extra".to_string(), JsonValue::Num(1.0)));
            fields.retain(|(k, _)| k != "slo");
        }
        let problems = validate_metrics_schema("f", &doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("unknown top-level key \"extra\"")));
        assert!(problems
            .iter()
            .any(|p| p.contains("missing top-level key \"slo\"")));
        let bad_schema = JsonValue::parse(
            r#"{"schema":"vdc-metrics/2","run":"t","counters":{},"gauges":{},"histograms":[],"slo":[]}"#,
        )
        .unwrap();
        let problems = validate_metrics_schema("f", &bad_schema);
        assert!(problems.iter().any(|p| p.contains("vdc-metrics/2")));
    }

    #[test]
    fn slo_and_histogram_count_deltas_fail() {
        let base = metrics_doc(7, 1.0, 10.0);
        let fresh_text = r#"{"schema":"vdc-metrics/1","run":"t","counters":{"a.b":7},
            "gauges":{"p.w":1.0},
            "histograms":[
              {"name":"x.sample_ns","count":5,"min":1.0,"max":10.0,"mean":10.0,"p50":1.0,"p90":1.0,"p99":1.0},
              {"name":"x.power_w","count":4,"min":1.0,"max":2.0,"mean":1.5,"p50":1.5,"p90":2.0,"p99":2.0}],
            "slo":[{"app":"App1","target_ms":500.0,"violations":4}]}"#;
        let fresh = JsonValue::parse(fresh_text).unwrap();
        let problems = compare_metrics("f", &base, &fresh, DEFAULT_TOL);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("histograms.x.sample_ns.count moved")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("slo[App1].violations moved")),
            "{problems:?}"
        );
    }

    #[test]
    fn unified_diff_masks_wall_clock_lines() {
        let base = metrics_doc(7, 1.0, 10.0);
        let fresh = metrics_doc(8, 1.0, 20.0);
        let diff = unified_diff(&canonical_lines(&base), &canonical_lines(&fresh), "f");
        assert!(diff.contains("- counters.a.b: 7"), "{diff}");
        assert!(diff.contains("+ counters.a.b: 8"), "{diff}");
        // The _ns stats differ numerically but are masked, so they never
        // show up as diff lines.
        assert!(!diff.contains("99999"), "{diff}");
        assert!(!diff.contains("sample_ns.mean"), "{diff}");
    }

    #[test]
    fn bench_documents_gate_shape_not_timings() {
        let base = JsonValue::parse(
            r#"{"bench":"b","samples":15,"results":[{"group":"g","id":"one","median_ns":100.0}]}"#,
        )
        .unwrap();
        let fresh = JsonValue::parse(
            r#"{"bench":"b","samples":15,"results":[{"group":"g","id":"one","median_ns":999.0}]}"#,
        )
        .unwrap();
        assert!(compare_bench("f", &base, &fresh).is_empty());
        let renamed = JsonValue::parse(
            r#"{"bench":"b","samples":15,"results":[{"group":"g","id":"two","median_ns":999.0}]}"#,
        )
        .unwrap();
        let problems = compare_bench("f", &base, &renamed);
        assert!(problems.iter().any(|p| p.contains("benchmark set moved")));
    }

    #[test]
    fn bless_rewrites_only_what_moved() {
        let dir = std::env::temp_dir().join(format!("results-gate-bless-{}", std::process::id()));
        let (base, fresh) = (dir.join("base"), dir.join("fresh"));
        for d in [&base, &fresh] {
            std::fs::create_dir_all(d).unwrap();
        }
        let write = |d: &std::path::Path, name: &str, body: &str| {
            std::fs::write(d.join(name), body).unwrap();
        };
        // Only the wall-clock `*_ns` statistics differ: the gate passes it.
        write(&base, "METRICS_noise.json", &metrics_text(7, 1.0, 10.0));
        write(&fresh, "METRICS_noise.json", &metrics_text(7, 1.0, 99999.0));
        write(&base, "METRICS_noise.tsv", "old\n");
        write(&fresh, "METRICS_noise.tsv", "new\n");
        // A counter moved: the document and its TSV are rewritten.
        write(&base, "METRICS_moved.json", &metrics_text(7, 1.0, 10.0));
        write(&fresh, "METRICS_moved.json", &metrics_text(8, 1.0, 10.0));
        write(&base, "METRICS_moved.tsv", "old\n");
        write(&fresh, "METRICS_moved.tsv", "new\n");
        // No baseline yet: the document is written.
        write(&fresh, "METRICS_new.json", &metrics_text(1, 1.0, 10.0));

        let blessed = bless(&base, &fresh, DEFAULT_TOL).unwrap();
        let read = |name: &str| std::fs::read_to_string(base.join(name)).unwrap();
        assert_eq!(
            blessed.rewritten,
            [
                "METRICS_moved.json",
                "METRICS_moved.tsv",
                "METRICS_new.json"
            ]
        );
        assert_eq!(blessed.unchanged, 1);
        assert_eq!(read("METRICS_noise.json"), metrics_text(7, 1.0, 10.0));
        assert_eq!(read("METRICS_noise.tsv"), "old\n");
        assert_eq!(read("METRICS_moved.json"), metrics_text(8, 1.0, 10.0));
        assert_eq!(read("METRICS_moved.tsv"), "new\n");
        assert_eq!(read("METRICS_new.json"), metrics_text(1, 1.0, 10.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
