//! The parent process: schedules repetitions, each in a fresh child process
//! of this binary, checks them against each other, and reports.

use crate::metrics::{layer_unit, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{mean, median};
use crate::workload::{draw_seed, RepResult, Scale, Workload};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vdc_dcsim::json::{array, escape, num, JsonObject, JsonValue};

/// Draws of inputs the end-to-end metrics average over: round `r` runs
/// draw `r % DRAWS`, whose inputs come from [`draw_seed`]. A runner's work
/// varies by up to 2x from one seed to the next (the Minimum Slack search
/// above all), so a metric from one draw would mostly report the seed; the
/// mean over eight draws cuts that spread by a factor of √8.
pub const DRAWS: usize = 8;
/// Rounds of timed repetitions, at least, per workload.
const MIN_ROUNDS: usize = 3;
/// Upper limit on those rounds, whatever the time budget.
const MAX_ROUNDS: usize = 60;
/// Time kept for the run after the rounds, in rounds: the parallel
/// check run, or the traced run with its outside timers.
const TAIL_ROUNDS: f64 = 1.5;
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// What one invocation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced one-shard repetitions of every draw, then one parallel run
    /// of draw 0 that checks shard invariance: the end-to-end metrics
    /// (`--trace 0`).
    EndToEnd,
    /// Alternating untraced one-shard and parallel repetitions of draw 0,
    /// then one traced one-shard run of draw 0: the per-layer metrics
    /// (`--trace 1`).
    Layers,
    /// Both metric sets: alternating one-shard and parallel repetitions of
    /// every draw, then the traced run of draw 0.
    Both,
}

/// Draws one invocation in `mode` measures: the per-layer metrics come
/// from draw 0 alone.
fn draws(mode: Mode) -> usize {
    if mode == Mode::Layers {
        1
    } else {
        DRAWS
    }
}

/// Settings shared by every workload of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every generator seed is derived from.
    pub seed: u64,
    /// Time budget per workload (seconds).
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// Metric sets to measure.
    pub mode: Mode,
}

/// Shard workers of the parallel repetitions: two, or fewer on a smaller
/// host, so the benchmark never runs more threads than the host has CPUs.
fn shards() -> usize {
    nproc().min(2)
}

/// CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Tally {
    workload: Workload,
    /// Draws of inputs measured (see [`DRAWS`]).
    draws: usize,
    /// Successful untraced repetitions at one shard, with their draw: the
    /// end-to-end samples.
    reps: Vec<(usize, RepResult)>,
    /// Successful untraced repetitions at [`shards`] workers, with their
    /// draw.
    parallel: Vec<(usize, RepResult)>,
    /// The traced one-shard run of draw 0, if it succeeded.
    traced: Option<RepResult>,
    /// Child runs started.
    attempted: u32,
    /// Child runs that failed a check.
    failed: u32,
    /// What failed, one line each.
    problems: Vec<String>,
    /// Host seconds of each round of timed child processes.
    round_times: Vec<f64>,
    /// Digest of each draw's first successful run; every other run of the
    /// draw must match it.
    references: BTreeMap<usize, u64>,
}

/// Median of `value` over the runs of `draw` among `runs`, if it has any.
fn draw_median(
    runs: &[(usize, RepResult)],
    draw: usize,
    value: impl Fn(&RepResult) -> f64,
) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter(|(d, _)| *d == draw)
        .map(|(_, r)| value(r))
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

impl Tally {
    fn new(workload: Workload, draws: usize) -> Tally {
        Tally {
            workload,
            draws,
            reps: Vec::new(),
            parallel: Vec::new(),
            traced: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            round_times: Vec::new(),
            references: BTreeMap::new(),
        }
    }

    /// Count a child run of `draw`, check its digest against the draw's
    /// first successful run, and return it if it passed.
    fn record(&mut self, rep: RepResult, label: &str, draw: usize) -> Option<RepResult> {
        self.attempted += 1;
        let mut found = rep.problems.clone();
        if found.is_empty() {
            match self.references.get(&draw) {
                None => {
                    self.references.insert(draw, rep.digest);
                }
                Some(&d) if d != rep.digest => found.push(format!(
                    "result digest {:016x} differs from {d:016x}",
                    rep.digest
                )),
                Some(_) => {}
            }
        }
        if found.is_empty() {
            return Some(rep);
        }
        self.failed += 1;
        self.problems.extend(
            found
                .into_iter()
                .map(|p| format!("draw {draw} {label}: {p}")),
        );
        None
    }

    /// Whether another round of timed repetitions is due: until every draw
    /// has run and [`MIN_ROUNDS`] are done, then while another fits the
    /// budget with room for the run that follows the rounds.
    fn wants_round(&self, cfg: &Config) -> bool {
        let n = self.round_times.len();
        if n < MIN_ROUNDS.max(self.draws) {
            return true;
        }
        if n >= MAX_ROUNDS {
            return false;
        }
        let spent: f64 = self.round_times.iter().sum();
        spent + (1.0 + TAIL_ROUNDS) * spent / n as f64 <= cfg.seconds
    }

    /// The end-to-end samples: per draw, in draw order, the median over
    /// that draw's successful one-shard repetitions. A metric's value is
    /// their mean.
    fn end_to_end(&self) -> Vec<(EndToEnd, Vec<f64>)> {
        END_TO_END
            .into_iter()
            .map(|m| {
                let value = |r: &RepResult| match m.name {
                    "wall_s" => r.wall_s,
                    "setup_s" => r.setup_s,
                    "peak_rss_mib" => r.peak_rss_mib,
                    other => unreachable!("no source for end-to-end metric {other}"),
                };
                let values = (0..self.draws)
                    .filter_map(|d| draw_median(&self.reps, d, value))
                    .collect();
                (m, values)
            })
            .collect()
    }

    /// The per-layer metrics: the traced run's own, plus the two that
    /// compare runs with each other.
    fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let wall = |r: &RepResult| r.wall_s;
        // One-shard over parallel wall, summed over the draws that have both.
        let (mut one, mut parallel) = (0.0, 0.0);
        for d in 0..self.draws {
            if let (Some(w1), Some(wn)) = (
                draw_median(&self.reps, d, wall),
                draw_median(&self.parallel, d, wall),
            ) {
                one += w1;
                parallel += wn;
            }
        }
        let speedup = if parallel > 0.0 { one / parallel } else { 0.0 };
        let traced = self.traced.as_ref();
        let overhead = match (traced, draw_median(&self.reps, 0, wall)) {
            (Some(t), Some(w1)) => 100.0 * (t.wall_s / w1 - 1.0),
            _ => 0.0,
        };
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let value = match name {
                    "shard.speedup" => speedup,
                    "telemetry.overhead_pct" => overhead,
                    _ => traced
                        .and_then(|t| t.layers.iter().find(|(n, _)| n == name))
                        .map_or(0.0, |(_, v)| *v),
                };
                (name, value)
            })
            .collect()
    }

    /// Whether every run passed and every metric set asked for exists.
    fn correct(&self, mode: Mode) -> bool {
        self.failed == 0
            && !self.reps.is_empty()
            && !self.parallel.is_empty()
            && (mode == Mode::EndToEnd || self.traced.is_some())
    }
}

/// Run every workload of `workloads` under `cfg`. Rounds of timed
/// repetitions are interleaved round-robin across workloads, each round
/// runs the next draw, and within a round the one-shard and the parallel
/// run alternate, so slow drift of the host spreads over all of them alike.
pub fn run(workloads: &[Workload], cfg: &Config) -> Vec<Tally> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut tallies: Vec<Tally> = workloads
        .iter()
        .map(|&w| Tally::new(w, draws(cfg.mode)))
        .collect();
    loop {
        let mut ran = false;
        for t in tallies.iter_mut().filter(|t| t.wants_round(cfg)) {
            ran = true;
            let draw = t.round_times.len() % t.draws;
            let start = Instant::now();
            let rep = spawn_rep(&exe, t.workload, cfg, draw, 1, false);
            if let Some(rep) = t.record(rep, "one-shard run", draw) {
                t.reps.push((draw, rep));
            }
            if cfg.mode != Mode::EndToEnd {
                let rep = spawn_rep(&exe, t.workload, cfg, draw, shards(), false);
                if let Some(rep) = t.record(rep, "parallel run", draw) {
                    t.parallel.push((draw, rep));
                }
            }
            t.round_times.push(start.elapsed().as_secs_f64());
        }
        if !ran {
            break;
        }
    }
    for t in &mut tallies {
        if cfg.mode == Mode::EndToEnd {
            // One parallel run checks that the shard count moves nothing.
            let rep = spawn_rep(&exe, t.workload, cfg, 0, shards(), false);
            if let Some(rep) = t.record(rep, "parallel run", 0) {
                t.parallel.push((0, rep));
            }
        } else {
            let rep = spawn_rep(&exe, t.workload, cfg, 0, 1, true);
            t.traced = t.record(rep, "traced run", 0);
        }
    }
    tallies
}

/// Run one repetition of `draw` in a fresh child process and wait for it.
fn spawn_rep(
    exe: &std::path::Path,
    w: Workload,
    cfg: &Config,
    draw: usize,
    shards: usize,
    traced: bool,
) -> RepResult {
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name()])
        .args(["--seed", &draw_seed(cfg.seed, draw).to_string()])
        .args(["--shards", &shards.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cfg.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    match wait_for(cmd) {
        Ok(line) => rep_from_json(&line).unwrap_or_else(|e| failed_rep(format!("bad report: {e}"))),
        Err(e) => failed_rep(e),
    }
}

fn failed_rep(problem: String) -> RepResult {
    RepResult {
        problems: vec![problem],
        ..RepResult::default()
    }
}

/// Start `cmd`, wait until it exits (killing it after [`CHILD_TIMEOUT`]),
/// and return the last line it printed.
fn wait_for(mut cmd: Command) -> Result<String, String> {
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    // The report is one line of a few KiB, well inside a pipe's buffer, so
    // it is read once the child has exited.
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() > CHILD_TIMEOUT => {
                // Ignore a kill error: the child may have exited meanwhile.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("child timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("cannot wait for child: {e}")),
        }
    };
    let status = status?;
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)
        .map_err(|e| format!("cannot read child output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    out.lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
        .ok_or_else(|| "child printed no report".into())
}

fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|p| format!("\"{}\"", escape(p))).collect();
    array(&quoted)
}

/// The child's report line.
pub fn rep_to_json(r: &RepResult) -> String {
    let layers = r
        .layers
        .iter()
        .fold(JsonObject::new(), |o, (n, v)| o.num(n, *v))
        .build();
    let spans: Vec<String> = r
        .spans
        .iter()
        .map(|(n, c, s)| format!("[\"{}\",{c},{}]", escape(n), num(*s)))
        .collect();
    JsonObject::new()
        .num("speed", r.speed)
        .num("setup_s", r.setup_s)
        .num("wall_s", r.wall_s)
        .num("peak_rss_mib", r.peak_rss_mib)
        .num("energy_kwh", r.energy_kwh)
        .num("sla_violation_pct", r.sla_violation_pct)
        .int("migrations", r.migrations as i64)
        .str("digest", &format!("{:016x}", r.digest))
        .raw("problems", &string_array(&r.problems))
        .raw("layers", &layers)
        .raw("spans", &array(&spans))
        .build()
}

/// Parse a child's report line.
fn rep_from_json(line: &str) -> Result<RepResult, String> {
    let v = JsonValue::parse(line)?;
    let f = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{key} is missing or not a number"))
    };
    let digest = v
        .get("digest")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("digest is missing")?;
    let problems = v
        .get("problems")
        .and_then(JsonValue::as_array)
        .ok_or("problems is missing")?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_string)
                .ok_or("problem is not a string")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let layers = match v.get("layers") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .map(|(n, x)| {
                x.as_f64()
                    .map(|x| (n.clone(), x))
                    .ok_or_else(|| format!("layer metric {n} is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("layers is missing".into()),
    };
    let spans = v
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or("spans is missing")?
        .iter()
        .map(|s| match s.as_array() {
            Some([JsonValue::Str(n), JsonValue::Num(c), JsonValue::Num(t)]) => {
                Ok((n.clone(), *c as u64, *t))
            }
            _ => Err("malformed span".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RepResult {
        speed: f("speed")?,
        setup_s: f("setup_s")?,
        wall_s: f("wall_s")?,
        peak_rss_mib: f("peak_rss_mib")?,
        energy_kwh: f("energy_kwh")?,
        sla_violation_pct: f("sla_violation_pct")?,
        migrations: f("migrations")? as u64,
        digest,
        problems,
        layers,
        spans,
    })
}

/// The metrics map of one workload for `mode`, as `{name: {value, unit}}`.
fn metrics_object(t: &Tally, mode: Mode) -> String {
    let mut o = JsonObject::new();
    if mode != Mode::Layers {
        for (m, values) in t.end_to_end() {
            let value = if values.is_empty() {
                0.0
            } else {
                mean(&values)
            };
            o = o.raw(
                m.name,
                &JsonObject::new()
                    .num("value", value)
                    .str("unit", m.unit)
                    .build(),
            );
        }
    }
    if mode != Mode::EndToEnd {
        for (name, value) in t.per_layer() {
            o = o.raw(
                name,
                &JsonObject::new()
                    .num("value", value)
                    .str("unit", layer_unit(name))
                    .build(),
            );
        }
    }
    o.build()
}

/// The one-line result of a single-workload invocation.
pub fn result_line(t: &Tally, mode: Mode) -> String {
    JsonObject::new()
        .bool("correct", t.correct(mode))
        .int("attempted", i64::from(t.attempted))
        .int("failed", i64::from(t.failed))
        .raw("metrics", &metrics_object(t, mode))
        .build()
}

/// The full result document: every workload with its per-draw samples, for
/// `--out` and for `compare`.
pub fn document(tallies: &[Tally], cfg: &Config) -> String {
    let mut workloads = JsonObject::new();
    for t in tallies {
        let mut e2e = JsonObject::new();
        for (m, values) in t.end_to_end() {
            let mut entry = JsonObject::new()
                .str("unit", m.unit)
                .str("better", "lower")
                .num("bound", m.bound);
            if !values.is_empty() {
                entry = entry.num("mean", mean(&values));
            }
            e2e = e2e.raw(m.name, &entry.nums("values", &values).build());
        }
        let mut w = JsonObject::new()
            .bool("correct", t.correct(cfg.mode))
            .int("attempted", i64::from(t.attempted))
            .int("failed", i64::from(t.failed))
            .raw("problems", &string_array(&t.problems))
            .raw("end_to_end", &e2e.build());
        // Draw 0's first repetition: the `--seed` inputs themselves.
        if let Some((_, r)) = t.reps.first() {
            w = w
                .str("digest", &format!("{:016x}", r.digest))
                .num("energy_kwh", r.energy_kwh)
                .num("sla_violation_pct", r.sla_violation_pct)
                .int("migrations", r.migrations as i64);
        }
        if cfg.mode != Mode::EndToEnd {
            w = w.raw("per_layer", &metrics_object(t, Mode::Layers));
        }
        workloads = workloads.raw(t.workload.name(), &w.build());
    }
    JsonObject::new()
        .int("seed", cfg.seed as i64)
        .int("draws", draws(cfg.mode) as i64)
        .num("seconds", cfg.seconds)
        .bool("smoke", cfg.scale == Scale::Smoke)
        .int("nproc", nproc() as i64)
        .int("shards", shards() as i64)
        .str("cpu", &cpu_model())
        .raw("workloads", &workloads.build())
        .build()
}

/// Human-readable report of every metric, by name with its unit.
pub fn print_report(tallies: &[Tally], cfg: &Config) {
    println!(
        "vdcbench: seed {}, {} draws, {} s per workload, {} CPUs ({}), timed runs at \
         1 shard, parallel runs at {}; times in reference seconds (see host.speed)",
        cfg.seed,
        draws(cfg.mode),
        cfg.seconds,
        nproc(),
        cpu_model(),
        shards()
    );
    for t in tallies {
        println!();
        println!(
            "== {}: {} runs, {} failed",
            t.workload.name(),
            t.attempted,
            t.failed
        );
        for p in &t.problems {
            println!("   FAILED {p}");
        }
        if let Some((_, r)) = t.reps.first() {
            println!(
                "   simulated (draw 0): {:.4} kWh, SLA violation {:.4} %, {} migrations, \
                 digest {:016x}",
                r.energy_kwh, r.sla_violation_pct, r.migrations, r.digest
            );
        }
        for (m, values) in t.end_to_end() {
            if values.is_empty() {
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "   {:<30} {:>14.6} {:<6} mean of {} draws, {:.6} to {:.6}",
                m.name,
                mean(&values),
                m.unit,
                values.len(),
                lo,
                hi
            );
        }
        if cfg.mode == Mode::EndToEnd {
            continue;
        }
        println!(
            "   per layer (traced run at 1 shard, wall {:.6} s):",
            t.traced.as_ref().map_or(0.0, |r| r.wall_s)
        );
        for (name, value) in t.per_layer() {
            println!("   {name:<30} {value:>14.6} {}", layer_unit(name));
        }
        if let Some(traced) = &t.traced {
            println!("   spans of the traced run (count, total s):");
            for (name, count, total) in &traced.spans {
                println!("   {name:<30} {count:>8} {total:>14.6}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_round_trips() {
        let r = RepResult {
            speed: 0.97,
            setup_s: 0.25,
            wall_s: 1.5,
            peak_rss_mib: 36.0,
            energy_kwh: 12.345678901234,
            sla_violation_pct: 0.0,
            migrations: 77,
            digest: 0xfedc_ba98_7654_3210,
            problems: vec!["a \"quoted\" problem".into()],
            layers: vec![("trace.gen_s".into(), 0.125)],
            spans: vec![("largescale.sample_ns".into(), 672, 1.25)],
        };
        let back = rep_from_json(&rep_to_json(&r)).expect("own output parses");
        assert_eq!(back.digest, r.digest);
        assert_eq!(back.energy_kwh.to_bits(), r.energy_kwh.to_bits());
        assert_eq!(back.problems, r.problems);
        assert_eq!(back.layers, r.layers);
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.migrations, 77);
        assert!(rep_from_json("{}").is_err());
    }

    #[test]
    fn digest_mismatch_within_a_draw_fails_the_run() {
        let mut t = Tally::new(Workload::PaperWeek, 2);
        let ok = |digest| RepResult {
            digest,
            ..RepResult::default()
        };
        assert!(t.record(ok(1), "a", 0).is_some());
        assert!(t.record(ok(1), "b", 0).is_some());
        // Another draw is another input: its own first digest is its reference.
        assert!(t.record(ok(2), "c", 1).is_some());
        assert!(t.record(ok(2), "d", 0).is_none());
        assert!(t.record(failed_rep("boom".into()), "e", 1).is_none());
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!(t.problems[0].starts_with("draw 0 d: result digest"));
        assert_eq!(t.problems[1], "draw 1 e: boom");
    }

    #[test]
    fn end_to_end_values_are_per_draw_medians() {
        let mut t = Tally::new(Workload::PaperWeek, 2);
        let rep = |wall_s| RepResult {
            wall_s,
            ..RepResult::default()
        };
        for (draw, wall) in [(0, 1.0), (1, 4.0), (0, 3.0), (1, 6.0), (0, 2.0)] {
            t.reps.push((draw, rep(wall)));
        }
        t.parallel.push((0, rep(1.0)));
        let (m, walls) = &t.end_to_end()[0];
        assert_eq!(m.name, "wall_s");
        assert_eq!(walls, &vec![2.0, 5.0]);
        // Speedup pairs draws: only draw 0 has a parallel run.
        let speedup = t
            .per_layer()
            .into_iter()
            .find(|(n, _)| *n == "shard.speedup");
        assert_eq!(speedup, Some(("shard.speedup", 2.0)));
    }

    #[test]
    fn draw_zero_is_the_seed_itself() {
        assert_eq!(draw_seed(5415, 0), 5415);
        let seeds: std::collections::BTreeSet<u64> =
            (0..DRAWS).map(|d| draw_seed(5415, d)).collect();
        assert_eq!(seeds.len(), DRAWS);
    }
}
