//! Command line of the benchmark.
//!
//! ```text
//! vdcbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
//!          [--smoke] [--out FILE]
//! vdcbench compare BASE.json HEAD.json
//! ```
//!
//! The last line of standard output is one JSON object: for a single
//! workload `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`), the per-layer metrics (`--trace 1`)
//! or both (no `--trace`); for several workloads the full result document
//! that `--out` writes and `compare` reads.

use std::collections::BTreeMap;
use vdcbench::bench::{self, Config, Mode};
use vdcbench::compare;
use vdcbench::stats::Verdict;
use vdcbench::workload::{run_rep, Scale, Workload};

const USAGE: &str = "usage: vdcbench [--workload NAME|all] [--seed N] [--seconds N] \
                     [--trace 0|1] [--smoke] [--out FILE]\n       \
                     vdcbench compare BASE.json HEAD.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        _ => cmd_run(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("vdcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `--flag value` pairs plus the `--smoke` switch.
struct Flags<'a> {
    values: BTreeMap<&'a str, &'a str>,
    smoke: bool,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--smoke" {
                flags.smoke = true;
            } else if known.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.values.insert(a, v);
            } else {
                return Err(format!("unknown argument {a}"));
            }
        }
        Ok(flags)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad value {v} for {flag}")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self
            .values
            .get("--workload")
            .ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Bench
        }
    }
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let workloads = match flags.values.get("--workload") {
        None | Some(&"all") => Workload::ALL.to_vec(),
        Some(_) => vec![flags.workload()?],
    };
    let seconds: f64 = flags.get("--seconds", 30.0)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    let mode = match flags.values.get("--trace") {
        None => Mode::Both,
        Some(&"0") => Mode::EndToEnd,
        Some(&"1") => Mode::Layers,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
    };
    let cfg = Config {
        seed: flags.get("--seed", 5415)?,
        seconds,
        scale: flags.scale(),
        mode,
    };
    let tallies = bench::run(&workloads, &cfg);
    bench::print_report(&tallies, &cfg);
    let doc = bench::document(&tallies, &cfg);
    if let Some(path) = flags.values.get("--out") {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("results -> {path}");
    }
    match tallies.as_slice() {
        [one] => println!("{}", bench::result_line(one, mode)),
        _ => println!("{doc}"),
    }
    Ok(0)
}

/// One repetition in this process; prints the report line the parent reads.
fn cmd_child(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--shards", "--traced"])?;
    let rep = run_rep(
        flags.workload()?,
        flags.scale(),
        flags.get("--seed", 5415)?,
        flags.get("--shards", 1)?,
        flags.get("--traced", 0u8)? == 1,
    );
    println!("{}", bench::rep_to_json(&rep));
    Ok(0)
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [base, head] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let c = compare::compare(&read(base)?, &read(head)?)?;
    print!("{}", compare::render(&c));
    let regressed = c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    println!("{} compared, {regressed} regressed", c.rows.len());
    Ok(i32::from(regressed > 0))
}
