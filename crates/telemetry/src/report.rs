//! Leveled, human-facing progress reporting.
//!
//! The workspace convention (see DESIGN.md §"Telemetry"): **stdout is
//! reserved for machine-readable results** — figure tables, JSON paths,
//! CSV — while narration ("running 25 of 96…", run parameters, warnings)
//! goes through a [`Reporter`] to **stderr**, filtered by a verbosity
//! level. `--quiet` silences narration entirely; `--verbose` adds debug
//! detail; warnings always print.
//!
//! The same module holds the one command-line flag parser that `vdcpower`
//! and the experiment binaries share. Each entry point lists the flags it
//! reads in one table of [`Flag`]s, and [`check_flags`] rejects any other
//! flag before the run starts. [`arg_num`], [`arg_count`], [`arg_value`]
//! and [`arg_present`] then read the flags: a flag given without a value,
//! a value that does not parse, or 0 for a count ends the run through
//! [`exit_with`] with one line naming the flag.

use std::io::Write;
use std::str::FromStr;

/// Verbosity of a [`Reporter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Warnings only.
    Quiet,
    /// Progress narration (the default).
    Info,
    /// Extra detail for debugging runs.
    Debug,
}

/// Writes leveled narration to stderr.
#[derive(Debug, Clone, Copy)]
pub struct Reporter {
    level: Level,
}

impl Default for Reporter {
    fn default() -> Self {
        Reporter::new(Level::Info)
    }
}

impl Reporter {
    /// Reporter at an explicit level.
    pub(crate) fn new(level: Level) -> Reporter {
        Reporter { level }
    }

    /// Reporter configured from command-line arguments: `--quiet`/`-q`
    /// selects [`Level::Quiet`], `--verbose`/`-v` selects [`Level::Debug`]
    /// (quiet wins when both are given), anything else [`Level::Info`].
    pub fn from_args(args: &[String]) -> Reporter {
        let has = |long: &str, short: &str| arg_present(args, long) || arg_present(args, short);
        let level = if has("--quiet", "-q") {
            Level::Quiet
        } else if has("--verbose", "-v") {
            Level::Debug
        } else {
            Level::Info
        };
        Reporter::new(level)
    }

    fn emit(&self, prefix: &str, msg: &str) {
        // A failed stderr write (closed pipe) must not kill the run.
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{prefix}{msg}");
    }

    /// Progress narration; silenced by `--quiet`.
    pub fn info(&self, msg: &str) {
        if self.level >= Level::Info {
            self.emit("", msg);
        }
    }

    /// Debug detail; emitted only with `--verbose`.
    pub fn debug(&self, msg: &str) {
        if self.level >= Level::Debug {
            self.emit("debug: ", msg);
        }
    }

    /// Warning; always emitted, at every level.
    pub fn warn(&self, msg: &str) {
        self.emit("warning: ", msg);
    }
}

/// A flag an entry point reads, as its flag table lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    name: &'static str,
    /// A second spelling, such as `-q` for `--quiet`.
    short: Option<&'static str>,
    /// Whether the next argument is the flag's value.
    takes_value: bool,
}

impl Flag {
    /// A flag followed by its value, such as `--vms 40`.
    pub const fn value(name: &'static str) -> Flag {
        Flag {
            name,
            short: None,
            takes_value: true,
        }
    }

    /// A flag that stands alone, such as `--quick`.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            short: None,
            takes_value: false,
        }
    }

    /// `--quiet`, or `-q`, which [`Reporter::from_args`] reads.
    pub const QUIET: Flag = Flag {
        name: "--quiet",
        short: Some("-q"),
        takes_value: false,
    };

    /// `--verbose`, or `-v`, which [`Reporter::from_args`] reads.
    pub const VERBOSE: Flag = Flag {
        name: "--verbose",
        short: Some("-v"),
        takes_value: false,
    };

    fn is(&self, arg: &str) -> bool {
        arg == self.name || self.short == Some(arg)
    }
}

/// The first argument of `args` that looks like a flag (it starts with
/// `-`) but is none of `flags`. The argument after a flag that takes a
/// value is that value, and is never taken for a flag.
fn unknown_flag<'a>(args: &'a [String], flags: &[Flag]) -> Option<&'a str> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match flags.iter().find(|f| f.is(arg)) {
            Some(flag) if flag.takes_value => {
                rest.next();
            }
            Some(_) => {}
            None if arg.starts_with('-') => return Some(arg),
            None => {}
        }
    }
    None
}

/// Check `args` against `flags`, the table of flags an entry point reads:
/// any other flag ends the run through [`exit_with`], with one line that
/// names it and lists the table. Arguments that do not start with `-` (a
/// command name, the program path) pass.
pub fn check_flags(args: &[String], flags: &[Flag]) {
    if let Some(arg) = unknown_flag(args, flags) {
        let known: Vec<String> = flags
            .iter()
            .map(|f| match (f.short, f.takes_value) {
                (Some(short), _) => format!("{}|{short}", f.name),
                (None, true) => format!("{} <value>", f.name),
                (None, false) => f.name.to_string(),
            })
            .collect();
        exit_with(&format!("unknown flag {arg} (flags: {})", known.join(", ")));
    }
}

/// `true` when `flag` appears in `args`.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value after `flag` in `args`, parsed as `T`: `Ok(None)` when the
/// flag is absent, and an error naming the flag when it is the last
/// argument (no value) or its value does not parse.
fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let v = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map(Some)
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

/// A string flag's value, or `None` when the flag is absent. A flag given
/// without a value ends the run through [`exit_with`].
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    flag_value(args, flag).unwrap_or_else(|e| exit_with(&e))
}

/// A numeric flag, or `default` when the flag is absent. A missing or
/// unparsable value ends the run through [`exit_with`]; it never falls
/// back to the default.
pub fn arg_num<T: FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .unwrap_or_else(|e| exit_with(&e))
        .unwrap_or(default)
}

/// A count flag that sizes a run (VMs, servers, apps, samples, days,
/// periods), parsed like [`arg_num`]; 0 ends the run.
pub fn arg_count(args: &[String], flag: &str, default: usize) -> usize {
    let n = arg_num(args, flag, default);
    if n == 0 {
        exit_with(&format!("{flag} must be at least 1"));
    }
    n
}

/// Print `msg` to stderr and exit with status 1: how a binary ends on a
/// bad flag or a failed run, instead of panicking.
pub fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_check::{ascii_string, check, from_fn, prop_assert, prop_assert_eq, Gen, TestRng};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn level_from_flags() {
        assert_eq!(Reporter::from_args(&args(&[])).level, Level::Info);
        assert_eq!(Reporter::from_args(&args(&["--quiet"])).level, Level::Quiet);
        assert_eq!(Reporter::from_args(&args(&["-q"])).level, Level::Quiet);
        assert_eq!(
            Reporter::from_args(&args(&["--verbose"])).level,
            Level::Debug
        );
        assert_eq!(Reporter::from_args(&args(&["-v"])).level, Level::Debug);
        // Quiet wins over verbose.
        assert_eq!(
            Reporter::from_args(&args(&["-v", "--quiet"])).level,
            Level::Quiet
        );
    }

    #[test]
    fn levels_order_quiet_below_info_below_debug() {
        // `info` and `debug` gate on `self.level >= …`.
        assert!(Level::Quiet < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn flag_values() {
        let a = args(&["--seed", "42", "--full", "--name", "x"]);
        assert_eq!(flag_value::<u64>(&a, "--seed"), Ok(Some(42)));
        assert_eq!(flag_value::<u64>(&a, "--missing"), Ok(None));
        assert_eq!(flag_value::<String>(&a, "--name"), Ok(Some("x".into())));
        assert_eq!(
            flag_value::<u64>(&a, "--full"),
            Err("invalid value \"--name\" for --full".into())
        );
        assert!(arg_present(&a, "--full"));
        assert!(!arg_present(&a, "--quick"));
        // A flag given last has no value, for numeric and string flags alike.
        let b = args(&["--vms", "3", "--out"]);
        assert_eq!(
            flag_value::<String>(&b, "--out"),
            Err("--out needs a value".into())
        );
        assert_eq!(
            flag_value::<u64>(&b, "--out"),
            Err("--out needs a value".into())
        );
    }

    /// Junk argv — random ASCII tokens with the flag absent or at any
    /// position, with or without a value after it — never panics the
    /// parser; it reports "absent" only when the flag is absent, returns
    /// the token after the flag when that token parses, and every error
    /// names the flag.
    #[test]
    fn junk_argv_errors_name_the_flag() {
        const FLAG: &str = "--vms";
        let argv = from_fn(|rng: &mut TestRng| {
            let token = ascii_string(0, 6);
            let mut argv: Vec<String> = (0..rng.usize_in(0, 6))
                .map(|_| token.generate(rng))
                .collect();
            if rng.below(4) > 0 {
                let at = rng.usize_in(0, argv.len() + 1);
                if at < argv.len() && rng.bool() {
                    argv.insert(at, rng.below(1000).to_string());
                }
                argv.insert(at, FLAG.to_string());
            }
            argv
        });
        check(512, &argv, |argv| {
            let after = argv.iter().position(|a| a == FLAG).map(|i| argv.get(i + 1));
            match flag_value::<u32>(argv, FLAG) {
                Ok(None) => prop_assert!(after.is_none(), "{FLAG} present but reported absent"),
                Ok(Some(v)) => {
                    prop_assert_eq!(after.flatten().and_then(|t| t.parse().ok()), Some(v))
                }
                Err(e) => {
                    prop_assert!(after.is_some(), "error {e:?} without {FLAG}");
                    prop_assert!(e.contains(FLAG), "error {e:?} does not name {FLAG}");
                }
            }
            match flag_value::<String>(argv, FLAG) {
                Ok(v) => prop_assert_eq!(after.flatten(), v.as_ref()),
                Err(e) => {
                    prop_assert_eq!(after, Some(None));
                    prop_assert!(e.contains(FLAG), "error {e:?} does not name {FLAG}");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn only_the_flags_of_the_table_pass() {
        const TABLE: &[Flag] = &[Flag::value("--vms"), Flag::switch("--quick"), Flag::QUIET];
        let unknown = |list: &[&str]| unknown_flag(&args(list), TABLE).map(str::to_string);
        assert_eq!(unknown(&["run", "--vms", "5", "--quick", "-q"]), None);
        assert_eq!(unknown(&["--quiet", "path/to/bin"]), None);
        // A value that looks like a flag is the flag's value.
        assert_eq!(unknown(&["--vms", "-3"]), None);
        assert_eq!(
            unknown(&["--vms", "5", "--sampels", "4"]),
            Some("--sampels".into())
        );
        assert_eq!(unknown(&["--quick", "7", "-x"]), Some("-x".into()));
        // A switch takes no value, so what follows it is checked.
        assert_eq!(unknown(&["--quick", "--vmz"]), Some("--vmz".into()));
        assert_eq!(unknown(&["--verbose"]), Some("--verbose".into()));
    }

    #[test]
    fn emitting_does_not_panic() {
        let r = Reporter::new(Level::Debug);
        r.info("info line");
        r.debug("debug line");
        r.warn("warn line");
        Reporter::new(Level::Quiet).info("silenced");
    }
}
