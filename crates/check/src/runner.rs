//! The property runner: seeded case generation, discard accounting, and
//! greedy bounded shrinking.

use crate::gen::Gen;
use crate::rng::TestRng;
use std::fmt::Debug;

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failed {
    /// An assertion failed with this message.
    Assert(String),
    /// The generated input did not satisfy a precondition
    /// (`prop_assume!`); the case is retried with fresh input.
    Discard,
}

/// Outcome of one property invocation.
pub type CaseResult = Result<(), Failed>;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required.
    pub(crate) cases: u32,
    /// Base seed; every case derives its own stream from it. Overridable
    /// with the `VDC_CHECK_SEED` environment variable to replay a report.
    pub(crate) seed: u64,
    /// Upper bound on accepted shrink steps.
    pub(crate) max_shrinks: u32,
}

/// Discarded inputs allowed per required passing case before a run aborts.
const MAX_DISCARDS_PER_CASE: u32 = 32;

impl Config {
    /// Default configuration with the given case count.
    pub(crate) fn with_cases(cases: u32) -> Config {
        let seed = std::env::var("VDC_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_CAFE);
        Config {
            cases,
            seed,
            max_shrinks: 512,
        }
    }
}

fn mix(seed: u64, case: u64) -> u64 {
    // The workspace seed-stream helper: per-case streams are unrelated,
    // and the derivation matches what it produced before unification, so
    // recorded failing seeds replay the same cases.
    vdc_apptier::rng::seed_stream(seed, case)
}

/// Run `prop` over `cfg.cases` inputs from `gen`; panic on the first
/// failure after shrinking it to a (locally) minimal input.
pub fn check_with<G, F>(cfg: Config, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> CaseResult,
{
    let mut passed = 0u32;
    let mut discards = 0u32;
    let mut case = 0u64;
    while passed < cfg.cases {
        let mut rng = TestRng::seed_from_u64(mix(cfg.seed, case));
        case += 1;
        let input = gen.generate(&mut rng);
        match prop(&input) {
            Ok(()) => passed += 1,
            Err(Failed::Discard) => {
                discards += 1;
                assert!(
                    discards <= cfg.cases * MAX_DISCARDS_PER_CASE,
                    "vdc-check: gave up after {discards} discards \
                     ({passed}/{} cases passed); precondition too strict?",
                    cfg.cases
                );
            }
            Err(Failed::Assert(msg)) => {
                let (minimal, final_msg, steps) =
                    shrink_failure(cfg.max_shrinks, gen, &prop, input, msg);
                panic!(
                    "vdc-check: property failed after {passed} passing case(s)\n\
                     seed: {} (replay with VDC_CHECK_SEED={})\n\
                     shrink steps accepted: {steps}\n\
                     minimal input: {minimal:?}\n\
                     failure: {final_msg}",
                    cfg.seed, cfg.seed
                );
            }
        }
    }
}

fn shrink_failure<G, F>(
    max_shrinks: u32,
    gen: &G,
    prop: &F,
    mut current: G::Value,
    mut msg: String,
) -> (G::Value, String, u32)
where
    G: Gen,
    F: Fn(&G::Value) -> CaseResult,
{
    let mut accepted = 0u32;
    let mut candidates = Vec::new();
    'outer: while accepted < max_shrinks {
        candidates.clear();
        gen.shrink(&current, &mut candidates);
        for cand in candidates.drain(..) {
            if let Err(Failed::Assert(m)) = prop(&cand) {
                current = cand;
                msg = m;
                accepted += 1;
                continue 'outer; // re-shrink from the smaller input
            }
        }
        break; // no candidate still fails: locally minimal
    }
    (current, msg, accepted)
}

/// Run with default shrink/discard limits.
pub fn check<G, F>(cases: u32, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> CaseResult,
{
    check_with(Config::with_cases(cases), gen, prop);
}

/// Assert a condition inside a property; on failure the case shrinks.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::Failed::Assert(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::Failed::Assert(format!(
                "{} ({}:{})",
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err($crate::Failed::Assert(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs,
                file!(),
                line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err($crate::Failed::Assert(format!(
                "{}\n  left: {:?}\n right: {:?} ({}:{})",
                format!($($fmt)+),
                lhs,
                rhs,
                file!(),
                line!()
            )));
        }
    }};
}

/// Discard the case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::Failed::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{usize_range, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(40, &usize_range(0, 100), |&v| {
            counter.set(counter.get() + 1);
            prop_assert!(v < 100);
            Ok(())
        });
        n += counter.get();
        assert_eq!(n, 40);
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        let result = std::panic::catch_unwind(|| {
            check(100, &usize_range(0, 1000), |&v| {
                prop_assert!(v < 500, "value {v} too big");
                Ok(())
            });
        });
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        // Greedy shrink must land exactly on the boundary value.
        assert!(msg.contains("minimal input: 500"), "got: {msg}");
        assert!(msg.contains("VDC_CHECK_SEED="), "got: {msg}");
    }

    #[test]
    fn vec_failures_shrink_structurally() {
        let result = std::panic::catch_unwind(|| {
            check(100, &vec_of(usize_range(0, 100), 0, 10), |v| {
                prop_assert!(v.iter().sum::<usize>() < 120, "sum too big: {v:?}");
                Ok(())
            });
        });
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        // A minimal counterexample never carries 4+ elements: two at most
        // ~100 each already break the bound and drop-shrinks fire first.
        let start = msg.find("minimal input: ").unwrap();
        let line = &msg[start
            ..msg[start..]
                .find('\n')
                .map(|i| start + i)
                .unwrap_or(msg.len())];
        let elems = line.matches(',').count() + 1;
        assert!(elems <= 3, "not structurally shrunk: {line}");
    }

    #[test]
    fn discards_are_retried() {
        let counter = std::cell::Cell::new(0u32);
        check(20, &usize_range(0, 100), |&v| {
            prop_assume!(v % 2 == 0);
            counter.set(counter.get() + 1);
            prop_assert!(v % 2 == 0);
            Ok(())
        });
        assert_eq!(counter.get(), 20);
    }

    #[test]
    #[should_panic(expected = "gave up")]
    fn impossible_precondition_aborts() {
        check(10, &usize_range(0, 100), |&_v| {
            prop_assume!(false);
            Ok(())
        });
    }
}
