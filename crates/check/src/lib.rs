//! Minimal std-only property-testing harness.
//!
//! A hermetic replacement for the subset of `proptest` this workspace
//! used: seeded random generation over `f64`/`usize`/`Vec` (and tuples,
//! strings, fixed choices), preconditions via [`prop_assume!`], and
//! greedy bounded shrinking of failing inputs. No external dependencies,
//! so the test suite builds offline.
//!
//! ```
//! use vdc_check::{check, prop_assert, vec_of, f64_range};
//!
//! check(64, &vec_of(f64_range(0.0, 1.0), 1, 8), |v| {
//!     let mean = v.iter().sum::<f64>() / v.len() as f64;
//!     prop_assert!((0.0..1.0).contains(&mean));
//!     Ok(())
//! });
//! ```
//!
//! Failures panic with the base seed (replay with `VDC_CHECK_SEED=<n>`)
//! and the shrunk minimal input.

#![warn(missing_docs)]

pub mod gen;
pub mod rng;
pub mod runner;

pub use gen::{
    ascii_string, choose, f64_range, from_fn, map, usize_range, vec_of, AsciiString, Choose,
    F64Range, FromFn, Gen, Map, UsizeRange, VecOf,
};
pub use rng::TestRng;
pub use runner::{check, check_with, CaseResult, Config, Failed};
