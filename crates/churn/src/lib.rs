//! VM lifecycle churn: deterministic workload events and admission control.
//!
//! The paper's IPAC (§V) is an *incremental* consolidation algorithm, but
//! a fixed-population replay only ever exercises it from a quasi-static
//! placement. This crate supplies the missing axis: a deterministic
//! stream of timestamped VM lifecycle events — steady arrivals whose rate
//! follows a diurnal profile, exponential lifetimes, and batch flash
//! crowds — plus the admission policies consulted when Minimum Slack
//! finds no feasible server for an arrival. `vdc-core`'s `run_churn`
//! replays the stream against the control/optimizer cadence, so IPAC
//! re-plans against a placement that drifts between invocations.
//!
//! Everything is drawn from [`vdc_apptier::rng::SimRng`] under a single
//! workload seed and generated up front, single-threaded; run loops only
//! read the workload, preserving bit-identical sharded replay. Each churn
//! VM's demand is stored only over the samples a run reads it at, from
//! its arrival through its departure.

pub mod admission;
pub mod events;
pub mod workload;

pub use admission::AdmissionPolicy;
pub use events::{EventKind, VmEvent};
pub use workload::{ChurnConfig, ChurnWorkload, FlashCrowd};
