//! Discrete-event simulator for multi-tier web applications.
//!
//! This crate is the *plant* that replaces the paper's testbed (§VI-A): a
//! PHP/MySQL RUBBoS instance per application, two VMs per instance, driven
//! by the Apache `ab` load generator at a fixed concurrency level.
//!
//! The substitution preserves what matters to the controller:
//!
//! * each tier runs in a VM whose CPU allocation (GHz) bounds its service
//!   rate — tiers are **processor-sharing queues** (the standard model of a
//!   time-shared CPU serving web requests);
//! * the workload is **closed-loop**: a fixed number of emulated clients
//!   (`ab`'s concurrency level) each keep exactly one request in flight,
//!   optionally separated by think time;
//! * requests traverse the tiers in order (web tier, then database tier,
//!   …), so response time couples the allocations of *all* tier VMs — the
//!   MIMO structure that motivates the paper's MPC design;
//! * service demands are random (log-normal), so measured 90-percentile
//!   response times are noisy, like a real system.
//!
//! Modules:
//!
//! * [`profile`] — workload profiles (per-tier service demands, think time,
//!   RUBBoS-like presets).
//! * [`sim`] — the discrete-event engine ([`sim::AppSim`]).
//! * [`monitor`] — response-time statistics ([`monitor::ResponseStats`]),
//!   including the 90-percentile SLA metric the paper controls.
//! * `mva` (private) — analytic Mean Value Analysis of the same closed
//!   network, used for cross-validation and by the analytic plant.
//! * [`plant`] — the [`plant::Plant`] trait a controller drives (the DES
//!   and the analytic plant are interchangeable behind it).
//! * [`analytic`] — an instant MVA-backed plant for tuning sweeps.

#![warn(missing_docs)]

pub mod analytic;
pub mod monitor;
mod mva;
pub mod plant;
pub mod profile;
pub mod rng;
pub mod sim;

pub use analytic::AnalyticPlant;
pub use monitor::ResponseStats;
pub use plant::Plant;
pub use profile::{TierDemand, WorkloadProfile};
pub use sim::AppSim;

/// Errors from plant construction or operation.
#[derive(Debug, Clone, PartialEq)]
pub enum AppTierError {
    /// A configuration value was invalid.
    BadConfig(String),
}

impl std::fmt::Display for AppTierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppTierError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for AppTierError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AppTierError>;
