//! `vdc-core`: the integrated two-level power/performance management
//! runtime of the paper (Fig. 1).
//!
//! * **Application level** ([`controller`]): one response-time controller
//!   per multi-tier application — system identification (PRBS + least
//!   squares) followed by receding-horizon MPC over per-tier CPU
//!   allocations, tracking a 90-percentile response-time set point.
//! * **Server level**: the CPU resource arbitrator from `vdc-dcsim`
//!   aggregates hosted VM demands and throttles each server via DVFS.
//! * **Data-center level** ([`optimizer`]): the power optimizer
//!   (IPAC, or pMapper as baseline) re-maps VMs to servers on a long time
//!   scale and sleeps empty servers.
//!
//! [`cosim`] closes the loop at scale: hundreds of MPC-controlled
//! applications whose workloads follow the trace and whose VM demands come
//! from feedback control, consolidated by IPAC — the complete Fig. 1
//! system end to end.
//!
//! [`testbed`] wires these into the paper's hardware-testbed scenario
//! (4 servers, 8 two-tier RUBBoS-like applications at concurrency 40);
//! [`largescale`] wires the trace-driven 3,000-server simulation of
//! §VII-B. [`experiments`] contains one runner per paper figure.
//!
//! [`tier`] is the pluggable controller seam: the run loops drive every
//! application through the object-safe [`tier::TierController`] trait, and
//! [`tier::ControllerSpec`] selects between the paper MPC (default), the
//! model-free robust provisioning law, and the cooling-coupled MPC.
//!
//! [`largescale`] (with streaming and [`churn`]) and [`cosim`] supply their
//! own demand stage, then run the same data-center stages, in one order,
//! through the crate-private `pipeline` module.
//!
//! The crate-private `shard` module is the deterministic fork–join
//! substrate under the coarse work: the optimizer's pod plans, [`cosim`]'s
//! per-application control periods and the Fig. 6 sizes fan out over
//! scoped threads while every reduction stays a sequential index-order
//! fold, so sharded runs are bit-identical to single-threaded runs at any
//! shard count.

#![warn(missing_docs)]

pub mod churn;
pub mod controller;
pub mod cosim;
pub mod experiments;
pub mod largescale;
pub mod optimizer;
mod pipeline;
pub mod run;
mod shard;
pub mod testbed;
pub mod tier;

pub use churn::{run_churn, ChurnResult};
pub use controller::{IdentificationConfig, ResponseTimeController};
pub use cosim::{run_cosim, CosimConfig, CosimResult};
pub use experiments::Fig6Config;
pub use largescale::{
    run_large_scale, run_large_scale_streaming, LargeScaleConfig, LargeScaleResult, OptimizerKind,
};
pub use optimizer::{pod_partition, OptimizerConfig, PowerOptimizer};
pub use run::RunOptions;
pub use testbed::{Testbed, TestbedConfig};
pub use tier::{ControllerSpec, RobustTierController, TierController, DEFAULT_COOLING_WEIGHT};
pub use vdc_faults::{FaultConfig, FaultPlan, FaultSession};

/// Errors from the integrated runtime.
#[derive(Debug)]
pub enum CoreError {
    /// Control-layer failure.
    Control(vdc_control::ControlError),
    /// Plant-layer failure.
    Plant(vdc_apptier::AppTierError),
    /// Data-center-layer failure.
    DataCenter(vdc_dcsim::DcError),
    /// Configuration problem.
    BadConfig(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Control(e) => write!(f, "control error: {e}"),
            CoreError::Plant(e) => write!(f, "plant error: {e}"),
            CoreError::DataCenter(e) => write!(f, "data-center error: {e}"),
            CoreError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<vdc_control::ControlError> for CoreError {
    fn from(e: vdc_control::ControlError) -> Self {
        CoreError::Control(e)
    }
}

impl From<vdc_apptier::AppTierError> for CoreError {
    fn from(e: vdc_apptier::AppTierError) -> Self {
        CoreError::Plant(e)
    }
}

impl From<vdc_dcsim::DcError> for CoreError {
    fn from(e: vdc_dcsim::DcError) -> Self {
        CoreError::DataCenter(e)
    }
}

/// Result alias for the runtime.
pub type Result<T> = std::result::Result<T, CoreError>;
