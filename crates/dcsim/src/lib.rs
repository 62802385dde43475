//! Virtualized data-center substrate: servers, DVFS, power, VMs, migration.
//!
//! This crate replaces the paper's physical infrastructure (§VI): Xen 3.3
//! hosts with DVFS-capable processors, VM live migration, and server
//! sleep/active states. It provides:
//!
//! * [`power`] — parametric server power models `P(f, u)` with static and
//!   frequency-cubed dynamic components, plus a sleep state;
//! * [`server`] — [`ServerSpec`], the one description of a server model
//!   (cores, DVFS frequency ladder, memory, power model, wake latency),
//!   the three CPU types of §VI-B (3 GHz quad-core, 2 GHz dual-core,
//!   1.5 GHz dual-core), runtime server state, and the **CPU resource
//!   arbitrator** of §IV that picks the lowest frequency satisfying
//!   aggregate VM demand;
//! * [`vm`] — VM descriptors (CPU demand in GHz, memory) as seen by the
//!   consolidation layer;
//! * [`datacenter`] — placement state, migration mechanics with cost
//!   accounting, sleep/wake transitions, and energy integration;
//! * [`profile`] — the heterogeneous hardware catalog: a [`HostCatalog`]
//!   is a validated list of [`ServerSpec`]s addressed by [`ProfileId`],
//!   seeded with nine SPECpower-style machines;
//! * [`fleet`] — multi-site fleet specs ([`FleetSpec`] / [`SiteSpec`]) with
//!   weighted profile mixes and per-site PUE series ([`PueSeries`]) that
//!   scale IT power to facility power.

#![warn(missing_docs)]

pub mod datacenter;
pub mod fleet;
pub mod json;
pub mod power;
pub mod profile;
pub mod server;
pub mod vm;

pub use datacenter::{DataCenter, DvfsDecision};
pub use fleet::{FleetSpec, PueSeries, SiteSpec};
pub use power::PowerModel;
pub use profile::{HostCatalog, ProfileId};
pub use server::{CpuArbitrator, Server, ServerHandle, ServerSpec, ServerState};
pub use vm::{VmHandle, VmId, VmSpec};

/// Errors from data-center operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DcError {
    /// Referenced an unknown VM.
    UnknownVm(u64),
    /// Referenced an unknown server.
    UnknownServer(usize),
    /// Used a [`VmHandle`] whose generation no longer matches its arena
    /// slot (the VM was removed; the slot may since host a new tenant
    /// under a bumped generation) or whose slot is out of range.
    StaleHandle(usize),
    /// VM is already placed / not placed as required.
    BadPlacement(String),
    /// Capacity or configuration violation.
    Invalid(String),
    /// Targeted a server that is in the [`ServerState::Failed`] state
    /// (wake, placement, or DVFS against a crashed host).
    ServerFailed(usize),
    /// A VM evacuated from a failed host could not be re-placed anywhere
    /// (active capacity and the sleeping pool are both exhausted).
    Stranded(u64),
}

impl std::fmt::Display for DcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcError::UnknownVm(id) => write!(f, "unknown VM {id}"),
            DcError::UnknownServer(id) => write!(f, "unknown server {id}"),
            DcError::StaleHandle(slot) => write!(f, "stale VM handle for slot {slot}"),
            DcError::BadPlacement(s) => write!(f, "bad placement: {s}"),
            DcError::Invalid(s) => write!(f, "invalid: {s}"),
            DcError::ServerFailed(id) => write!(f, "server {id} has failed"),
            DcError::Stranded(id) => write!(f, "VM {id} stranded: no capacity after evacuation"),
        }
    }
}

impl std::error::Error for DcError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DcError>;
