//! VM consolidation for power optimization (§V of the paper).
//!
//! The data-center-level optimizer maps VMs to servers so that total power
//! is minimized while every VM's CPU demand (set by the application-level
//! response-time controllers) and every administrator constraint (e.g.
//! memory) is satisfied. Vector packing is NP-hard, so the paper uses
//! heuristics:
//!
//! * [`minslack`] — **Algorithm 1 (Minimum Slack)**: branch-and-bound
//!   selection of the VM subset that leaves the least unallocated CPU on
//!   one server, generalized to arbitrary constraints, with an allowed
//!   slack `ε` early exit and a step budget that relaxes `ε` when the
//!   search is too slow (lines 15–17 of Algorithm 1).
//! * [`pac`] — **Power-Aware Consolidation**: sort servers by power
//!   efficiency (max frequency / max power) and fill them most-efficient
//!   first using Minimum Slack.
//! * [`ipac`] — **Incremental PAC**: per invocation, only a small migration
//!   list (VMs evicted from overloaded servers + all VMs of the least
//!   efficient active server) is repacked; the drain loop repeats while the
//!   active server count keeps dropping.
//! * [`pmapper`] — the baseline of §VII (Verma et al., Middleware'08):
//!   FFD-based two-phase placement with donors and receivers.
//! * [`ffd`] — first-fit / first-fit-decreasing primitives shared by the
//!   baseline.
//! * [`constraint`] — the generalized packing constraints of Algorithm 1
//!   (CPU, memory, composites, custom closures).
//! * [`policy`] — the cost-aware migration interface of §V
//!   ("we provide an interface for data center administrators to define
//!   their own cost functions").
//! * [`exact`] — exponential-time exhaustive reference packer for judging
//!   heuristic quality on tiny instances (tests/ablations only).
//! * [`relief`] — on-demand overload mitigation between optimizer
//!   invocations (§III, citing the authors' Co-Con work \[25\]).
//! * [`view`] — build packing inputs from a [`vdc_dcsim::DataCenter`] and
//!   apply resulting plans back to it.

#![warn(missing_docs)]

pub mod constraint;
pub mod exact;
pub mod ffd;
pub mod ipac;
pub mod item;
pub mod minslack;
pub mod pac;
pub mod plan;
pub mod pmapper;
pub mod policy;
pub mod relief;
pub mod view;

pub use constraint::{AndConstraint, Constraint, CpuConstraint, FnConstraint, MemoryConstraint};
pub use exact::{exact_pack, ExactPacking};
pub use ipac::ipac_plan;
pub use item::{PackItem, PackServer};
pub use minslack::{minimum_slack, MinSlackConfig};
pub use pac::{pac_pack, PacResult};
pub use plan::{ConsolidationPlan, Move};
pub use pmapper::pmapper_plan;
pub use policy::{AlwaysAllow, BandwidthBudget, MigrationPolicy};
pub use relief::{relieve_overloads, ReliefConfig};
