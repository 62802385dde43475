//! Data-center utilization traces.
//!
//! The paper's large-scale evaluation (§VI-B) replays "a trace file
//! \[recording\] the average CPU utilization of each server every 15 minutes
//! from 00:00 on July 14th (Monday) to 23:45 on July 20th (Sunday) in
//! 2008" for 5,415 servers from ten companies across the manufacturing,
//! telecommunications, financial, and retail sectors, treating each
//! server's utilization series as the CPU demand of one VM.
//!
//! That trace (from SHIP, PACT'09 \[24\]) is proprietary, so this crate
//! provides:
//!
//! * [`generate`] — a statistical generator reproducing the structure that
//!   matters to consolidation: per-sector diurnal shapes, weekday/weekend
//!   contrast, heterogeneous per-VM scale, autocorrelated noise, and flash
//!   crowds ([`generate::TraceConfig::paper_scale`] emits exactly 5,415
//!   VMs × 672 samples at 15-minute spacing). [`generate_windows`] runs
//!   the same draws but stores each VM's values only over a window of
//!   samples, for callers that read a VM only part of the horizon;
//! * [`store`] — an in-memory trace type ([`store::UtilizationTrace`]) and
//!   a CSV codec so the real trace can be dropped in if available;
//! * [`stream`] — a constant-memory streaming generator
//!   ([`stream::StreamingTrace`]) and the [`stream::DemandSource`] trait the
//!   replay loops are generic over, for fleets whose full-week matrix would
//!   not fit in memory.

#![warn(missing_docs)]

pub mod generate;
pub mod sector;
pub mod stats;
pub mod store;
pub mod stream;

pub use generate::{generate_trace, generate_windows, TraceConfig};
pub use sector::Sector;
pub use stats::{trace_stats, TraceStats};
pub use store::{TraceError, UtilizationTrace, VmTraceMeta};
pub use stream::{DemandSource, StreamingTrace};
