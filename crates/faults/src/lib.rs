//! Deterministic fault injection for the run loops.
//!
//! Every fault-free result in this workspace assumes hosts never die,
//! migrations never fail, and the controller always sees a clean
//! response-time sample. This crate supplies the adversary: a
//! [`FaultPlan`] drawn *up front* from a [`vdc_apptier::rng::SimRng`]
//! under per-fault-class seed streams (the same discipline as
//! `ChurnWorkload::generate`), so the same seed always produces the same
//! storm and the run loops only ever *read* the plan — sharded replays of
//! a faulted run stay bit-identical at every shard count.
//!
//! Four fault classes:
//!
//! * **host crashes** — per-host exponential inter-failure times at one
//!   MTTF for every host, with exponential repair times (MTTR),
//!   pre-rolled into a sorted crash/recover event stream;
//! * **migration failures** — each migration attempt in an optimizer plan
//!   fails with probability `p`; outcomes are a pure function of the plan
//!   seed and the attempt ordinal, consumed through a [`FaultSession`]
//!   cursor in deterministic apply order;
//! * **wake failures** — the `WakeAndRetry` admission path's wake attempts
//!   fail with probability `p`, same ordinal-indexed scheme;
//! * **sensor dropout** — per-app windows during which the response-time
//!   measurement is masked (`None`, never `0.0`), pre-rolled per app.
//!
//! [`FaultPlan::empty`] (or any plan whose config injects nothing) is the
//! contract anchor: run loops treat it exactly like "no faults", so the
//! output is byte-identical to a plain run.

#![warn(missing_docs)]

pub mod plan;

pub use plan::{DropoutWindow, FaultConfig, FaultPlan, FaultSession, HostFault, HostFaultKind};
