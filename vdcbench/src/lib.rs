//! `vdcbench`: times the vdcpower runners end to end and layer by layer.
//!
//! Four workloads (see [`workload::Workload`]) each call one public runner.
//! Every repetition runs in a fresh child process, so peak memory is per
//! run, and every result is checked from outside: identities, determinism
//! across repetitions and invariance across shard counts. See README.md.

pub mod bench;
pub mod compare;
pub mod metrics;
pub mod stats;
pub mod workload;
