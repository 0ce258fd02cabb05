//! # h3w-benchmark — the repository's one reproducible benchmark
//!
//! Five workloads, three end-to-end metrics every workload reports, and
//! the per-layer metrics each workload declares, all measured from
//! outside the crates: by timing calls into their public functions and
//! reading their public results. See `README.md` for how to run and
//! compare, and `BENCHMARK.json` at the repository root for the contract
//! a later change is held to.
//!
//! [`metrics`] is the table of record; [`layers`] holds every call into
//! the repository (the pinned API); [`workloads`] says what one operation
//! of each workload is; [`phases`] are the child processes (`setup`,
//! `run`, `layers`); [`driver`] runs them and speaks the command lines;
//! [`compare`] judges two result files.

#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod phases;
pub mod spans;
pub mod stats;
pub mod workloads;
