//! # h3w-bench — figure harnesses and benchmarks
//!
//! Library support for the `reproduce` harness (DESIGN.md §4 experiment
//! index) and the gate binaries: the CPU baseline time model
//! ([`baseline`]), sample-plus-extrapolation workload construction
//! ([`workload`]), the figure-series computation ([`figures`]) and the
//! binaries' one error path ([`error`]).

pub mod baseline;
pub mod error;
pub mod figures;
pub mod json;
pub mod workload;

pub use baseline::CpuModel;
pub use figures::{fig9_row, overall_row, prepare_point, prepare_series, Fig9Row, OverallRow};
pub use workload::{DbPreset, MeasuredRates, Workload};
