//! # h3w-simt — a warp-accurate SIMT GPU simulator
//!
//! The hardware substrate of the `hmmer3-warp` reproduction (DESIGN.md §2):
//! since warp-synchronous CUDA kernels cannot be run here, this crate
//! executes them *functionally* in lockstep lane vectors while counting the
//! events the paper's performance arguments rest on, and converts those
//! counts to time through published device specifications.
//!
//! * [`device`] — Tesla K40 / GTX 580 specs (device facts);
//! * [`lanes`] — 32-wide lockstep registers, `shfl_xor`, votes;
//! * [`smem`] — banked shared memory: conflict counting and an inter-warp
//!   race detector (the Fig. 4 argument, mechanized);
//! * [`counters`] — per-kernel event totals;
//! * [`exec`] — block/grid scheduler for independent-warp and cooperative
//!   kernels (Rayon across blocks);
//! * [`occupancy`](mod@occupancy) — NVIDIA residency rules (registers / shared memory /
//!   slots);
//! * [`timing`] — counted events × device rates with occupancy-driven
//!   latency hiding and measured load imbalance.

pub mod counters;
pub mod device;
pub mod exec;
pub mod lanes;
pub mod occupancy;
pub mod smem;
pub mod timing;

pub use counters::KernelStats;
pub use device::{DeviceSpec, WARP_SIZE};
pub use exec::{
    fermi_scratch_per_warp, run_grid, run_grid_blocks, BlockKernel, GridResult, KernelConfig,
    SimtCtx, WarpKernel,
};
pub use lanes::{lane_ids, Lanes};
pub use occupancy::{occupancy, saturating_grid, OccLimit, Occupancy};
pub use smem::SharedMem;
pub use timing::{imbalance_factor, kernel_time, TimeBreakdown};
