//! # h3w-core — warp-synchronous MSV and P7Viterbi kernels
//!
//! The paper's contribution (§III), implemented on the `h3w-simt`
//! simulator: warp-per-sequence scoring with register double-buffering,
//! conflict-free shared-memory layout, warp-shuffled reductions, packed
//! residues, parallel Lazy-F, the three-tiered scheduler with the
//! shared/global cache-aware switch, and multi-GPU database partitioning
//! ([`multi_gpu`]).

pub mod dd_prefix;
pub mod feed;
pub mod fwd_warp;
pub mod layout;
pub mod msv_warp;
pub mod multi_gpu;
pub mod naive;
pub mod stage;
pub mod stats_model;
pub mod tiered;
pub mod vit_warp;

pub use fwd_warp::{FwdHit, FwdWarpKernel};
pub use layout::{MemConfig, Stage};
pub use msv_warp::{MsvHit, MsvWarpKernel};
pub use stage::WarpStage;
pub use stats_model::DbAggregates;
pub use tiered::{
    auto_mem_config, model_stage_time, run_fwd_device, run_msv_device, run_vit_device, Effort,
    MsvRun, StageRun, SweepError, VitRun,
};
pub use vit_warp::{VitHit, VitWarpKernel, WarpLazyStats};
