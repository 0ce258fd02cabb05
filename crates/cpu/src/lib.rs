//! # h3w-cpu — the HMMER 3.0 CPU baseline
//!
//! A from-scratch reimplementation of HMMER 3.0's compute core, serving two
//! roles in the `hmmer3-warp` reproduction:
//!
//! 1. **Ground truth** — [`mod@reference`] holds exact float-space MSV,
//!    Viterbi, Forward and Backward; [`quantized`] holds the scalar 8-bit /
//!    16-bit filter pipelines every optimized implementation must match
//!    bit-exactly.
//! 2. **The baseline the paper speeds up against** — [`striped_msv`] and
//!    [`striped_vit`] are Farrar-striped SSE-style filters (emulated lanes
//!    in [`simd`]), swept multi-core via the `h3w-pool` work-stealing
//!    pool in [`sweep`], standing in for "HMMER 3.0 utilizing multi-core
//!    and SSE capabilities" (§IV).

pub mod backend;
pub mod batch;
pub mod null2;
pub mod posterior;
pub mod quantized;
pub mod reference;
pub mod simd;
pub mod striped_fwd;
pub mod striped_msv;
pub mod striped_vit;
pub mod sweep;
pub mod traceback;
pub mod x86;

pub use backend::Backend;
pub use batch::{BatchWorkspace, MAX_BATCH};
pub use null2::null2_correction;
pub use posterior::{find_domains, posterior_decode, posterior_decode_with, Domain, Posterior};
pub use quantized::{msv_filter_scalar, vit_filter_scalar, MsvOutcome, VitOutcome};
pub use reference::{
    backward_generic, forward_generic, msv_filter_model, msv_generic, viterbi_filter_model,
};
pub use striped_fwd::{FwdBatchWorkspace, FwdMatrix, FwdWorkspace, StripedFwd};
pub use striped_msv::StripedMsv;
pub use striped_vit::{LazyFStats, StripedVit, VitWorkspace};
pub use sweep::{
    batch_schedule_stats, fwd_sweep_batched, length_binned_batches, msv_sweep_batched,
    outcomes_batched, sweep_batched, vit_sweep, BatchKernel, BatchScheduleStats, SweepTiming,
};
pub use traceback::{viterbi_trace, AlignedSegment, Alignment, TraceState};

// The execution substrate the sweeps fan out on, re-exported so sweep
// callers don't need their own `h3w-pool` dependency line.
pub use h3w_pool;
pub use h3w_pool::{PoolHandle, PoolStats, ThreadPool};
