//! The occupancy calculator — NVIDIA's occupancy rules for resident
//! blocks/warps per SM.
//!
//! Occupancy ("the ratio of the total number of resident threads (warps)
//! and the maximum theoretical number of threads per multiprocessor",
//! paper Fig. 9 caption) is the quantity the paper's shared-vs-global
//! configuration switch optimizes: shared-memory model tables shrink the
//! resident block count as the model grows; moving tables to global memory
//! restores occupancy at the price of access latency (§IV).

use crate::device::{DeviceSpec, WARP_SIZE};
use crate::exec::KernelConfig;

/// Which resource capped residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccLimit {
    /// Register file exhausted (the paper's P7Viterbi cap, §IV).
    Registers,
    /// Shared memory exhausted (the paper's MSV large-model cap).
    SharedMem,
    /// Hardware block slots exhausted.
    BlockSlots,
    /// Hardware warp slots exhausted (the 100% line).
    WarpSlots,
}

/// Residency of one kernel configuration on one SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub resident_blocks: usize,
    /// Warps resident per SM.
    pub resident_warps: usize,
    /// `resident_warps / max_warps_per_sm`.
    pub occupancy: f64,
    /// The binding constraint.
    pub limit: OccLimit,
}

/// Compute residency of `cfg` on `dev`.
pub fn occupancy(dev: &DeviceSpec, cfg: &KernelConfig) -> Occupancy {
    let wpb = cfg.warps_per_block;
    let regs_per_block = cfg.regs_per_thread * WARP_SIZE * wpb;
    let by_regs = dev
        .regs_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(usize::MAX);
    let by_smem = dev
        .smem_per_sm
        .checked_div(cfg.smem_per_block)
        .unwrap_or(usize::MAX);
    let by_slots = dev.max_blocks_per_sm;
    let by_warps = dev.max_warps_per_sm / wpb;

    // The tightest limit; on a tie the first listed names it.
    let (blocks, limit) = [
        (by_slots, OccLimit::BlockSlots),
        (by_regs, OccLimit::Registers),
        (by_smem, OccLimit::SharedMem),
    ]
    .into_iter()
    .fold((by_warps, OccLimit::WarpSlots), |best, next| {
        if next.0 < best.0 {
            next
        } else {
            best
        }
    });

    let warps = blocks * wpb;
    Occupancy {
        resident_blocks: blocks,
        resident_warps: warps,
        occupancy: warps as f64 / dev.max_warps_per_sm as f64,
        limit,
    }
}

/// Number of grid blocks that keeps every SM's resident slots filled at
/// least `waves` times over — the launch size the tiered scheduler picks.
pub fn saturating_grid(dev: &DeviceSpec, occ: &Occupancy, waves: usize) -> usize {
    (occ.resident_blocks.max(1)) * dev.sm_count * waves.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(wpb: usize, regs: usize, smem: usize) -> KernelConfig {
        KernelConfig {
            warps_per_block: wpb,
            blocks: 1,
            regs_per_thread: regs,
            smem_per_block: smem,
            track_hazards: false,
        }
    }

    #[test]
    fn full_occupancy_small_footprint() {
        let dev = DeviceSpec::tesla_k40();
        // 8 warps/block, 32 regs/thread, 2 KB shared: 64/8 = 8 blocks by
        // warps; regs allow 65536/(32*32*8)=8; smem allows 24.
        let o = occupancy(&dev, &cfg(8, 32, 2048));
        assert_eq!(o.resident_warps, 64);
        assert!((o.occupancy - 1.0).abs() < 1e-12);
        assert_eq!(o.limit, OccLimit::WarpSlots);
    }

    #[test]
    fn register_cap_matches_paper_viterbi_claim() {
        // §IV: P7Viterbi at ~63 regs/thread caps Kepler occupancy at 50%.
        let dev = DeviceSpec::tesla_k40();
        let o = occupancy(&dev, &cfg(8, 63, 4096));
        assert_eq!(o.limit, OccLimit::Registers);
        assert_eq!(o.resident_blocks, 4); // 65536/(63*32*8) = 4.06
        assert!((o.occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_cap_kicks_in_for_large_models() {
        let dev = DeviceSpec::tesla_k40();
        // A 40 KB block (big model tables) leaves room for one block.
        let o = occupancy(&dev, &cfg(8, 32, 40 * 1024));
        assert_eq!(o.limit, OccLimit::SharedMem);
        assert_eq!(o.resident_blocks, 1);
        assert_eq!(o.resident_warps, 8);
    }

    #[test]
    fn fermi_has_less_headroom() {
        let k = occupancy(&DeviceSpec::tesla_k40(), &cfg(8, 40, 4096));
        let f = occupancy(&DeviceSpec::gtx_580(), &cfg(8, 40, 4096));
        assert!(
            f.occupancy < k.occupancy,
            "{} vs {}",
            f.occupancy,
            k.occupancy
        );
        assert_eq!(f.limit, OccLimit::Registers); // 32768/(40*32*8) = 3 blocks = 24/48
    }

    #[test]
    fn zero_footprint_limited_by_hardware_slots() {
        let dev = DeviceSpec::tesla_k40();
        let o = occupancy(&dev, &cfg(2, 0, 0));
        // 64/2 = 32 blocks by warps, but only 16 block slots.
        assert_eq!(o.limit, OccLimit::BlockSlots);
        assert_eq!(o.resident_warps, 32);
    }

    #[test]
    fn oversized_block_gives_zero_residency() {
        let dev = DeviceSpec::tesla_k40();
        let o = occupancy(&dev, &cfg(8, 32, 64 * 1024));
        assert_eq!(o.resident_blocks, 0);
        assert_eq!(o.occupancy, 0.0);
    }

    #[test]
    fn saturating_grid_scales_with_sms() {
        let dev = DeviceSpec::tesla_k40();
        let o = occupancy(&dev, &cfg(8, 32, 2048));
        assert_eq!(saturating_grid(&dev, &o, 4), 8 * 15 * 4);
        let zero = occupancy(&dev, &cfg(8, 32, 64 * 1024));
        assert_eq!(saturating_grid(&dev, &zero, 1), 15); // clamped to 1 block
    }
}
