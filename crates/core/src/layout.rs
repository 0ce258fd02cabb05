//! Device-side memory layouts and per-kernel resource budgets.
//!
//! The paper's cache-aware switch (§IV) chooses where the model's score
//! tables live:
//!
//! * [`MemConfig::Shared`] — tables staged into block shared memory at
//!   launch. Low latency, conflict-free (§III-A), but the block's shared
//!   footprint grows with the model and residency collapses for large
//!   models;
//! * [`MemConfig::Global`] — tables stay in device global memory. Residency
//!   stays high (only the DP rows occupy shared memory) at the price of a
//!   global transaction per table read.
//!
//! This module computes both footprints, plus the register budgets that
//! cap P7Viterbi occupancy at 50% on Kepler (§IV).

use h3w_simt::{fermi_scratch_per_warp, DeviceSpec, KernelConfig};

/// Number of residue codes staged on-device: the 26 emitting codes
/// (20 standard + 6 degenerate). Gap/pad codes never reach the scorer —
/// pad (31) terminates the residue loop (Fig. 6).
pub const STAGED_CODES: usize = 26;

/// Registers per thread of the MSV kernel (compiler report in the paper's
/// setting; drives occupancy only).
pub const MSV_REGS_PER_THREAD: usize = 32;

/// Registers per thread of the P7Viterbi kernel — the M/I/D triple plus
/// Lazy-F working set pushes it to the Kepler per-thread cliff, which is
/// what limits Viterbi occupancy to 50% (§IV).
pub const VIT_REGS_PER_THREAD: usize = 63;

/// Synthetic device-global address of the packed residue stream (for
/// coalescing accounting; regions are spaced so they never share segments).
pub const GM_RES_BASE: usize = 0x1000_0000;
/// Synthetic device-global address of the emission score tables.
pub const GM_EMIS_BASE: usize = 0x2000_0000;
/// Synthetic device-global address of the transition score tables.
pub const GM_TRANS_BASE: usize = 0x3000_0000;
/// Synthetic device-global address of the per-sequence score outputs.
pub const GM_OUT_BASE: usize = 0x4000_0000;

/// Where the model tables live during kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemConfig {
    /// Tables staged into shared memory (small models).
    Shared,
    /// Tables read from global memory (large models).
    Global,
}

/// Which stage's kernel — footprints differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// 8-bit MSV filter.
    Msv,
    /// 16-bit P7Viterbi filter.
    Viterbi,
}

/// Shared-memory bytes per block for a kernel configuration.
///
/// MSV: one `(M+1)`-byte DP row per warp, plus (shared config) the
/// `26 × M` byte emission table.
/// Viterbi: three `(M+1)`-word rows per warp, plus (shared config) the
/// `26 × M`-word emission table and 8 `M`-word transition tables.
/// On Fermi every stage adds each warp's reduction scratch ([`fermi_scratch_per_warp`]).
pub fn smem_per_block(
    stage: Stage,
    m: usize,
    warps_per_block: usize,
    mem: MemConfig,
    dev: &DeviceSpec,
) -> usize {
    let rows = match stage {
        Stage::Msv => warps_per_block * (m + 1),
        Stage::Viterbi => warps_per_block * 3 * (m + 1) * 2,
    };
    let tables = match (mem, stage) {
        (MemConfig::Global, _) => 0,
        (MemConfig::Shared, Stage::Msv) => STAGED_CODES * m,
        (MemConfig::Shared, Stage::Viterbi) => (STAGED_CODES + 8) * m * 2,
    };
    let scratch = if dev.has_shfl {
        0
    } else {
        warps_per_block * fermi_scratch_per_warp(elem_width(stage))
    };
    // 256-byte allocation granularity (CUDA shared allocation rounding).
    round_up(rows + tables + scratch, 256)
}

/// Registers per thread for a stage (Fermi spills a little more on the
/// Viterbi kernel but the budget is the same cliff).
pub fn regs_per_thread(stage: Stage) -> usize {
    match stage {
        Stage::Msv => MSV_REGS_PER_THREAD,
        Stage::Viterbi => VIT_REGS_PER_THREAD,
    }
}

/// Byte offsets of the regions inside one block's shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemLayout {
    /// Start of warp `w`'s DP row region (stride [`SmemLayout::row_stride`]).
    pub rows_base: usize,
    /// Bytes from one warp's row region to the next.
    pub row_stride: usize,
    /// Start of the staged emission table (shared config; `usize::MAX`
    /// when tables are in global memory).
    pub emis_base: usize,
    /// Start of the staged transition tables (Viterbi shared config).
    pub trans_base: usize,
    /// Start of the Fermi reduction scratch (`usize::MAX` on Kepler).
    pub scratch_base: usize,
    /// Total bytes (= [`smem_per_block`]).
    pub total: usize,
}

/// Compute the concrete layout matching [`smem_per_block`].
pub fn smem_layout(
    stage: Stage,
    m: usize,
    warps_per_block: usize,
    mem: MemConfig,
    dev: &DeviceSpec,
) -> SmemLayout {
    let row_stride = match stage {
        Stage::Msv => m + 1,
        Stage::Viterbi => 3 * (m + 1) * 2,
    };
    let rows_end = warps_per_block * row_stride;
    let (emis_base, trans_base, tables_end) = match (mem, stage) {
        (MemConfig::Global, _) => (usize::MAX, usize::MAX, rows_end),
        (MemConfig::Shared, Stage::Msv) => (rows_end, usize::MAX, rows_end + STAGED_CODES * m),
        (MemConfig::Shared, Stage::Viterbi) => {
            let emis = rows_end;
            let trans = emis + STAGED_CODES * m * 2;
            (emis, trans, trans + 8 * m * 2)
        }
    };
    let scratch_base = if dev.has_shfl { usize::MAX } else { tables_end };
    SmemLayout {
        rows_base: 0,
        row_stride,
        emis_base,
        trans_base,
        scratch_base,
        total: smem_per_block(stage, m, warps_per_block, mem, dev),
    }
}

/// Block sizes the tiered scheduler searches (warps per block, i.e.
/// `blockDim.y`; `blockDim.x` is fixed at 32).
pub const WPB_CANDIDATES: [usize; 6] = [32, 16, 8, 4, 2, 1];

/// Build the launch configuration the tiered scheduler would use: search
/// [`WPB_CANDIDATES`] and keep the residency-maximizing one (ties prefer
/// more warps/block — fewer blocks to schedule).
pub fn best_config(
    stage: Stage,
    m: usize,
    mem: MemConfig,
    dev: &DeviceSpec,
) -> Option<(KernelConfig, h3w_simt::Occupancy)> {
    let mut best: Option<(KernelConfig, h3w_simt::Occupancy)> = None;
    for wpb in WPB_CANDIDATES {
        if wpb * h3w_simt::WARP_SIZE > dev.max_threads_per_block {
            continue;
        }
        let smem = smem_per_block(stage, m, wpb, mem, dev);
        if smem > dev.smem_per_sm {
            continue;
        }
        let cfg = KernelConfig {
            warps_per_block: wpb,
            blocks: 1, // grid sizing happens at launch
            regs_per_thread: regs_per_thread(stage),
            smem_per_block: smem,
            track_hazards: false,
        };
        let occ = h3w_simt::occupancy(dev, &cfg);
        if occ.resident_blocks == 0 {
            continue;
        }
        let better = match &best {
            None => true,
            Some((_, b)) => occ.occupancy > b.occupancy + 1e-12,
        };
        if better {
            best = Some((cfg, occ));
        }
    }
    best
}

/// Bytes per DP cell, and so per lane of the stage's row reduction.
fn elem_width(stage: Stage) -> usize {
    match stage {
        Stage::Msv => 1,
        Stage::Viterbi => 2,
    }
}

fn round_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_simt::OccLimit;

    #[test]
    fn msv_shared_fits_up_to_paper_limit() {
        // §IV: "MSV models ... of size 1528 could be accommodated within
        // the shared memory".
        let dev = DeviceSpec::tesla_k40();
        let s1528 = best_config(Stage::Msv, 1528, MemConfig::Shared, &dev);
        assert!(s1528.is_some(), "1528 must fit in some configuration");
        let s2405 = best_config(Stage::Msv, 2405, MemConfig::Shared, &dev);
        assert!(s2405.is_none(), "2405 must not fit in shared config");
    }

    #[test]
    fn msv_small_models_reach_full_occupancy() {
        // §IV: "device occupancy is 100% for models of size less than 400".
        let dev = DeviceSpec::tesla_k40();
        for m in [48usize, 100, 200, 399] {
            let (_, occ) = best_config(Stage::Msv, m, MemConfig::Shared, &dev).unwrap();
            assert!(occ.occupancy >= 0.99, "m={m}: occupancy {}", occ.occupancy);
        }
    }

    #[test]
    fn msv_shared_occupancy_decays_with_model_size() {
        let dev = DeviceSpec::tesla_k40();
        let occ_of = |m| {
            best_config(Stage::Msv, m, MemConfig::Shared, &dev)
                .unwrap()
                .1
                .occupancy
        };
        assert!(occ_of(800) <= occ_of(400));
        assert!(occ_of(1528) < occ_of(800));
        assert!(occ_of(1528) < 0.5);
    }

    #[test]
    fn msv_global_keeps_occupancy_high_for_large_models() {
        let dev = DeviceSpec::tesla_k40();
        let (_, shared) = best_config(Stage::Msv, 1528, MemConfig::Shared, &dev).unwrap();
        let (_, global) = best_config(Stage::Msv, 1528, MemConfig::Global, &dev).unwrap();
        assert!(global.occupancy > 2.0 * shared.occupancy);
        let (_, g2405) = best_config(Stage::Msv, 2405, MemConfig::Global, &dev).unwrap();
        assert!(g2405.occupancy > 0.3, "occ {}", g2405.occupancy);
    }

    #[test]
    fn viterbi_is_register_capped_at_half() {
        // §IV: "the device peak occupancy is limited to 50% ... amount of
        // available registers per SM/SMX becomes main limiting factor".
        let dev = DeviceSpec::tesla_k40();
        let (_, occ) = best_config(Stage::Viterbi, 48, MemConfig::Shared, &dev).unwrap();
        assert!(occ.occupancy <= 0.51);
        assert!(occ.occupancy >= 0.49);
        assert_eq!(occ.limit, OccLimit::Registers);
    }

    #[test]
    fn viterbi_occupancy_decays_fast_beyond_200() {
        // §IV: "decreases rapidly for models of size greater than 200".
        let dev = DeviceSpec::tesla_k40();
        let occ_of = |m| {
            best_config(Stage::Viterbi, m, MemConfig::Shared, &dev)
                .unwrap()
                .1
                .occupancy
        };
        assert!(occ_of(200) >= 0.2);
        assert!(occ_of(400) < occ_of(200));
        // Beyond ~650 columns the 16-bit tables + triple rows no longer fit
        // in 48 KB at all: the scheduler must fall back to the global
        // config (which is exactly the paper's switch).
        assert!(best_config(Stage::Viterbi, 800, MemConfig::Shared, &dev).is_none());
        let (_, g) = best_config(Stage::Viterbi, 800, MemConfig::Global, &dev).unwrap();
        assert!(g.occupancy > 0.12, "global fallback occ {}", g.occupancy);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let dev = DeviceSpec::tesla_k40();
        let l = smem_layout(Stage::Viterbi, 100, 4, MemConfig::Shared, &dev);
        assert_eq!(l.rows_base, 0);
        assert_eq!(l.row_stride, 3 * 101 * 2);
        assert_eq!(l.emis_base, 4 * l.row_stride);
        assert_eq!(l.trans_base, l.emis_base + STAGED_CODES * 100 * 2);
        assert!(l.trans_base + 8 * 100 * 2 <= l.total);
        assert_eq!(l.scratch_base, usize::MAX); // Kepler
    }

    #[test]
    fn fermi_layout_reserves_scratch() {
        let dev = DeviceSpec::gtx_580();
        let l = smem_layout(Stage::Msv, 50, 4, MemConfig::Global, &dev);
        assert_ne!(l.scratch_base, usize::MAX);
        assert!(l.scratch_base + 4 * fermi_scratch_per_warp(1) <= l.total);
        assert_eq!(l.emis_base, usize::MAX);
    }

    #[test]
    fn footprint_matches_layout_total() {
        let dev = DeviceSpec::tesla_k40();
        for (stage, mem) in [
            (Stage::Msv, MemConfig::Shared),
            (Stage::Msv, MemConfig::Global),
            (Stage::Viterbi, MemConfig::Shared),
            (Stage::Viterbi, MemConfig::Global),
        ] {
            for m in [1usize, 48, 400] {
                let l = smem_layout(stage, m, 6, mem, &dev);
                assert_eq!(l.total, smem_per_block(stage, m, 6, mem, &dev));
                assert_eq!(l.total % 256, 0);
            }
        }
    }
}
