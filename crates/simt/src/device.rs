//! Simulated device specifications.
//!
//! The two GPUs the paper evaluates on, parameterized from NVIDIA's
//! published architecture documents (Kepler GK110 whitepaper, Fermi GF110
//! datasheet). These numbers drive the occupancy calculator (register
//! file, shared memory, residency limits), the analytic timing model
//! (clock, issue rate, bandwidths) and the kernels' reduction path
//! (`has_shfl`); they are *device facts*, not fitted constants (the five
//! fitted constants live in [`crate::timing`] and are documented there).
//! The CPU baseline of §IV is `h3w-bench`'s `CpuModel`.

/// Fixed warp width of every CUDA device the paper targets.
pub const WARP_SIZE: usize = 32;

/// Shared-memory banks per SM (both architectures).
pub const SMEM_BANKS: usize = 32;

/// Width of one shared-memory bank word in bytes.
pub const BANK_WIDTH: usize = 4;

/// Global-memory transaction granularity (L1 line) in bytes.
pub const GMEM_SEGMENT: usize = 128;

/// One simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Streaming multiprocessors (SM / SMX).
    pub sm_count: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Shared memory per SM in bytes (48 KB configuration).
    pub smem_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Warp instructions issued per SM per cycle (schedulers × dual issue,
    /// derated to the sustained rate for dependent integer code).
    pub issue_per_cycle: f64,
    /// Peak global-memory (DRAM) bandwidth, bytes/s.
    pub gmem_bw: f64,
    /// L2 cache bandwidth, bytes/s (serves resident model tables in the
    /// global configuration).
    pub l2_bw: f64,
    /// Whether `shfl`/`__shfl_xor` exists (Kepler+). On Fermi the kernels
    /// fall back to shared-memory reductions (§IV-A).
    pub has_shfl: bool,
}

impl DeviceSpec {
    /// NVIDIA Tesla K40 (Kepler GK110B) — the paper's single-GPU platform.
    pub fn tesla_k40() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla K40",
            sm_count: 15,
            clock_hz: 745.0e6,
            regs_per_sm: 65_536,
            smem_per_sm: 48 * 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            // 4 schedulers × dual issue = 8 peak; sustained ≈ 6 for the
            // kernels' independent integer streams (double-buffered loads
            // dual-issue with ALU ops, §III-A).
            issue_per_cycle: 6.0,
            gmem_bw: 288.0e9,
            l2_bw: 500.0e9,
            has_shfl: true,
        }
    }

    /// NVIDIA GTX 580 (Fermi GF110) — the paper's multi-GPU platform (×4).
    pub fn gtx_580() -> DeviceSpec {
        DeviceSpec {
            name: "GTX 580",
            sm_count: 16,
            clock_hz: 1544.0e6, // shader clock (Fermi hot clock)
            regs_per_sm: 32_768,
            smem_per_sm: 48 * 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            // 32 hot-clocked cores retire one warp instruction per hot
            // clock; dependent integer chains sustain ≈ 1.
            issue_per_cycle: 1.0,
            gmem_bw: 192.0e9,
            l2_bw: 300.0e9,
            has_shfl: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_facts() {
        let d = DeviceSpec::tesla_k40();
        assert!(d.has_shfl);
        assert_eq!(d.regs_per_sm, 65_536);
        assert_eq!(d.max_warps_per_sm, 64);
        // 15 SMX × 64 warps × 32 threads = 30720 resident threads max.
        assert_eq!(d.sm_count * d.max_warps_per_sm * WARP_SIZE, 30_720);
    }

    #[test]
    fn fermi_differences_match_section_iv() {
        let k = DeviceSpec::tesla_k40();
        let f = DeviceSpec::gtx_580();
        // §IV-A: "Fermi ... not equipped with inter-thread exchange" and
        // "32KB of registers per SM as opposed to 64KB on the Kepler".
        assert!(!f.has_shfl);
        assert_eq!(f.regs_per_sm, k.regs_per_sm / 2);
        assert!(f.max_warps_per_sm < k.max_warps_per_sm);
    }
}
