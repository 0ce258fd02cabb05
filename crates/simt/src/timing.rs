//! The analytic timing model — counted events × device rates, with
//! occupancy-driven latency hiding.
//!
//! Model: a kernel is limited by the slower of two pipelines,
//!
//! * **compute**: `issue_slots / (SMs × issue_per_cycle × eff(occ))`
//!   cycles, where `eff(occ) = min(1, occ/knee_c)` — below the knee there
//!   are too few resident warps to cover ALU/shared-memory latency and the
//!   schedulers stall proportionally (the paper's "speedup bears a strong
//!   correlation to the occupancy", §IV);
//! * **memory**: `gmem_bytes / (BW × min(1, occ/knee_m))` — DRAM needs
//!   fewer warps to saturate than the ALUs do.
//!
//! Device facts (clocks, SM counts, bandwidths) live in [`DeviceSpec`].
//! The five constants below ([`OCC_KNEE_COMPUTE`], [`OCC_KNEE_MEMORY`],
//! [`LAUNCH_OVERHEAD_S`], [`BARRIER_EXTRA_SLOTS`], [`L2_EXTRA_SLOTS`]) are
//! *fitted*, and no measurement on real hardware validates them (ROADMAP
//! item 14). Load imbalance across resident warp slots is modeled by
//! greedy-scheduling the measured per-warp work ([`imbalance_factor`]).

use crate::counters::KernelStats;
use crate::device::DeviceSpec;
use crate::occupancy::Occupancy;

/// Occupancy at which the compute pipeline saturates. NVIDIA's tuning
/// guides put ALU-latency hiding for dependent integer chains around 50%
/// occupancy on Kepler/Fermi. Fitted, unvalidated.
pub const OCC_KNEE_COMPUTE: f64 = 0.50;

/// Occupancy at which DRAM bandwidth saturates (memory-level parallelism
/// needs fewer warps; ~25%). Fitted, unvalidated.
pub const OCC_KNEE_MEMORY: f64 = 0.25;

/// Fixed per-launch overhead in seconds (driver + transfer setup).
/// Fitted, unvalidated.
pub const LAUNCH_OVERHEAD_S: f64 = 20e-6;

/// Extra issue slots charged per `__syncthreads` beyond the instruction
/// itself: the average stall while the slowest warp arrives (NVIDIA
/// profiling literature puts block-barrier stalls in the tens of cycles).
/// Fitted, unvalidated.
pub const BARRIER_EXTRA_SLOTS: f64 = 64.0;

/// Extra issue slots per L2 transaction beyond the LD instruction: L2
/// hits occupy the load/store pipe several times longer than a
/// conflict-free shared-memory access (≈ 4; this is what makes the shared
/// configuration win for small models, §IV). Fitted, unvalidated.
pub const L2_EXTRA_SLOTS: f64 = 4.0;

/// Where the time went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds in the compute pipeline (at the achieved efficiency).
    pub compute_s: f64,
    /// Seconds in the DRAM pipeline.
    pub memory_s: f64,
    /// Seconds in the L2 pipeline (cached table traffic).
    pub l2_s: f64,
    /// `max(compute, memory) × imbalance + launch overhead`.
    pub total_s: f64,
    /// Applied load-imbalance factor (≥ 1).
    pub imbalance: f64,
}

impl TimeBreakdown {
    /// Record the modeled time split into a telemetry trace: the total at
    /// `path` plus per-pipeline children (`compute`, `memory`, `l2`). All
    /// seconds here are *modeled* device time, not wall time. No-op when
    /// the trace is disabled.
    pub fn record_into(&self, trace: &h3w_trace::Trace, path: &str) {
        if !trace.is_on() {
            return;
        }
        trace.add_secs(path, self.total_s);
        trace.add_secs(&format!("{path}/compute"), self.compute_s);
        trace.add_secs(&format!("{path}/memory"), self.memory_s);
        trace.add_secs(&format!("{path}/l2"), self.l2_s);
    }
}

/// Time a kernel from its aggregate stats, residency, and an imbalance
/// factor (1.0 when unknown; see [`imbalance_factor`]).
pub fn kernel_time(
    dev: &DeviceSpec,
    stats: &KernelStats,
    occ: &Occupancy,
    imbalance: f64,
) -> TimeBreakdown {
    const EPS: f64 = 1e-9;
    let occv = occ.occupancy.max(EPS);
    let compute_eff = (occv / OCC_KNEE_COMPUTE).min(1.0);
    let memory_eff = (occv / OCC_KNEE_MEMORY).min(1.0);
    let issue_rate = dev.issue_per_cycle * dev.sm_count as f64 * dev.clock_hz;
    let slots = stats.issue_slots() as f64
        + stats.barriers as f64 * BARRIER_EXTRA_SLOTS
        + stats.l2_transactions as f64 * L2_EXTRA_SLOTS;
    let compute_s = slots / (issue_rate * compute_eff.max(EPS));
    let memory_s = stats.gmem_bytes as f64 / (dev.gmem_bw * memory_eff.max(EPS));
    let l2_s = stats.l2_bytes as f64 / (dev.l2_bw * memory_eff.max(EPS));
    let imbalance = imbalance.max(1.0);
    TimeBreakdown {
        compute_s,
        memory_s,
        l2_s,
        total_s: compute_s.max(memory_s).max(l2_s) * imbalance + LAUNCH_OVERHEAD_S,
        imbalance,
    }
}

/// Makespan inflation from uneven per-warp work: greedily schedule the
/// work units onto `slots` resident execution slots (each unit goes to the
/// least-loaded slot — the hardware's dynamic residency refill) and return
/// `makespan / (total/slots)`.
pub fn imbalance_factor(work: &[u64], slots: usize) -> f64 {
    if work.is_empty() || slots == 0 {
        return 1.0;
    }
    let slots = slots.min(work.len());
    let mut loads = vec![0u64; slots];
    for &w in work {
        // Least-loaded slot, the first on a tie; slot count is small
        // (resident warps/SM × SMs).
        let i = (1..slots).fold(0, |best, i| if loads[i] < loads[best] { i } else { best });
        loads[i] += w;
    }
    let makespan = loads.iter().fold(0, |max, &l| max.max(l)) as f64;
    let total: u64 = work.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / slots as f64;
    (makespan / ideal).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::KernelConfig;
    use crate::occupancy::occupancy;

    fn occ(dev: &DeviceSpec, occupancy_frac: f64) -> Occupancy {
        Occupancy {
            resident_blocks: 1,
            resident_warps: (occupancy_frac * dev.max_warps_per_sm as f64) as usize,
            occupancy: occupancy_frac,
            limit: crate::occupancy::OccLimit::WarpSlots,
        }
    }

    #[test]
    fn compute_bound_scales_with_instructions() {
        let dev = DeviceSpec::tesla_k40();
        let mut s = KernelStats {
            instructions: 1_000_000,
            ..Default::default()
        };
        let t1 = kernel_time(&dev, &s, &occ(&dev, 1.0), 1.0);
        s.instructions *= 10;
        let t10 = kernel_time(&dev, &s, &occ(&dev, 1.0), 1.0);
        let ratio = (t10.total_s - LAUNCH_OVERHEAD_S) / (t1.total_s - LAUNCH_OVERHEAD_S);
        assert!((ratio - 10.0).abs() < 1e-6);
    }

    #[test]
    fn low_occupancy_slows_compute() {
        let dev = DeviceSpec::tesla_k40();
        let s = KernelStats {
            instructions: 10_000_000,
            ..Default::default()
        };
        let fast = kernel_time(&dev, &s, &occ(&dev, 0.75), 1.0);
        let slow = kernel_time(&dev, &s, &occ(&dev, 0.125), 1.0);
        // 0.75 is above the 0.5 knee (full speed); 0.125 is 4× below.
        assert!((slow.compute_s / fast.compute_s - 4.0).abs() < 1e-6);
        let full = kernel_time(&dev, &s, &occ(&dev, 1.0), 1.0);
        assert_eq!(fast.compute_s, full.compute_s);
    }

    #[test]
    fn memory_bound_kernel_hits_bandwidth() {
        let dev = DeviceSpec::tesla_k40();
        let s = KernelStats {
            instructions: 1000,
            gmem_bytes: 288_000_000_000, // 1 second at peak BW
            ..Default::default()
        };
        let t = kernel_time(&dev, &s, &occ(&dev, 1.0), 1.0);
        assert!((t.memory_s - 1.0).abs() < 1e-9);
        assert!(t.total_s >= t.memory_s);
        assert!(t.memory_s > t.compute_s);
    }

    #[test]
    fn occupancy_feeds_through_from_config() {
        // End-to-end: a register-fat config should cost ~2× the time of a
        // lean one for identical work on the compute side.
        let dev = DeviceSpec::tesla_k40();
        let s = KernelStats {
            instructions: 50_000_000,
            ..Default::default()
        };
        let lean = occupancy(
            &dev,
            &KernelConfig {
                warps_per_block: 8,
                blocks: 1,
                regs_per_thread: 32,
                smem_per_block: 1024,
                track_hazards: false,
            },
        );
        let fat = occupancy(
            &dev,
            &KernelConfig {
                warps_per_block: 8,
                blocks: 1,
                regs_per_thread: 128,
                smem_per_block: 1024,
                track_hazards: false,
            },
        );
        assert!(lean.occupancy >= 2.0 * fat.occupancy);
        let tl = kernel_time(&dev, &s, &lean, 1.0);
        let tf = kernel_time(&dev, &s, &fat, 1.0);
        assert!(tf.compute_s > 1.5 * tl.compute_s);
    }

    #[test]
    fn imbalance_factor_basics() {
        // Perfectly even work → 1.0.
        assert!((imbalance_factor(&[10, 10, 10, 10], 2) - 1.0).abs() < 1e-12);
        // One giant unit among tiny ones dominates the makespan.
        let f = imbalance_factor(&[100, 1, 1, 1], 2);
        assert!(f > 1.8, "factor {f}");
        // Degenerate inputs.
        assert_eq!(imbalance_factor(&[], 4), 1.0);
        assert_eq!(imbalance_factor(&[5], 0), 1.0);
        assert_eq!(imbalance_factor(&[0, 0], 2), 1.0);
    }

    #[test]
    fn imbalance_washes_out_with_many_units() {
        // Many independent sequences per slot → near-ideal balance, the
        // paper's premise for warp-per-sequence scheduling on big DBs.
        let work: Vec<u64> = (0..10_000).map(|i| 50 + (i * 37) % 200).collect();
        let f = imbalance_factor(&work, 64);
        assert!(f < 1.02, "factor {f}");
    }
}
