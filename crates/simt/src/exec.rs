//! Kernel execution engine: blocks, warps, and the counting context.
//!
//! Kernels are written against [`SimtCtx`], which executes lane operations
//! functionally *and* accounts every event the timing model needs. Blocks
//! are independent (the paper's three-tier design has no inter-block
//! communication), so the host runs them across a Rayon pool — the
//! host-parallel analog of independent SMs; results are deterministic
//! because each block's outputs land in its own slot.

use crate::counters::KernelStats;
use crate::device::{DeviceSpec, GMEM_SEGMENT, WARP_SIZE};
use crate::lanes::{butterfly_max, Lanes};
use crate::smem::SharedMem;
use h3w_pool::ThreadPool;

/// Launch geometry and declared resource usage of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Warps per block (`blockDim.y` in the paper's Algorithm 1, with
    /// `blockDim.x = 32`).
    pub warps_per_block: usize,
    /// Blocks in the grid.
    pub blocks: usize,
    /// Registers per thread the kernel is compiled to — drives occupancy.
    pub regs_per_thread: usize,
    /// Shared memory per block in bytes — drives occupancy.
    pub smem_per_block: usize,
    /// Enable the shared-memory race detector (test configurations).
    pub track_hazards: bool,
}

impl KernelConfig {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> usize {
        self.warps_per_block * self.blocks
    }

    /// Validate against a device's hard limits.
    pub fn validate(&self, dev: &DeviceSpec) -> Result<(), String> {
        if self.warps_per_block == 0 || self.blocks == 0 {
            return Err("empty launch".into());
        }
        if self.warps_per_block * WARP_SIZE > dev.max_threads_per_block {
            return Err(format!(
                "{} threads/block exceeds device limit {}",
                self.warps_per_block * WARP_SIZE,
                dev.max_threads_per_block
            ));
        }
        if self.smem_per_block > dev.smem_per_sm {
            return Err(format!(
                "{} B shared/block exceeds device limit {} B",
                self.smem_per_block, dev.smem_per_sm
            ));
        }
        Ok(())
    }
}

/// The execution context one kernel body runs against: shared memory of
/// its block plus event counters. `warp_id` identifies the running warp
/// within the block (set by the engine; cooperative kernels switch it).
pub struct SimtCtx {
    /// Shared memory of this block.
    pub smem: SharedMem,
    /// Event counters for this block.
    pub stats: KernelStats,
    /// Warp currently executing (for hazard attribution).
    pub warp_id: u16,
}

impl SimtCtx {
    /// Fresh context for one block.
    pub fn new(smem_bytes: usize, track_hazards: bool) -> SimtCtx {
        SimtCtx {
            smem: SharedMem::new(smem_bytes, track_hazards),
            stats: KernelStats::default(),
            warp_id: 0,
        }
    }

    /// Account `n` plain warp instructions (ALU / address / control).
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.stats.instructions += n;
    }

    /// Shared-memory byte load.
    #[inline]
    pub fn ld_smem_u8(&mut self, addrs: Lanes<usize>, active: Lanes<bool>) -> Lanes<u8> {
        let (v, cost) = self.smem.ld_u8(addrs, active, self.warp_id);
        self.stats.smem_loads += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
        v
    }

    /// Shared-memory byte store.
    #[inline]
    pub fn st_smem_u8(&mut self, addrs: Lanes<usize>, vals: Lanes<u8>, active: Lanes<bool>) {
        let cost = self.smem.st_u8(addrs, vals, active, self.warp_id);
        self.stats.smem_stores += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
    }

    /// Shared-memory 16-bit load.
    #[inline]
    pub fn ld_smem_i16(&mut self, addrs: Lanes<usize>, active: Lanes<bool>) -> Lanes<i16> {
        let (v, cost) = self.smem.ld_i16(addrs, active, self.warp_id);
        self.stats.smem_loads += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
        v
    }

    /// Shared-memory 16-bit store.
    #[inline]
    pub fn st_smem_i16(&mut self, addrs: Lanes<usize>, vals: Lanes<i16>, active: Lanes<bool>) {
        let cost = self.smem.st_i16(addrs, vals, active, self.warp_id);
        self.stats.smem_stores += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
    }

    /// Shared-memory 32-bit float load.
    #[inline]
    pub fn ld_smem_f32(&mut self, addrs: Lanes<usize>, active: Lanes<bool>) -> Lanes<f32> {
        let (v, cost) = self.smem.ld_f32(addrs, active, self.warp_id);
        self.stats.smem_loads += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
        v
    }

    /// Shared-memory 32-bit float store.
    #[inline]
    pub fn st_smem_f32(&mut self, addrs: Lanes<usize>, vals: Lanes<f32>, active: Lanes<bool>) {
        let cost = self.smem.st_f32(addrs, vals, active, self.warp_id);
        self.stats.smem_stores += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
    }

    /// Butterfly reduction of float lanes under an arbitrary combine
    /// (e.g. log-sum-exp for the Forward kernel's row total) — 5 shuffle
    /// steps, result broadcast to all lanes.
    pub fn shfl_reduce_f32(
        &mut self,
        v: Lanes<f32>,
        mut combine: impl FnMut(f32, f32) -> f32,
    ) -> f32 {
        self.stats.shuffles += 5;
        self.stats.instructions += 5;
        let mut cur = v;
        let mut mask = WARP_SIZE / 2;
        while mask >= 1 {
            let other = cur.shfl_xor(mask);
            cur = Lanes::from_fn(|i| combine(cur.lane(i), other.lane(i)));
            mask /= 2;
        }
        cur.lane(0)
    }

    /// Account a warp-wide global-memory access: `width`-byte elements at
    /// per-lane byte addresses. Transactions = distinct 128 B segments
    /// touched (the coalescing rule); data itself is read by the kernel
    /// from host slices.
    pub fn gmem_access(&mut self, addrs: Lanes<usize>, width: usize, active: Lanes<bool>) {
        let mut segs = [usize::MAX; WARP_SIZE];
        let mut n = 0usize;
        for i in 0..WARP_SIZE {
            if !active.lane(i) {
                continue;
            }
            let seg = addrs.lane(i) / GMEM_SEGMENT;
            let last_seg = (addrs.lane(i) + width - 1) / GMEM_SEGMENT;
            for s in seg..=last_seg {
                if !segs[..n].contains(&s) {
                    segs[n] = s;
                    n += 1;
                }
            }
        }
        self.stats.instructions += 1; // the LD/ST instruction itself
        self.stats.gmem_transactions += n as u64;
        self.stats.gmem_bytes += (n * GMEM_SEGMENT) as u64;
    }

    /// Account a uniform (whole-warp, same address) global read — e.g. the
    /// packed residue word all lanes decode (Algorithm 1 line 11).
    pub fn gmem_access_uniform(&mut self, addr: usize, width: usize) {
        self.gmem_access(Lanes::splat(addr), width, Lanes::splat(true));
    }

    /// Account an L2-resident global read: model tables in the global
    /// configuration are a few tens of KB and stay cached, so their
    /// re-reads cost L2 bandwidth, not DRAM (the first-touch fill is
    /// negligible against billions of rows and is folded in here).
    pub fn gmem_access_cached(&mut self, addrs: Lanes<usize>, width: usize, active: Lanes<bool>) {
        let mut segs = [usize::MAX; WARP_SIZE];
        let mut n = 0usize;
        for i in 0..WARP_SIZE {
            if !active.lane(i) {
                continue;
            }
            let seg = addrs.lane(i) / GMEM_SEGMENT;
            let last_seg = (addrs.lane(i) + width - 1) / GMEM_SEGMENT;
            for s in seg..=last_seg {
                if !segs[..n].contains(&s) {
                    segs[n] = s;
                    n += 1;
                }
            }
        }
        self.stats.instructions += 1;
        self.stats.l2_transactions += n as u64;
        self.stats.l2_bytes += (n * GMEM_SEGMENT) as u64;
    }

    /// Butterfly max-reduction of byte scores via `shfl_xor` — 5 exchange
    /// steps, every lane ends with the warp max (§III-A). Counts 5
    /// shuffles + 5 max instructions.
    pub fn shfl_max_u8(&mut self, v: Lanes<u8>) -> u8 {
        self.stats.shuffles += 5;
        self.stats.instructions += 5;
        butterfly_max(v).lane(0)
    }

    /// Butterfly max-reduction of word scores via `shfl_xor`.
    pub fn shfl_max_i16(&mut self, v: Lanes<i16>) -> i16 {
        self.stats.shuffles += 5;
        self.stats.instructions += 5;
        butterfly_max(v).lane(0)
    }

    /// Fermi fallback: max-reduction through shared memory scratch at
    /// `scratch_base` (needs 32 × 2 bytes). No barrier is required within
    /// a single warp, but each of the 5 halving steps is a store + load
    /// pair — the §IV-A cost difference vs. Kepler's shuffle.
    pub fn smem_max_i16(&mut self, v: Lanes<i16>, scratch_base: usize) -> i16 {
        let ids = crate::lanes::lane_ids();
        let addrs = ids.map(|i| scratch_base + 2 * i);
        let mut cur = v;
        let mut width = WARP_SIZE / 2;
        while width >= 1 {
            self.st_smem_i16(addrs, cur, Lanes::splat(true));
            let partner = ids.map(|i| scratch_base + 2 * ((i + width) % WARP_SIZE));
            let other = self.ld_smem_i16(partner, Lanes::splat(true));
            cur = cur.zip(other, |a, b| a.max(b));
            self.alu(1);
            width /= 2;
        }
        cur.lane(0)
    }

    /// Fermi fallback: byte max-reduction through shared memory.
    pub fn smem_max_u8(&mut self, v: Lanes<u8>, scratch_base: usize) -> u8 {
        let ids = crate::lanes::lane_ids();
        let addrs = ids.map(|i| scratch_base + i);
        let mut cur = v;
        let mut width = WARP_SIZE / 2;
        while width >= 1 {
            self.st_smem_u8(addrs, cur, Lanes::splat(true));
            let partner = ids.map(|i| scratch_base + (i + width) % WARP_SIZE);
            let other = self.ld_smem_u8(partner, Lanes::splat(true));
            cur = cur.zip(other, |a, b| a.max(b));
            self.alu(1);
            width /= 2;
        }
        cur.lane(0)
    }

    /// Warp vote `__all` (the Lazy-F convergence test, Fig. 7).
    pub fn vote_all(&mut self, preds: Lanes<bool>) -> bool {
        self.stats.votes += 1;
        preds.vote_all()
    }

    /// Block-wide barrier `__syncthreads()` — counted, and orders shared
    /// memory for the hazard detector. The paper's kernels never call it;
    /// the Fig. 4 baseline calls it twice per row.
    pub fn barrier(&mut self) {
        self.stats.barriers += 1;
        self.smem.advance_epoch();
    }

    /// Fold shared-memory race counts into the stats (done by the engine
    /// after a block completes).
    pub fn finish_block(&mut self) {
        self.stats.hazards += self.smem.hazards();
    }
}

/// A kernel where every warp works independently (the paper's design:
/// warp ↦ sequence, Algorithm 1/2).
pub trait WarpKernel: Sync {
    /// Per-warp output (e.g. the scores of the sequences this warp ran).
    type Out: Send;

    /// Execute one warp's full lifetime. `global_warp`/`total_warps`
    /// implement the static striding of Algorithm 1 lines 1–6
    /// (`seqid = row + duty_span * count`).
    fn run_warp(&self, ctx: &mut SimtCtx, global_warp: usize, total_warps: usize) -> Self::Out;
}

/// A kernel where the warps of a block cooperate through shared memory and
/// barriers (the Fig. 4 baseline).
pub trait BlockKernel: Sync {
    /// Per-block output.
    type Out: Send;

    /// Execute one block (switch `ctx.warp_id` when emulating different
    /// warps' accesses).
    fn run_block(&self, ctx: &mut SimtCtx, block: usize, total_blocks: usize) -> Self::Out;
}

/// Result of a grid launch.
#[derive(Debug)]
pub struct GridResult<O> {
    /// Merged event counters.
    pub stats: KernelStats,
    /// Per-warp (or per-block) outputs, in launch order.
    pub outputs: Vec<O>,
    /// Issue slots consumed by each warp (or block) — the load-imbalance
    /// input of the timing model.
    pub work_per_unit: Vec<u64>,
}

/// Launch an independent-warp kernel over a grid.
#[allow(clippy::type_complexity)]
pub fn run_grid<K: WarpKernel>(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    kernel: &K,
) -> Result<GridResult<K::Out>, String> {
    cfg.validate(dev)?;
    let total_warps = cfg.total_warps();
    let per_block: Vec<(KernelStats, Vec<(K::Out, u64)>)> =
        ThreadPool::global().map_collect(cfg.blocks, |block| {
            let mut ctx = SimtCtx::new(cfg.smem_per_block, cfg.track_hazards);
            let mut outs = Vec::with_capacity(cfg.warps_per_block);
            for w in 0..cfg.warps_per_block {
                ctx.warp_id = w as u16;
                let before = ctx.stats.issue_slots();
                let out = kernel.run_warp(&mut ctx, block * cfg.warps_per_block + w, total_warps);
                outs.push((out, ctx.stats.issue_slots() - before));
            }
            ctx.finish_block();
            (ctx.stats, outs)
        });

    let mut stats = KernelStats::default();
    let mut outputs = Vec::with_capacity(total_warps);
    let mut work = Vec::with_capacity(total_warps);
    for (s, outs) in per_block {
        stats.merge(&s);
        for (o, w) in outs {
            outputs.push(o);
            work.push(w);
        }
    }
    Ok(GridResult {
        stats,
        outputs,
        work_per_unit: work,
    })
}

/// Launch a cooperative block kernel over a grid.
pub fn run_grid_blocks<K: BlockKernel>(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    kernel: &K,
) -> Result<GridResult<K::Out>, String> {
    cfg.validate(dev)?;
    let per_block: Vec<(KernelStats, K::Out, u64)> =
        ThreadPool::global().map_collect(cfg.blocks, |block| {
            let mut ctx = SimtCtx::new(cfg.smem_per_block, cfg.track_hazards);
            let out = kernel.run_block(&mut ctx, block, cfg.blocks);
            ctx.finish_block();
            let work = ctx.stats.issue_slots();
            (ctx.stats, out, work)
        });
    let mut stats = KernelStats::default();
    let mut outputs = Vec::with_capacity(cfg.blocks);
    let mut work = Vec::with_capacity(cfg.blocks);
    for (s, o, w) in per_block {
        stats.merge(&s);
        outputs.push(o);
        work.push(w);
    }
    Ok(GridResult {
        stats,
        outputs,
        work_per_unit: work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::lane_ids;

    struct SumKernel;
    impl WarpKernel for SumKernel {
        type Out = u64;
        fn run_warp(&self, ctx: &mut SimtCtx, gw: usize, tw: usize) -> u64 {
            // Each warp sums its strided work items 0..100.
            let mut acc = 0u64;
            let mut item = gw;
            while item < 100 {
                ctx.alu(1);
                acc += item as u64;
                item += tw;
            }
            acc
        }
    }

    fn cfg(warps: usize, blocks: usize) -> KernelConfig {
        KernelConfig {
            warps_per_block: warps,
            blocks,
            regs_per_thread: 32,
            smem_per_block: 1024,
            track_hazards: false,
        }
    }

    #[test]
    fn grid_covers_all_work_exactly_once() {
        let dev = DeviceSpec::tesla_k40();
        let r = run_grid(&dev, &cfg(4, 3), &SumKernel).unwrap();
        let total: u64 = r.outputs.iter().sum();
        assert_eq!(total, (0..100u64).sum::<u64>());
        assert_eq!(r.stats.instructions, 100);
        assert_eq!(r.outputs.len(), 12);
        assert_eq!(r.work_per_unit.len(), 12);
        assert_eq!(r.work_per_unit.iter().sum::<u64>(), 100);
    }

    #[test]
    fn launch_validation() {
        let dev = DeviceSpec::tesla_k40();
        let mut bad = cfg(40, 1); // 1280 threads/block > 1024
        assert!(run_grid(&dev, &bad, &SumKernel).is_err());
        bad = cfg(4, 1);
        bad.smem_per_block = 100 * 1024;
        assert!(run_grid(&dev, &bad, &SumKernel).is_err());
        bad = cfg(0, 1);
        assert!(run_grid(&dev, &bad, &SumKernel).is_err());
    }

    struct SmemRoundTrip;
    impl WarpKernel for SmemRoundTrip {
        type Out = bool;
        fn run_warp(&self, ctx: &mut SimtCtx, _gw: usize, _tw: usize) -> bool {
            let addrs = lane_ids().map(|i| ctx.warp_id as usize * 32 + i);
            let vals = lane_ids().map(|i| i as u8 + ctx.warp_id as u8);
            ctx.st_smem_u8(addrs, vals, Lanes::splat(true));
            let back = ctx.ld_smem_u8(addrs, Lanes::splat(true));
            back == vals
        }
    }

    #[test]
    fn per_warp_smem_regions_do_not_race() {
        let dev = DeviceSpec::tesla_k40();
        let mut c = cfg(4, 2);
        c.track_hazards = true;
        let r = run_grid(&dev, &c, &SmemRoundTrip).unwrap();
        assert!(r.outputs.iter().all(|&ok| ok));
        assert_eq!(r.stats.hazards, 0);
        assert_eq!(r.stats.smem_loads, 8);
        assert_eq!(r.stats.smem_stores, 8);
    }

    struct RacyBlock;
    impl BlockKernel for RacyBlock {
        type Out = ();
        fn run_block(&self, ctx: &mut SimtCtx, _b: usize, _n: usize) {
            // Two warps touch the same cells with no barrier between.
            ctx.warp_id = 0;
            ctx.st_smem_u8(Lanes::splat(5), Lanes::splat(1), Lanes::splat(true));
            ctx.warp_id = 1;
            let _ = ctx.ld_smem_u8(Lanes::splat(5), Lanes::splat(true));
        }
    }

    struct SafeBlock;
    impl BlockKernel for SafeBlock {
        type Out = ();
        fn run_block(&self, ctx: &mut SimtCtx, _b: usize, _n: usize) {
            ctx.warp_id = 0;
            ctx.st_smem_u8(Lanes::splat(5), Lanes::splat(1), Lanes::splat(true));
            ctx.barrier();
            ctx.warp_id = 1;
            let _ = ctx.ld_smem_u8(Lanes::splat(5), Lanes::splat(true));
        }
    }

    #[test]
    fn cooperative_kernel_race_detection() {
        let dev = DeviceSpec::tesla_k40();
        let mut c = cfg(2, 1);
        c.track_hazards = true;
        let racy = run_grid_blocks(&dev, &c, &RacyBlock).unwrap();
        assert!(racy.stats.hazards > 0);
        assert_eq!(racy.stats.barriers, 0);
        let safe = run_grid_blocks(&dev, &c, &SafeBlock).unwrap();
        assert_eq!(safe.stats.hazards, 0);
        assert_eq!(safe.stats.barriers, 1);
    }

    #[test]
    fn reductions_agree_and_count() {
        let mut ctx = SimtCtx::new(1024, false);
        let v = Lanes::from_fn(|i| ((i * 13) % 29) as i16 - 14);
        let a = ctx.shfl_max_i16(v);
        let b = ctx.smem_max_i16(v, 0);
        assert_eq!(a, b);
        assert_eq!(a, *v.0.iter().max().unwrap());
        assert_eq!(ctx.stats.shuffles, 5);
        // Fermi path: 5 stores + 5 loads instead of shuffles.
        assert_eq!(ctx.stats.smem_stores, 5);
        assert_eq!(ctx.stats.smem_loads, 5);
    }

    #[test]
    fn gmem_coalescing_counts_segments() {
        let mut ctx = SimtCtx::new(0, false);
        // 32 consecutive u32 = 128 B = 1 segment.
        let addrs = lane_ids().map(|i| i * 4);
        ctx.gmem_access(addrs, 4, Lanes::splat(true));
        assert_eq!(ctx.stats.gmem_transactions, 1);
        // Strided by 128 B: one segment per lane.
        let strided = lane_ids().map(|i| i * 128);
        ctx.gmem_access(strided, 4, Lanes::splat(true));
        assert_eq!(ctx.stats.gmem_transactions, 1 + 32);
    }

    #[test]
    fn f32_smem_round_trip_and_conflict_free() {
        let mut ctx = SimtCtx::new(512, false);
        let addrs = lane_ids().map(|i| i * 4);
        let vals = Lanes::from_fn(|i| i as f32 * -1.5);
        ctx.st_smem_f32(addrs, vals, Lanes::splat(true));
        let back = ctx.ld_smem_f32(addrs, Lanes::splat(true));
        assert_eq!(back, vals);
        // 32 consecutive f32 = one word per bank: conflict-free.
        assert_eq!(ctx.stats.smem_conflict_extra, 0);
        assert_eq!(ctx.stats.smem_loads, 1);
        assert_eq!(ctx.stats.smem_stores, 1);
    }

    #[test]
    fn shfl_reduce_f32_with_custom_combine() {
        let mut ctx = SimtCtx::new(0, false);
        let v = Lanes::from_fn(|i| (i as f32) - 15.5);
        let max = ctx.shfl_reduce_f32(v, f32::max);
        assert_eq!(max, 15.5); // lane 31 holds 31 − 15.5
        let sum = ctx.shfl_reduce_f32(Lanes::splat(1.0f32), |a, b| a + b);
        assert_eq!(sum, 32.0);
        assert_eq!(ctx.stats.shuffles, 10);
    }

    #[test]
    fn cached_access_counts_l2_not_dram() {
        let mut ctx = SimtCtx::new(0, false);
        let addrs = lane_ids().map(|i| i * 4);
        ctx.gmem_access_cached(addrs, 4, Lanes::splat(true));
        assert_eq!(ctx.stats.l2_transactions, 1);
        assert_eq!(ctx.stats.gmem_transactions, 0);
        assert_eq!(ctx.stats.l2_bytes, 128);
        // The LD instruction itself still issues.
        assert_eq!(ctx.stats.instructions, 1);
    }

    #[test]
    fn uniform_access_is_one_segment() {
        let mut ctx = SimtCtx::new(0, false);
        ctx.gmem_access_uniform(1000, 4);
        assert_eq!(ctx.stats.gmem_transactions, 1);
        assert_eq!(ctx.stats.gmem_bytes, 128);
    }
}
